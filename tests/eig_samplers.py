"""Test-side samplers of Wishart largest eigenvalues, built from the gain
kernel's own pieces: direct draws for the eigenvalue-law checks, and
projected draws for the ZF projection reduction."""

import numpy as np

from fdrelay.zf import _col_gram, _matvec, _project_off, _randn_c, _soa, _top_eig
from fdrelay.wishart import WishartDims


def sample_wishart_max_eig(
    rng: np.random.Generator, dims: WishartDims, trials: int
) -> np.ndarray:
    """Largest eigenvalues of ``trials`` direct a x b complex Wishart draws."""
    h = _randn_c(rng, (trials, dims.b, dims.a))
    return _top_eig(_col_gram(_soa(h)))[0]


def projected_max_eig_samples(
    rng: np.random.Generator, rows: int, cols: int, trials: int, aux: int = 2
) -> np.ndarray:
    """Largest eigenvalue of a rows x cols channel Gram projected off an
    independent random direction (the image of a second Gaussian channel).

    Distributionally this should match a direct (rows-1) x cols Wishart
    largest eigenvalue; the simulator's ZF constructions rely on exactly
    this reduction.
    """
    h = _randn_c(rng, (trials, rows, cols))
    mix = _randn_c(rng, (trials, rows, aux))
    x = _randn_c(rng, (trials, aux))
    w = _matvec(_soa(mix), x.T)
    projected = _project_off(_soa(h), w / np.linalg.norm(w, axis=0))
    return _top_eig(_col_gram(projected))[0]
