"""Outage analysis for full-duplex MIMO decode-and-forward relaying with
zero-forcing beamforming: exact closed forms plus a Monte Carlo validator."""

from .exppoly import ExpPoly, determinant
from .mcsim import (
    DegenerateChannelError,
    link_gain_samples,
    make_rng,
    outage_from_gains,
    wilson_interval,
)
from .outage import (
    AntennaConfig,
    InvalidProbabilityError,
    LinkBudget,
    OutageQuery,
    ZFMode,
    diversity_order,
    e2e_outage,
    link_dims,
    link_outage,
    rate_to_snr_threshold,
)
from .wishart import (
    CoeffTable,
    NonzeroResidualError,
    WishartDims,
    cached_table,
    extract_coefficients,
    load_table,
    max_eig_cdf,
    max_eig_density,
    normalization_constant,
    save_table,
)

__version__ = "0.1.0"
