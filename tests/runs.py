"""Run configurations built in code, for tests that need whole curves from
``curves.build_curve``: the one route from antennas, powers and an SNR grid to
closed-form and Monte Carlo outage."""

from fdrelay.curves import RunConfig, build_curve
from fdrelay.outage import AntennaConfig, OutageQuery, ZFMode


def make_run(antennas, mode, grid_db, query=OutageQuery.snr(10.0), *, alphas=(1.0, 1.0),
             p_s=1.0, p_r=1.0, trials=0, seed=0, asymmetry="symmetric",
             ratio=None) -> RunConfig:
    """RunConfig of linear powers ``p_s``, ``p_r`` and amplitudes ``alphas``."""
    return RunConfig(
        antenna=AntennaConfig(*antennas, ZFMode(mode)), query=query, grid_db=tuple(grid_db),
        p_s=p_s, p_r=p_r, alpha_sr=alphas[0], alpha_rd=alphas[1],
        trials=trials, seed=seed, out_csv=None, asymmetry=asymmetry, asymmetry_ratio=ratio,
    )


def analytic_curve(*args, **kwargs) -> list[float]:
    """Closed-form end-to-end outage at each point of ``make_run(...)``'s grid."""
    return [row.analytic for row in build_curve(make_run(*args, **kwargs)).rows]
