"""Models shared by several test modules."""

import numpy as np
import pytest

import sampledkf as sk
from sampledkf import refinement

#: Largest grid a test under ``no_large_grids`` may build.
SMALL_GRID = 4096


def _two_output_heat(num_modes=4, q_scalar=0.0):
    """Heat chain read at both ends: fluxes pi k and pi k (-1)^(k+1).

    The two channels carry correlated measurement noise, so every route has
    to handle a full r x r block with r = 2.
    """
    base = sk.build_heat_model(num_modes, horizon=1.0, q_scalar=q_scalar)
    k = np.arange(1, num_modes + 1, dtype=float)
    flux = np.pi * k
    return sk.ModalSystem(
        eigenvalues=base.eigenvalues,
        output_coeffs=np.column_stack([flux, flux * (-1.0) ** (k + 1)])
        .astype(complex),
        input_coeffs=base.input_coeffs,
        prior_mean=base.prior_mean,
        prior_var=base.prior_var,
        q_cov=base.q_cov,
        r_cov=np.array([[1.0, 0.3], [0.3, 2.0]]),
        horizon=1.0,
        pairing=base.pairing,
        label=f"heat-two-outputs(N={num_modes},q={q_scalar:g})",
    )


@pytest.fixture
def two_output_heat():
    """Factory ``(num_modes=4, q_scalar=0.0) -> ModalSystem`` with r = 2."""
    return _two_output_heat


@pytest.fixture
def no_large_grids(monkeypatch):
    """Make ``refinement.dyadic_grid`` refuse more than SMALL_GRID points.

    Traces on the package's uniform grids and the level sums take the point
    count alone, and the telescope forms only a level's new points, so a
    curve, an anchor, a level sum or a telescope far beyond that size must
    still complete.
    """
    build = refinement.dyadic_grid

    def small_only(base_n, level, horizon=1.0):
        if base_n * 2 ** level > SMALL_GRID:
            raise AssertionError(f"a {base_n} * 2**{level}-point grid was built")
        return build(base_n, level, horizon)

    monkeypatch.setattr(refinement, "dyadic_grid", small_only)
