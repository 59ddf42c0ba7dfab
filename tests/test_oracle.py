import math

import numpy as np
import pytest

from radialspec.core import (
    ExtensionParam,
    ProblemSpec,
    Theory,
    ValidationError,
)
from radialspec.oracle import (
    GridResolutionWarning,
    _potential,
    _propagator,
    GridSpec,
    compare_spectra,
    fd_eigenvalues,
    shoot_eigenvalue,
)
from radialspec.coulomb import coul_spectrum
from radialspec.oscillator import osc_spectrum


def _staggered(u_max, points):
    h = u_max / (points - 0.5)
    return GridSpec(h / 2.0, u_max, points)


# ---------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 500)
    with pytest.raises(ValidationError):
        GridSpec(2.0, 1.0, 500)
    with pytest.raises(ValidationError):
        GridSpec(0.1, 1.0, 50)
    with pytest.raises(ValidationError):
        fd_eigenvalues(
            ProblemSpec(Theory.OSCILLATOR, 1, 1.0),
            GridSpec(1e-3, 8.0, 500, log_spacing=True),
            1,
        )
    with pytest.raises(ValidationError):
        fd_eigenvalues(ProblemSpec(Theory.OSCILLATOR, 1, 1.0), _staggered(8.0, 500), 0)


# ---------------------------------------------------------------- finite differences


def test_fd_oscillator_unique_ladder():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    vals = fd_eigenvalues(spec, _staggered(9.0, 3000), 3)
    for k, v in enumerate(vals):
        assert abs(v - (4.0 + 4.0 * k)) < 1e-4


def test_fd_coulomb_unique_ladder():
    spec = ProblemSpec(Theory.COULOMB, 2, -1.0)
    vals = fd_eigenvalues(spec, _staggered(70.0, 5000), 2)
    assert abs(vals[0] - (-1.0 / 9.0)) < 2e-5
    assert abs(vals[1] - (-1.0 / 25.0)) < 2e-5


def test_fd_oscillator_m0_half_pi_ladder():
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(math.pi / 2))
    vals = fd_eigenvalues(spec, _staggered(9.0, 3000), 3)
    for k, v in enumerate(vals):
        assert abs(v - (2.0 + 4.0 * k)) < 1e-4


def test_fd_error_shrinks_under_refinement():
    # on staggered grids the flux scheme is at least second order: halving
    # h must shrink the ground-level error by > 4 (measured: ~16-24x)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    dev = []
    for points in (500, 1000):
        v = fd_eigenvalues(spec, _staggered(9.0, points), 1)[0]
        dev.append(abs(v - 4.0))
    assert dev[1] < dev[0] / 4.0
    assert dev[1] < 1e-9


def test_fd_warns_on_coarse_grid():
    # the logarithmic boundary channel converges slowly; a modest grid
    # leaves a percent-level ground error and must trigger the warning
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    with pytest.warns(GridResolutionWarning):
        fd_eigenvalues(spec, GridSpec(1e-4, 9.0, 1000), 1)


def test_fd_log_mixed_family_cell():
    # zeta < pi/2 members use the ratio boundary condition; its accuracy is
    # limited by the log channel, so only loose agreement is asserted, and
    # u_min must stay moderate (too small and the folded ratio degenerates)
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    closed = osc_spectrum(spec, levels=1).discrete[0][0]
    with pytest.warns(GridResolutionWarning):
        vals = fd_eigenvalues(spec, GridSpec(1e-2, 9.0, 4000), 1)
    assert abs(vals[0] - closed) < 5e-2 * max(1.0, abs(closed))


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(Theory.OSCILLATOR, 1, 1.3),
        ProblemSpec(Theory.OSCILLATOR, 0, -0.7, 1.0, ExtensionParam(0.7)),
        ProblemSpec(Theory.COULOMB, 2, -1.0),
        ProblemSpec(Theory.COULOMB, 1, 0.6, 1.0, ExtensionParam(-0.4)),
    ],
)
def test_potential_on_an_array_matches_pointwise(spec):
    # the FD matrix applies the potential to the whole grid at once
    nodes = np.linspace(1e-3, 15.0, 40000)
    vpot = _potential(spec)
    assert np.array_equal(vpot(nodes), np.array([vpot(u) for u in nodes]))


# ---------------------------------------------------------------- shooting


def _bracket(e, frac=0.1):
    lo, hi = e - frac * abs(e), e + frac * abs(e)
    return (lo, hi)


def test_shoot_oscillator_unique():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    e = shoot_eigenvalue(spec, _bracket(4.0))
    assert abs(e - 4.0) < 1e-4


def test_shoot_coulomb_half_pi_ground():
    spec = ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2))
    e = shoot_eigenvalue(spec, _bracket(-1.0))
    assert abs(e - (-1.0)) < 1e-4


def test_shoot_oscillator_m0_family():
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 2.0, 1.0, ExtensionParam(0.7))
    closed = osc_spectrum(spec, levels=1).discrete[0][0]
    e = shoot_eigenvalue(spec, _bracket(closed))
    assert abs(e - closed) < 1e-4 * max(1.0, abs(closed))


def test_shoot_coulomb_m1_family():
    spec = ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.4))
    closed = coul_spectrum(spec, levels=1).discrete[0][0]
    e = shoot_eigenvalue(spec, _bracket(closed))
    assert abs(e - closed) < 1e-3 * max(1.0, abs(closed))


@pytest.mark.parametrize(
    "spec, closed, u_min",
    [
        (ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 4.0, 1e-6),
        (ProblemSpec(Theory.COULOMB, 2, -1.0), -1.0 / 9.0, 1e-6),
        # the boundary asymptote x^(1/2) omits the (1 + g x) Frobenius factor;
        # at m = 0 that admixes the x^(1/2) ln x channel and costs ~4 u_min
        # relative, so the start moves in far enough to bound the integrator
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), -1.0, 1e-10),
    ],
)
def test_shoot_pure_power_matches_closed_form(spec, closed, u_min):
    e = shoot_eigenvalue(spec, _bracket(closed), u_min=u_min)
    assert abs(e - closed) < 1e-9 * abs(closed)


@pytest.mark.parametrize(
    "a, b, y0",
    [(0.5, 3.0, [0.0, 1.0]), (6.0, 2.0, [1.0, 0.0])],
    ids=["outward", "inward"],
)
def test_propagator_starts_from_an_exact_zero_component(a, b, y0):
    from scipy.integrate import solve_ivp

    vpot = _potential(ProblemSpec(Theory.OSCILLATOR, 1, 1.0))
    E = 5.0
    ref = solve_ivp(
        lambda u, y: [y[1], (vpot(u) - E) * y[0]],
        (a, b), y0, method="DOP853", rtol=1e-12, atol=1e-14,
    ).y[:, -1]
    ref = ref / np.max(np.abs(ref))
    got = _propagator(vpot, a, b)(E, y0)
    assert np.max(np.abs(got - ref)) < 1e-8


@pytest.mark.filterwarnings("ignore::UserWarning")  # SciPy's own dop853 warning
def test_shoot_failed_integration_raises(monkeypatch):
    # the outward chunk off the singular edge takes ~76 steps, every later
    # chunk (either direction) at most ~15: only the first one hits this cap,
    # so a failure is caught chunk by chunk, not just at the end
    monkeypatch.setattr("radialspec.oracle._MAX_STEPS", 30)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError, match="return code -2"):
        shoot_eigenvalue(spec, _bracket(4.0))


@pytest.mark.parametrize(
    "u_min, u_max",
    [(0.0, None), (-1.0, None), (float("nan"), None), (7.0, 5.0), (100.0, None)],
    ids=["zero", "negative", "nan", "above_u_max", "above_computed_u_max"],
)
def test_shoot_rejects_bad_radii(u_min, u_max):
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError, match="u_min < u_max"):
        shoot_eigenvalue(spec, _bracket(4.0), u_min=u_min, u_max=u_max)


def test_shoot_rejects_empty_bracket():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError):
        shoot_eigenvalue(spec, (5.0, 7.0))  # no level between 4 and 8
    with pytest.raises(ValidationError):
        shoot_eigenvalue(spec, (7.0, 5.0))


# ---------------------------------------------------------------- comparison


def test_compare_spectra_verdicts():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    closed = osc_spectrum(spec, levels=3)
    oracle = fd_eigenvalues(spec, _staggered(9.0, 2000), 3)
    out = compare_spectra(closed, oracle, tol=1e-3)
    assert out["pass"] and not out["count_mismatch"]
    assert [row["n"] for row in out["levels"]] == [0, 1, 2]
    strict = compare_spectra(closed, oracle, tol=1e-12)
    assert not strict["pass"]
    short = compare_spectra(closed, oracle[:2], tol=1e-3)
    assert short["count_mismatch"]
