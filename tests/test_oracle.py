import math
import warnings

import numpy as np
import pytest

from radialspec import oracle
from radialspec.core import (
    ExtensionParam,
    ProblemSpec,
    Theory,
    ValidationError,
)
from radialspec.oracle import (
    GridResolutionWarning,
    _fd_matrix,
    _potential,
    _propagator,
    GridSpec,
    compare_spectra,
    fd_eigenvalues,
    shoot_eigenvalue,
)
from radialspec.coulomb import coul_spectrum
from radialspec.oscillator import osc_spectrum

from package_imports import package_imports


def _staggered(u_max, points):
    h = u_max / (points - 0.5)
    return GridSpec(h / 2.0, u_max, points)


def test_oracle_is_independent_of_the_closed_forms():
    # the oracles check the closed forms, so they may not compute with them
    assert package_imports("oracle") <= {"core", "specfun"}


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


# ---------------------------------------------------------------- window solve


def _record_solves(monkeypatch):
    """Patch the oracle's eigensolver to log (matrix size, select) per call."""
    calls = []
    solve = oracle.eigh_tridiagonal

    def recorded(d, e, **kwargs):
        calls.append((len(d), kwargs["select"]))
        return solve(d, e, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recorded)
    return calls


def _by_index(spec, grid, count):
    """The full grid's `count` lowest levels by index, as every FD solve
    once found them, and dstebz's absolute tolerance eps ||T||_1."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = _fd_matrix(spec, grid.nodes())
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    col = np.abs(diag)
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return vals, np.finfo(float).eps * col.max()


def _fd_quiet(spec, grid, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridResolutionWarning)
        return fd_eigenvalues(spec, grid, count)


def test_fd_rejects_a_count_above_the_unknowns(monkeypatch):
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError, match="exceeds"):
        fd_eigenvalues(spec, GridSpec(0.04, 8.0, 101), 150)
    assert calls == []  # rejected before any solve


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize(
    "spec, grid",
    [
        # pure-power flux path: a unique cell and a family member at zeta = pi/2
        (ProblemSpec(Theory.OSCILLATOR, 1, 1.0), _staggered(9.0, 4001)),
        (ProblemSpec(Theory.COULOMB, 2, -1.0), _staggered(70.0, 4001)),
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), _staggered(40.0, 4001)),
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(math.pi / 2)), _staggered(9.0, 4001)),
        # ghost-node path, log-mixed family cells: the first takes the window
        # at count 2 and 3 and finds it short at count 1; the second falls back
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7)), GridSpec(1e-2, 9.0, 151)),
        (ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.35)), GridSpec(1e-3, 40.0, 4001)),
    ],
    ids=["osc-unique", "coul-unique", "coul-m0-half-pi", "osc-m0-half-pi", "osc-m0-log", "coul-m1-log"],
)
def test_window_solve_matches_the_index_solve(spec, grid, count):
    ref, tol = _by_index(spec, grid, count)
    vals = _fd_quiet(spec, grid, count)
    assert len(vals) == count
    assert np.max(np.abs(np.array(vals) - ref)) <= 4.0 * tol


def test_unwarned_solve_bisects_the_full_grid_only_in_the_window(monkeypatch):
    # a timing-free check that the window is really used: one index solve on
    # the half grid, then the guard and the window by value on the full grid
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.COULOMB, 2, -1.0)
    grid = _staggered(70.0, 5001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridResolutionWarning)
        fd_eigenvalues(spec, grid, 2)
    assert calls == [(2500, "i"), (5000, "v"), (5000, "v")]


def test_window_falls_back_when_the_level_moves_past_the_pad(monkeypatch):
    # a 201-point grid in a log-mixed cell: the full grid's ground level sits
    # far below the half grid's, so the guard finds it and the solve is by index
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    grid = GridSpec(1e-2, 9.0, 201)
    with pytest.warns(GridResolutionWarning):
        vals = fd_eigenvalues(spec, grid, 1)
    assert calls == [(99, "i"), (199, "v"), (199, "i")]
    coarse = _fd_quiet(spec, GridSpec(1e-2, 9.0, 101), 1)
    assert abs(vals[0] - coarse[0]) > 1e-2 * max(1.0, abs(coarse[0]))
    assert np.array_equal(vals, _by_index(spec, grid, 1)[0])


def test_window_falls_back_when_the_half_grid_has_too_few_levels(monkeypatch):
    # 101 nodes: 100 unknowns on the full grid, 50 on the half grid
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    grid = GridSpec(0.04, 8.0, 101)
    vals = _fd_quiet(spec, grid, 60)
    assert calls == [(50, "i"), (100, "i")]
    assert np.array_equal(vals, _by_index(spec, grid, 60)[0])


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
        # at m = 0 the x^(1/2) ln x channel differs in log-derivative by only
        # 1/(x ln x), so the start needs the Frobenius factor (1 + g x); with
        # it, a start far inside the default u_min and the default both hold 1e-9
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), -1.0, 1e-10),
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), -1.0, 1e-6),
    ],
)
def test_shoot_pure_power_matches_closed_form(spec, closed, u_min):
    e = shoot_eigenvalue(spec, _bracket(closed), u_min=u_min)
    assert abs(e - closed) < 1e-9 * abs(closed)


@pytest.mark.parametrize("u_min", [1e-8, 1e-10])
def test_shoot_log_mixed_start_converges_as_u_min_shrinks(u_min):
    # the start derivative is the asymptote's own: a central difference with
    # step 1e-6 u_min lost 1.6e-3 and 8.8e-2 relative at these two radii
    spec = ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.35))
    (e0, _), (e1, _) = coul_spectrum(spec, levels=2).discrete
    half = 0.4 * (e1 - e0)
    e = shoot_eigenvalue(spec, (e0 - half, e0 + half), u_min=u_min)
    assert abs(e - e0) < 1e-6 * abs(e0)


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
