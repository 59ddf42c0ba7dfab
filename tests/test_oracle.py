import json
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
    _fd_nodes,
    _equation,
    _frobenius,
    _magnus,
    GridSpec,
    compare_spectra,
    fd_eigenvalues,
    shoot_eigenvalue,
)
from radialspec.coulomb import coul_spectrum
from radialspec.oscillator import osc_spectrum
from radialspec.specfun import bessel, digamma

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
    with pytest.raises(ValidationError, match="finite"):
        GridSpec(0.1, math.inf, 500)
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
    # zeta < pi/2 members take the flux R(E) chi_0 through the first node
    # from the Frobenius start, so a fixed u_min = 1e-2 converges as well as
    # a staggered grid. The two-term asymptote that R once came from left
    # that grid 1.3e-2 off at every node count, with a warning
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    closed = osc_spectrum(spec, levels=1).discrete[0][0]
    scale = max(1.0, abs(closed))
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridResolutionWarning)
        vals = fd_eigenvalues(spec, _staggered(9.0, 4000), 1)
        assert abs(vals[0] - closed) < 5e-4 * scale
        for points, tol in ((4000, 2e-4), (40000, 1e-5)):
            vals = fd_eigenvalues(spec, GridSpec(1e-2, 9.0, points), 1)
            assert abs(vals[0] - closed) < tol * scale


def test_fd_start_that_does_not_converge_raises():
    # first nodes far out (u_0 = 55 on the coarsest grid): the Frobenius
    # start would need some 1500 terms, whose sum overflows on the way, and
    # raises instead of handing the solver a non-finite flux
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    with pytest.raises(ValidationError, match="Frobenius start did not converge"):
        fd_eigenvalues(spec, GridSpec(50.0, 60.0, 100), 1)


_HALF_PI = ExtensionParam(math.pi / 2)

# every cell with discrete levels, both signs of g, kappa0 != 1 and the deep
# family levels (-106 and -519), each with a box (in the theory's own radius)
# that its lowest levels fit in; the three cells with no discrete spectrum
# (lambda < 0, and lambda = 0 at |m| >= 1) have none to check
_EVERY_CELL = [
    pytest.param(*case, id=name)
    for name, *case in [
        ("osc-m1", ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 9.0),
        ("osc-m2-k0.7", ProblemSpec(Theory.OSCILLATOR, 2, 2.5, 0.7), 7.0),
        ("osc-m0-z0.3", ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.3)), 9.0),
        ("osc-m0-z-0.8", ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(-0.8)), 9.0),
        ("osc-m0-deep-k0.7", ProblemSpec(Theory.OSCILLATOR, 0, 2.5, 0.7, ExtensionParam(1.2)), 5.0),
        ("osc-m0-half-pi", ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, _HALF_PI), 9.0),
        ("osc-m0-free-z0.3", ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(0.3)), 20.0),
        ("osc-m0-free-k0.7", ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 0.7, ExtensionParam(-0.5)), 66.0),
        ("coul-m2", ProblemSpec(Theory.COULOMB, 2, -1.0), 270.0),
        ("coul-m3-k0.5", ProblemSpec(Theory.COULOMB, 3, -0.5, 0.5), 650.0),
        ("coul-m1-z0.35", ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.35)), 180.0),
        ("coul-m1-half-pi", ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, _HALF_PI), 220.0),
        ("coul-m-1-z-1", ProblemSpec(Theory.COULOMB, -1, -1.0, 1.0, ExtensionParam(-1.0)), 160.0),
        ("coul-m1-k0.5", ProblemSpec(Theory.COULOMB, 1, -1.0, 0.5, ExtensionParam(0.35)), 180.0),
        ("coul-m1-repulsive", ProblemSpec(Theory.COULOMB, 1, 1.0, 1.0, ExtensionParam(-0.3)), 25.0),
        ("coul-m0-z0.3", ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(0.3)), 140.0),
        ("coul-m0-half-pi", ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, _HALF_PI), 175.0),
        ("coul-m0-k0.5", ProblemSpec(Theory.COULOMB, 0, -1.0, 0.5, ExtensionParam(0.3)), 140.0),
        ("coul-m0-repulsive", ProblemSpec(Theory.COULOMB, 0, 1.0, 1.0, ExtensionParam(1.0)), 1.1),
    ]
]


@pytest.mark.parametrize("spec, u_max", _EVERY_CELL)
def test_fd_matches_the_closed_form_in_every_cell(spec, u_max):
    # up to 3 levels on 4001 staggered nodes within 1e-3, and the ground
    # level on 64001 within 1e-5, relative to max(1, |E|)
    spectrum = osc_spectrum if spec.theory is Theory.OSCILLATOR else coul_spectrum
    closed = [e for e, _ in spectrum(spec, levels=3).discrete]
    for points, count, tol in ((4001, len(closed), 1e-3), (64001, 1, 1e-5)):
        vals = _fd_quiet(spec, _staggered(u_max, points), count)
        for v, e in zip(vals, closed):
            assert abs(v - e) <= tol * max(1.0, abs(e))


@pytest.mark.parametrize(
    "spec, u_max, fault",
    [
        # a shallow lambda = 0 level, E = -4.6e-4, does not fit the box
        (ProblemSpec(Theory.OSCILLATOR, 0, 0.0, 1.0, ExtensionParam(-1.32)), 15.0, "box too small"),
        # near zeta = pi/2 the level E = -3.4e8 lies inside the first node, so
        # every grid of the cascade misses it alike and Richardson sees nothing
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.08, 1.13, ExtensionParam(1.467)), 15.0,
         "inside the first node"),
        # the cascade observes order 1.5 here: a second-order estimate reads
        # the 5.9e-3 error as 4.0e-3, under the 4.6e-3 threshold, and the
        # observed-order one as 6.7e-3
        (ProblemSpec(Theory.COULOMB, 1, 2.06, 1.04, ExtensionParam(0.66)), 234.0, "grid too coarse"),
    ],
    ids=["box", "inner-node", "observed-order"],
)
def test_verify_grids_that_breach_warn(spec, u_max, fault):
    # radialspec verify's default grid (u_min = 1e-3, 4000 points, the box
    # u <= 15 in both theories) on specs from a seeded sweep
    spectrum = osc_spectrum if spec.theory is Theory.OSCILLATOR else coul_spectrum
    closed = spectrum(spec, levels=3)
    with pytest.warns(GridResolutionWarning, match=fault):
        vals = fd_eigenvalues(spec, GridSpec(1e-3, u_max, 4000), len(closed.discrete))
    assert not compare_spectra(closed, vals, tol=1e-3)["pass"]


# ---------------------------------------------------------------- cascade solve


def _record_solves(monkeypatch):
    """Patch the oracle's eigensolver and the LAPACK factorizations it uses
    to log (routine or select, matrix size) per call, and the refinement to
    log (matrix size, "ok" or "fail")."""
    import scipy.linalg.lapack as lapack

    calls = []
    solve = oracle.eigh_tridiagonal

    def recorded(d, e, **kwargs):
        calls.append((kwargs["select"], len(d)))
        return solve(d, e, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recorded)
    for name in ("dpttrf", "dgttrf"):
        def factor(*args, _name=name, _f=getattr(lapack, name)):
            calls.append((_name, max(len(a) for a in args)))  # the diagonal
            return _f(*args)

        monkeypatch.setattr(lapack, name, factor)
    refine = oracle._refine

    def refined(d, *args):
        vals = refine(d, *args)
        calls.append((len(d), "fail" if vals is None else "ok"))
        return vals

    monkeypatch.setattr(oracle, "_refine", refined)
    return calls


def _by_index(spec, grid, count):
    """The full grid's `count` lowest levels by index at the oracle's index
    tolerance, as every FD solve once found them, and eps ||T||_1."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = _fd_matrix(spec, _fd_nodes(spec, grid, grid.points))
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1),
        tol=oracle._INDEX_TOL,
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
    assert calls == []  # rejected before any solve or factorization


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "spec, grid",
    [
        # pure-power flux path: a unique cell and a family member at zeta = pi/2
        (ProblemSpec(Theory.OSCILLATOR, 1, 1.0), _staggered(9.0, 4001)),
        (ProblemSpec(Theory.COULOMB, 2, -1.0), _staggered(70.0, 4001)),
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), _staggered(40.0, 4001)),
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(math.pi / 2)), _staggered(9.0, 4001)),
        (ProblemSpec(Theory.OSCILLATOR, 1, 1.0), _staggered(9.0, 40001)),
        # ghost-node path, log-mixed family cells, where the levels move far
        # from grid to grid and the predictions are poor
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7)), GridSpec(1e-2, 9.0, 151)),
        (ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(0.35)), GridSpec(1e-3, 40.0, 4001)),
    ],
    ids=["osc-unique", "coul-unique", "coul-m0-half-pi", "osc-m0-half-pi", "osc-unique-40001", "osc-m0-log", "coul-m1-log"],
)
def test_window_solve_matches_the_index_solve(spec, grid, count):
    ref, tol = _by_index(spec, grid, count)
    vals = _fd_quiet(spec, grid, count)
    assert len(vals) == count
    assert np.max(np.abs(np.array(vals) - ref)) <= 4.0 * tol


def test_unwarned_solve_indexes_only_the_coarsest_grid(monkeypatch):
    # a timing-free check that the cascade is really used: 5001 nodes halve to
    # 2501, 1251, 626, 313 and 157 (79 would be under GridSpec's minimum); only
    # the 157-node grid is solved by index, every finer one is refined and
    # certified by one Sturm count
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.COULOMB, 2, -1.0)
    grid = _staggered(70.0, 5001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridResolutionWarning)
        fd_eigenvalues(spec, grid, 2)
    assert [c for c in calls if c[0] == "i"] == [("i", 156)]
    refined = [312, 625, 1250, 2500, 5000]
    assert [c for c in calls if c[0] == "v"] == [("v", n) for n in refined]
    assert [c for c in calls if c[1] == "ok"] == [(n, "ok") for n in refined]
    # two LDL^T factorizations (shift and certificate) and one LU per grid
    for n in refined:
        assert calls.count(("dpttrf", n)) == 2
        assert calls.count(("dgttrf", n)) == 1


def test_grids_whose_certificate_fails_are_solved_to_the_index_tolerance(monkeypatch):
    # Coulomb m = 1 at zeta = pi/2 on 40001 staggered nodes: T is graded
    # towards u = 0 and eps ||T||_1 = 1.4 exceeds the level. With one sweep
    # allowed no residual meets its floor, every certificate fails and each
    # grid is solved by index. dstebz at its default tolerance eps ||T||_1
    # would return -0.052 on the full grid; at the oracle's it returns the
    # level to 1e-9
    from scipy.linalg import eigh_tridiagonal

    calls = _record_solves(monkeypatch)
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 0)
    spec = ProblemSpec(Theory.COULOMB, 1, -1.0, 1.0, ExtensionParam(math.pi / 2))
    grid = _staggered(60.0, 40001)
    vals = _fd_quiet(spec, grid, 1)
    verdicts = [v for _, v in calls if v in ("ok", "fail")]
    indexed = [n for sel, n in calls if sel == "i"]
    assert verdicts == ["fail"] * 8
    assert indexed == [156, 312, 625, 1250, 2500, 5000, 10000, 20000, 40000]
    assert abs(vals[0] + 0.25) < 1e-9
    diag, off = _fd_matrix(spec, _fd_nodes(spec, grid, grid.points))
    default = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    assert abs(default[0] + 0.25) > 0.1


@pytest.mark.parametrize("points, failures", [(201, 0), (4001, 2)])
def test_grids_whose_certificate_fails_are_solved_by_index(monkeypatch, points, failures):
    # log-mixed cell with 16 sweeps allowed per level, its first node fixed at
    # u = 0.05: the cascade's grids keep c = u_min / h, so the first nodes of
    # the coarse grids sit far out and their levels predict the next grid's
    # poorly. The ground level of the 201-node cascade's 200-unknown grid
    # converges within the sweeps, while the 1000- and 2000-unknown grids of
    # the 4001-node cascade run out of them and are indexed. The finer grids
    # refine again from the indexed levels
    calls = _record_solves(monkeypatch)
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 16)
    spec = ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.7))
    grid = GridSpec(0.05, 9.0, points)
    with pytest.warns(GridResolutionWarning):
        vals = fd_eigenvalues(spec, grid, 1)
    verdicts = {n: v for n, v in calls if v in ("ok", "fail")}
    failed = [n for n, v in verdicts.items() if v == "fail"]
    indexed = [n for sel, n in calls if sel == "i"]
    assert len(failed) == failures
    assert indexed == [min(indexed)] + failed
    assert verdicts[points - 1] == "ok"
    ref, tol = _by_index(spec, grid, 1)
    assert abs(vals[0] - ref[0]) <= 4.0 * tol


def test_too_few_coarse_levels_index_both_grids(monkeypatch):
    # 101 nodes: 100 unknowns on the full grid, 50 on the 51-node half grid
    calls = _record_solves(monkeypatch)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    grid = GridSpec(0.04, 8.0, 101)
    vals = _fd_quiet(spec, grid, 60)
    assert calls == [("i", 50), ("i", 100)]
    assert np.array_equal(vals, _by_index(spec, grid, 60)[0])


_OSC = ProblemSpec(Theory.OSCILLATOR, 1, 1.0), _staggered(9.0, 2001)


def _osc_matrix():
    diag, off = _fd_matrix(_OSC[0], _fd_nodes(*_OSC, _OSC[1].points))
    return diag, off, _by_index(*_OSC, 3)[0]


def test_count_rejects_a_skipped_level(monkeypatch):
    # level 1 predicted at lambda_2: its iteration converges to lambda_2, so the
    # intervals are disjoint but the count finds 3 eigenvalues, not 2
    diag, off, exact = _osc_matrix()
    calls = _record_solves(monkeypatch)
    vals = oracle._lowest(diag, off, 2, guess=exact[[0, 2]], spread=np.full(2, 1e-3))
    assert calls == [
        ("dpttrf", 2000), ("dpttrf", 2000), ("dgttrf", 2000), ("v", 2000),
        (2000, "fail"), ("i", 2000),
    ]
    assert np.array_equal(vals, _by_index(*_OSC, 2)[0])


def test_overlapping_intervals_reject_a_level_found_twice(monkeypatch):
    # levels 1 and 2 both predicted at lambda_2: the count up to lambda_2 would
    # find 3, so only the disjointness of the intervals can reject it
    diag, off, exact = _osc_matrix()
    calls = _record_solves(monkeypatch)
    vals = oracle._lowest(diag, off, 3, guess=exact[[0, 2, 2]], spread=np.full(3, 1e-3))
    assert calls == [
        ("dpttrf", 2000), ("dpttrf", 2000), ("dgttrf", 2000), ("dgttrf", 2000),
        (2000, "fail"), ("i", 2000),
    ]
    assert np.array_equal(vals, exact)


def test_ground_shift_above_the_level_steps_down(monkeypatch):
    # sigma halfway to lambda_1: the LDL^T factorization fails until sigma has
    # stepped below lambda_0, and the iteration then finds lambda_0
    diag, off, exact = _osc_matrix()
    calls = _record_solves(monkeypatch)
    import scipy.linalg.lapack as lapack

    infos = []
    factor = lapack.dpttrf

    def logged(d, e):
        out = factor(d, e)
        infos.append(out[2])
        return out

    monkeypatch.setattr(lapack, "dpttrf", logged)
    mid = 0.5 * (exact[0] + exact[1])
    vals = oracle._lowest(diag, off, 1, guess=np.array([mid]), spread=np.array([0.1]))
    assert infos[0] > 0 and infos[-2:] == [0, 0]
    assert all(info > 0 for info in infos[:-2])
    assert calls[-1] == (2000, "ok")
    tol = np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
    assert abs(vals[0] - exact[0]) <= 4.0 * tol


def test_slow_ground_iteration_moves_its_shift_up(monkeypatch):
    # sigma = lambda_0 - 20 with lambda_1 - lambda_0 = 4: each sweep cuts the
    # residual by only 20/24, so a fixed shift would need about 150 sweeps
    # and the grid would be indexed. A sweep that cuts the residual by less
    # than 3 moves sigma up to theta - r - slack, proved by one more LDL^T:
    # twice here, to lambda_0 - 3.8 and lambda_0 - 0.15, and 12 sweeps in all
    import scipy.linalg.lapack as lapack

    diag, off, exact = _osc_matrix()
    calls = _record_solves(monkeypatch)
    sweeps = []
    solve = lapack.dpttrs
    monkeypatch.setattr(lapack, "dpttrs", lambda *a: sweeps.append(1) or solve(*a))
    vals = oracle._lowest(diag, off, 1, guess=exact[:1], spread=np.array([20.0]))
    factorizations = calls.count(("dpttrf", 2000))
    assert calls[-1] == (2000, "ok") and ("i", 2000) not in calls
    assert factorizations == 4 and len(sweeps) < 15
    tol = np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max())
    assert abs(vals[0] - exact[0]) <= 4.0 * tol


def _richardson_estimate(monkeypatch, spec, grid):
    """The solve's own ground-level Richardson estimate, read from the
    warning it emits once the threshold is zero."""
    monkeypatch.setattr(oracle, "_WARN_REL", 0.0)
    with pytest.warns(GridResolutionWarning) as caught:
        vals = fd_eigenvalues(spec, grid, 1)
    return vals[0], float(str(caught[0].message).rsplit(" ", 1)[1])


@pytest.mark.parametrize(
    "spec, u_max, closed",
    [
        (ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2)), 60.0, -1.0),
        (ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(math.pi / 2)), 15.0, 2.0),
    ],
    ids=["coul-m0-half-pi", "osc-m0-half-pi"],
)
@pytest.mark.parametrize("points", [4000, 4001])
def test_richardson_half_grid_stays_staggered(monkeypatch, spec, u_max, closed, points):
    # taking every other node broke the staggering (and, at an even count,
    # ended the half grid at u_max - h): the estimate was 190x the true
    # error in the Coulomb cell and a third of it in the oscillator cell
    value, estimate = _richardson_estimate(monkeypatch, spec, _staggered(u_max, points))
    error = abs(value - closed)
    assert error / 2.0 <= estimate <= 2.0 * error


def test_accurate_staggered_solve_does_not_warn():
    # the CLI's verify grid for Coulomb m = 0 at zeta = pi/2 (4000 points):
    # its true ground error is 5.6e-5, under the 1e-3 threshold
    spec = ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, ExtensionParam(math.pi / 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridResolutionWarning)
        vals = fd_eigenvalues(spec, GridSpec(0.0075009376172021505, 60.0, 4000), 2)
    assert abs(vals[0] + 1.0) < 1e-4


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
    "spec, closed",
    [
        pytest.param(ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 4.0, id="osc-m1"),
        pytest.param(ProblemSpec(Theory.COULOMB, 2, -1.0), -1.0 / 9.0, id="coul-m2"),
        # at m = 0 the u^(1/2) ln u channel differs in log-derivative by only
        # 1/(u ln u): the start holds 1e-9 because it sums the whole series
        pytest.param(ProblemSpec(Theory.COULOMB, 0, -1.0, 1.0, _HALF_PI), -1.0, id="coul-m0-half-pi"),
    ],
)
def test_shoot_pure_power_matches_closed_form(spec, closed):
    e = shoot_eigenvalue(spec, _bracket(closed))
    assert abs(e - closed) < 1e-9 * abs(closed)


def _spectrum(spec, levels):
    spectrum = osc_spectrum if spec.theory is Theory.OSCILLATOR else coul_spectrum
    return [e for e, _ in spectrum(spec, levels=levels).discrete]


def _closed_and_bracket(spec, level=0):
    """Level `level` and a bracket around it: 0.4 of the gap to each
    neighbour (the one neighbour's gap either side at the ends of the
    ladder), or 0.1 |E| for a lone level."""
    levels = _spectrum(spec, level + 2)
    e = levels[level]
    below = e - levels[level - 1] if level else None
    above = levels[level + 1] - e if level + 1 < len(levels) else None
    below, above = below or above or 0.25 * abs(e), above or below or 0.25 * abs(e)
    return e, (e - 0.4 * below, e + 0.4 * above)


# the ground level of every cell, level 3 in every cell that has one, and
# level 10 of two oscillator ladders
_EVERY_SHOT = [pytest.param(case.values[0], 0, id=case.id) for case in _EVERY_CELL]
_EVERY_SHOT += [
    pytest.param(case.values[0], 3, id=f"{case.id}-level3")
    for case in _EVERY_SHOT
    if len(_spectrum(case.values[0], 4)) == 4
] + [
    pytest.param(ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 10, id="osc-m1-level10"),
    pytest.param(ProblemSpec(Theory.OSCILLATOR, 0, 1.0, 1.0, ExtensionParam(0.3)), 10,
                 id="osc-m0-z0.3-level10"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, level", _EVERY_SHOT)
def test_shoot_matches_the_closed_form_in_every_cell(spec, level):
    # the Frobenius series is exact to rounding at the match radius, so every
    # cell shoots within 1e-9 relative to max(1, |E|) in the default box,
    # excited levels, whose solutions oscillate inside u_s, too. That
    # includes the deep repulsive Coulomb level (-519), which missed its
    # tolerance in x <= 20 when the shot started at u = 1e-6 and ran outwards
    # in x. No RuntimeWarning either
    closed, bracket = _closed_and_bracket(spec, level)
    e = shoot_eigenvalue(spec, bracket)
    assert abs(e - closed) <= 1e-9 * max(1.0, abs(closed))


def _coefficients(spec):
    """(V, B) of -phi'' + (V - E B) phi = 0 in u, from _equation."""
    (a0, a2, b0, b2), m2 = _equation(spec), spec.m * spec.m - 0.25
    return (lambda u: m2 / (u * u) + a0 + a2 * u * u), (lambda u: b0 + b2 * u * u)


def _magnus_step(vpot, weight, E, a, b, y0):
    """(phi, phi')(b) / max|.| from (phi, phi')(a) = y0: _magnus on 1024 and
    2048 cells and one Richardson step, as shooting takes it."""
    ys = _magnus(vpot, weight, a, b, 1024)(E) @ y0
    coarse, fine = ys / np.abs(ys).max(axis=1, keepdims=True)
    y = fine + (fine - coarse) / 15.0
    return y / np.abs(y).max()


def _dop853(q, edges, y0, atol=1e-300):
    """(phi, phi') at edges[-1] / max|.| for phi'' = q phi, by solve_ivp's
    DOP853 from edges[0] at rtol 1e-12, renormalised at every edge."""
    from scipy.integrate import solve_ivp

    y = np.array(y0, dtype=float)
    for a, b in zip(edges[:-1], edges[1:]):
        y = solve_ivp(
            lambda u, y: [y[1], q(u) * y[0]], (a, b), y,
            method="DOP853", rtol=1e-12, atol=atol,
        ).y[:, -1]
        y = y / np.abs(y).max()
    return y


@pytest.mark.parametrize(
    "spec, E, a, b",
    [
        (ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 5.0, 6.0, 2.0),
        # the weight 4 kappa0^2 u^2 of the Coulomb equation in u
        (ProblemSpec(Theory.COULOMB, 2, -1.0), -0.2, 6.0, 1.0),
    ],
    ids=["inward", "inward-coulomb"],
)
def test_propagator_starts_from_an_exact_zero_component(spec, E, a, b):
    vpot, weight = _coefficients(spec)
    got = _magnus_step(vpot, weight, E, a, b, [1.0, 0.0])
    ref = _dop853(lambda u: vpot(u) - E * weight(u), [a, b], [1.0, 0.0], atol=1e-14)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_shoot_capped_refinement_raises(monkeypatch):
    # 16 and 32 cells a span miss the root tolerance 1e-10 max(1, |E|) at the
    # bracket (3.6, 4.4) by orders of magnitude, and no doubling is allowed
    monkeypatch.setattr("radialspec.oracle._CELLS", 16)
    monkeypatch.setattr("radialspec.oracle._MAX_DOUBLINGS", 0)
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError, match=r"missed its tolerance 3\.6e-10 at 32 cells"):
        shoot_eigenvalue(spec, _bracket(4.0))


@pytest.mark.parametrize(
    "vpot, E, edges, y0",
    [
        # inward through the oscillator barrier: the solution grows by ~e^800
        (_coefficients(ProblemSpec(Theory.OSCILLATOR, 1, 1.0))[0], 5.0, np.linspace(40.0, 2.0, 39),
         [1.0, -math.sqrt(40.0**2 + 0.75 / 40.0**2 - 5.0)]),
        # E > V on (2, 4), cos/sin cells; q = V - E vanishes identically on
        # (1, 2), where every cell has s^2 = 0 exactly
        (lambda u: np.where(u < 2.0, 3.0, 3.0 - (u - 2.0) ** 2), 3.0, [4.0, 3.0, 2.0, 1.0],
         [0.3, -1.0]),
    ],
    ids=["barrier_e800", "allowed_and_flat"],
)
def test_propagator_is_robust(vpot, E, edges, y0):
    got = _magnus_step(vpot, lambda u: 1.0 + 0.0 * u, E, edges[0], edges[-1], y0)
    assert np.all(np.isfinite(got)) and np.abs(got).max() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(got - _dop853(lambda u: vpot(u) - E, edges, y0))) < 1e-8


# one seeded spec from each shooting cell of the benchmark's oracle workload,
# with an explicit u_max, and the shot of the former shooting integrator
# (scipy.integrate.ode's DOP853 at rtol 1e-10)
_BENCH_SHOTS = [
    (ProblemSpec(Theory.OSCILLATOR, 1, 0.9536424064899396), 7.0, 3.90618464795321),
    (ProblemSpec(Theory.OSCILLATOR, 0, 1.0037040189323811, 1.0, ExtensionParam(0.3439028378692276)),
     7.0, -2.3593212461458832),
    (ProblemSpec(Theory.COULOMB, 1, -1.0122917303879742, 1.0, ExtensionParam(0.2641986109691542)),
     30.0, -1.0205711564557398),
    (ProblemSpec(Theory.COULOMB, 2, -0.9997526335916767), 100.0, -0.11105614759653312),
]
_BENCH_IDS = ["osc_m1_power", "osc_m0_log", "coul_m1_log", "coul_m2_power"]


def _reference_mismatch(spec, E, u_max):
    """The shooting matching function's sign from chunked DOP853 solves in u
    (_equation) at rtol 1e-12: the decaying solution carried inwards from
    the box edge to u = 0.25, half the shot's match radius, against the
    Frobenius series there."""
    vpot, weight = _coefficients(spec)
    q = lambda u: vpot(u) - E * weight(u)  # noqa: E731
    big_u = u_max if spec.theory is Theory.OSCILLATOR else math.sqrt(u_max / spec.kappa0)
    f, du_f = _frobenius(spec, E, 0.25)
    inn = _dop853(q, np.geomspace(big_u, 0.25, 25), [1.0, -math.sqrt(max(q(big_u), 1e-12))])
    return f * inn[1] - du_f / 0.25 * inn[0]


@pytest.mark.parametrize("spec, u_max, dop853_shot", _BENCH_SHOTS, ids=_BENCH_IDS)
def test_shot_accuracy_in_the_bench_cells(spec, u_max, dop853_shot):
    closed, bracket = _closed_and_bracket(spec)
    scale = max(1.0, abs(closed))
    e = shoot_eigenvalue(spec, bracket, u_max=u_max)
    if spec.extension is None:  # pure power: the start is exact
        assert abs(e - closed) <= 1e-10 * scale
        return
    # log-mixed cells: the same shooting problem solved tightly has its
    # matching function change sign within 1e-10 of the shot, and the shot
    # is the closed form to 1e-9. The first-order Coulomb start held the
    # DOP853 shot 6e-6 off it
    step = 1e-10 * scale
    assert _reference_mismatch(spec, e - step, u_max) * _reference_mismatch(
        spec, e + step, u_max) < 0
    if spec.theory is Theory.OSCILLATOR:
        assert abs(e - closed) <= abs(dop853_shot - closed) + 1e-10 * scale
    assert abs(e - closed) <= 1e-9 * scale


def _record_cells(monkeypatch):
    """Patch _magnus to log the coarse cell count of each mesh pair."""
    cells = []
    magnus = oracle._magnus
    monkeypatch.setattr(oracle, "_magnus", lambda *args: cells.append(args[-1]) or magnus(*args))
    return cells


@pytest.mark.parametrize("spec, u_max, dop853_shot", _BENCH_SHOTS, ids=_BENCH_IDS)
def test_shot_error_estimate_bounds_a_finer_solve(monkeypatch, spec, u_max, dop853_shot):
    _, bracket = _closed_and_bracket(spec)
    cells = _record_cells(monkeypatch)
    # from 32 cells a span, where the first meshes are far off, the shot
    # refines until the estimate passes; a solve on meshes four times finer
    # than the accepted ones, with no refinement allowed, lands within it
    monkeypatch.setattr(oracle, "_CELLS", 32)
    e = shoot_eigenvalue(spec, bracket, u_max=u_max)
    assert len(set(cells)) > 1
    monkeypatch.setattr(oracle, "_CELLS", 4 * cells[-1])
    monkeypatch.setattr(oracle, "_MAX_DOUBLINGS", 0)
    assert abs(shoot_eigenvalue(spec, bracket, u_max=u_max) - e) <= 1e-10 * max(1.0, abs(e))


def test_bench_log_mixed_oscillator_shot_is_not_over_refined(monkeypatch):
    # its bracket spans E = 0, so its tolerance is 1e-10 absolute; the shot
    # from u = 1e-6 needed 2048 cells in the benchmark's default box
    spec = _BENCH_SHOTS[1][0]
    _, bracket = _closed_and_bracket(spec)
    cells = _record_cells(monkeypatch)
    shoot_eigenvalue(spec, bracket)
    assert 2 * cells[-1] <= 512


# A fresh interpreter reports NumPy and SciPy as the import left them, then
# makes the first call of each lazily bound path (oracle's NumPy, specfun's
# scipy.special: the first call goes through the stand-in, later ones reach
# the module) and reports the values and which modules were loaded by then
_SHOOT_PROBE = """
import json, sys
WATCH = ("numpy", "scipy.special", "scipy.linalg", "scipy.integrate")
loaded = lambda: [m for m in WATCH if m in sys.modules]
from radialspec import GridSpec, ProblemSpec, Theory, oracle, specfun
out = {"import": loaded()}
spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
out["fd"] = oracle.fd_eigenvalues(spec, GridSpec(*json.loads(sys.argv[1])), 2)
out["shot"] = oracle.shoot_eigenvalue(spec, (3.6, 4.4))
out["oracle"] = loaded()
j, psi = specfun.bessel("J", 1, 2.5 + 0.5j), specfun.digamma(0.7)
out["special"] = [j.real, j.imag, psi.real, psi.imag]
out["loaded"] = loaded()
out["rebound"] = [oracle.np is sys.modules["numpy"], specfun._sp is sys.modules["scipy.special"]]
print(json.dumps(out))
"""


def test_shooting_does_not_load_scipy_integrate(fresh_python):
    grid = _staggered(9.0, 1000)
    args = json.dumps([grid.u_min, grid.u_max, grid.points])
    out = json.loads(fresh_python("-c", _SHOOT_PROBE, args))
    assert out.pop("import") == []
    assert out.pop("oracle") == ["numpy", "scipy.linalg"]
    assert out.pop("loaded") == ["numpy", "scipy.special", "scipy.linalg"]
    assert out.pop("rebound") == [True, True]
    # the first calls return what this warm process does, bit for bit
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    j, psi = bessel("J", 1, 2.5 + 0.5j), digamma(0.7)
    assert out == {
        "fd": fd_eigenvalues(spec, grid, 2),
        "shot": shoot_eigenvalue(spec, (3.6, 4.4)),
        "special": [j.real, j.imag, psi.real, psi.imag],
    }
    # the index tolerance is NumPy's, without NumPy at import
    assert oracle._INDEX_TOL == np.finfo(float).tiny


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "u_max",
    [0.0, -1.0, float("nan"), math.inf, -math.inf],
    ids=["zero", "negative", "nan", "inf", "negative_inf"],
)
def test_shoot_rejects_bad_radii(u_max):
    for spec, closed in ((ProblemSpec(Theory.OSCILLATOR, 1, 1.0), 4.0),
                         (ProblemSpec(Theory.COULOMB, 2, -1.0), -1.0 / 9.0)):
        with pytest.raises(ValidationError, match="finite u_max > 0"):
            shoot_eigenvalue(spec, _bracket(closed), u_max=u_max)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shoot_rejects_empty_bracket():
    spec = ProblemSpec(Theory.OSCILLATOR, 1, 1.0)
    with pytest.raises(ValidationError, match="no sign change"):
        shoot_eigenvalue(spec, (5.0, 7.0))  # no level between 4 and 8
    for bracket in [(7.0, 5.0), (-math.inf, 5.0), (3.6, math.inf), (float("nan"), 5.0)]:
        with pytest.raises(ValidationError, match="bracket must be finite"):
            shoot_eigenvalue(spec, bracket)


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
