"""Independent numerical verification of the closed-form spectra.

Both radial equations are one in the dual variable u = sqrt(x / kappa0)
(_equation). A finite-volume eigensolver (a symmetric tridiagonal pencil)
solves both in u, and a shooting solver on a fourth-order Magnus propagator
each in its own radius. The extension families enter through one Frobenius
start in u (_frobenius), summed at the energy at hand: its flux is the inner
row of the finite volumes, and it starts the shots.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from . import specfun as sf
from .core import (
    ProblemSpec,
    SpectralMeasure,
    Theory,
    ValidationError,
    brentq,
    classify,
)

__all__ = [
    "GridSpec",
    "GridResolutionWarning",
    "fd_eigenvalues",
    "shoot_eigenvalue",
    "compare_spectra",
]

# NumPy loads on the first solve, not on import: the closed forms never use it
np = sf._LazyModule("numpy", globals(), "np")


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, **kwargs) -> np.ndarray:
    """scipy.linalg.eigh_tridiagonal, imported on the first call like NumPy
    itself: importing radialspec loads neither."""
    from scipy.linalg import eigh_tridiagonal as eigh

    return eigh(d, e, **kwargs)


# GridSpec's fewest points; the FD cascade halves its grids down to this
_MIN_POINTS = 100


class GridResolutionWarning(UserWarning):
    """The grid cannot resolve the requested levels to 1e-3 relative: it is
    too coarse, its box too short, or its first node too far out."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid in the theory's own radius (u for the oscillator, x for
    the Coulomb problem) with a Dirichlet edge at u_max. fd_eigenvalues
    solves both theories in u = sqrt(x / kappa0): a Coulomb grid becomes the
    uniform u grid of as many points that ends at sqrt(u_max / kappa0) and
    keeps the first node's offset c = u_min / h in its own spacing."""

    u_min: float
    u_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0 < self.u_min < self.u_max):
            raise ValidationError("need 0 < u_min < u_max")
        if self.points < _MIN_POINTS:
            raise ValidationError(f"need at least {_MIN_POINTS} grid points")


def _potential(spec: ProblemSpec):
    """V(r) in the theory's own radius, which the shots propagate in,
    elementwise: takes a float or an array of radii."""
    m2 = spec.m * spec.m
    if spec.theory is Theory.OSCILLATOR:
        lam = spec.coupling
        return lambda u: (m2 - 0.25) / (u * u) + lam * u * u
    g = spec.coupling
    return lambda x: (m2 - 1.0) / (4.0 * x * x) + g / x


def _equation(spec: ProblemSpec) -> tuple[float, float, float, float]:
    """(a0, a2, b0, b2) of -phi'' + ((m^2 - 1/4)/u^2 + a0 + a2 u^2) phi =
    E (b0 + b2 u^2) phi, the radial equation of either theory in u.

    The oscillator's is -phi'' + ((m^2 - 1/4)/u^2 + lambda u^2) phi = W phi
    in u itself. For the Coulomb -psi'' + ((m^2 - 1)/(4 x^2) + g/x) psi =
    E psi, put x = kappa0 u^2 and psi = u^(1/2) phi: d/dx = d/du / (2 kappa0 u)
    gives psi_xx = u^(1/2) (phi'' - 3/4 phi / u^2) / (4 kappa0^2 u^2), and
    multiplying by -4 kappa0^2 u^(3/2) leaves -phi'' + ((m^2 - 1/4)/u^2 +
    4 kappa0 g) phi = 4 kappa0^2 E u^2 phi. With phi = u^p chi, p = 1/2 +- |m|
    (so p (p - 1) = m^2 - 1/4) and w = u^(2p), it is the flux form
        -(w chi')' + (a0 + a2 u^2) w chi = E (b0 + b2 u^2) w chi.
    Pure-power channels take p = 1/2 + |m| (chi regular, zero flux at u = 0),
    log-mixed ones p = 1/2 - |m| (both channels enter (chi, w chi') at O(1))."""
    if spec.theory is Theory.OSCILLATOR:
        return 0.0, spec.coupling, 1.0, 0.0
    k0 = spec.kappa0
    return 4.0 * k0 * spec.coupling, 0.0, 0.0, 4.0 * k0 * k0


def _mixing(spec: ProblemSpec) -> tuple[float, float]:
    """(A, B): the extension selects A phi_log + B phi_+ (_frobenius); A = 0
    in the pure-power channels (unique cells, and zeta = pi/2 in a family).
    Else the paper's boundary conditions fix the ratio: phi ~ u^(1/2) (sin
    zeta + cos zeta ln kappa0 u) at m = 0 in both theories, and at |m| = 1
    the Coulomb psi ~ kappa0 x sin zeta + cos zeta (1 + g x (ln kappa0 x +
    2 gamma - 1)), whose channels x and 1 + g x ln x are kappa0 u^(1/2) phi_+
    and u^(1/2) (phi_log + kappa0 g ln kappa0 phi_+)."""
    classify(spec)  # enforces the extension rules
    if spec.extension is None or spec.extension.is_half_pi:
        return 0.0, 1.0
    s, c, k0 = math.sin(spec.zeta), math.cos(spec.zeta), spec.kappa0
    if spec.m == 0:
        return c, s + c * math.log(k0)
    return c, k0 * (k0 * s + c * spec.coupling * (2.0 * math.log(k0) + 2.0 * sf.EULER_GAMMA - 1.0))


_FROBENIUS_TERMS = 400  # a start that needs more raises
_EPS = sys.float_info.epsilon


def _frobenius(spec: ProblemSpec, E: complex, u: float, nu: float = 0.0) -> tuple[complex, complex]:
    """(f, u f') at u for f = u^nu phi, phi the solution the extension
    selects at energy E, summed termwise in t = u^2 (nu shifts each exponent,
    so no leading power cancels in u f'). With n = |m|, alpha = a0 - E b0 and
    beta = a2 - E b2 from _equation,
        phi_+ = u^(1/2 + n) sum c_k t^k,  4k (k + n) c_k = alpha c_(k-1) + beta c_(k-2),
    c_0 = 1, and in the family cells (n = 0 or 1) the log channel
        phi_log = C ln(u) phi_+ + u^(1/2 - n) sum d_k t^k,
        4k (k - n) d_k = alpha d_(k-1) + beta d_(k-2) - C (4k - 2n) c_(k-n),
    d_n = 0, C = 1 and d_0 = 0 at n = 0, d_0 = 1 and C = alpha / 2 at n = 1;
    phi = A phi_log + B phi_+ (_mixing). E may be complex."""
    (a0, a2, b0, b2), (mix, plus) = _equation(spec), _mixing(spec)
    al, be, n, t = a0 - E * b0, a2 - E * b2, abs(spec.m), u * u
    big_c = 0.5 * al if n else 1.0
    # the terms c_k t^k and d_k t^k, and the sums of c_k t^k, k c_k t^k, d_k t^k, ...
    c, c_prev, d, d_prev = 1.0, 0.0, (float(n) if mix else 0.0), 0.0
    s_c, s_ck, s_d, s_dk, al_t, be_t2 = 1.0, 0.0, d, 0.0, al * t, be * t * t
    for k in range(1, _FROBENIUS_TERMS):
        c_new, d_new = (al_t * c + be_t2 * c_prev) / (4 * k * (k + n)), 0.0
        if mix and k != n:
            c_kn = c * t if n else c_new  # c_(k-n) t^k
            d_new = (al_t * d + be_t2 * d_prev - big_c * (4 * k - 2 * n) * c_kn) / (4 * k * (k - n))
        c_prev, c, d_prev, d = c, c_new, d, d_new
        s_c, s_ck, s_d, s_dk = s_c + c, s_ck + k * c, s_d + d, s_dk + k * d
        # two terms in a row, so that a zero c_k or d_k ends no sum; an
        # overflowed sum ends none
        if abs(c) + abs(c_prev) + abs(d) + abs(d_prev) <= _EPS * (abs(s_c) + abs(s_d)) < math.inf:
            break
    else:
        raise ValidationError(f"the Frobenius start did not converge at u = {u:.3g}")
    hi, lo = 0.5 + n + nu, 0.5 - n + nu  # the channels' exponents in f
    f_p, du_p = u**hi * s_c, u**hi * (hi * s_c + 2.0 * s_ck)
    f, du = plus * f_p, plus * du_p
    if mix:
        ln_u = math.log(u)
        f += mix * (big_c * ln_u * f_p + u**lo * s_d)
        du += mix * (big_c * (f_p + ln_u * du_p) + u**lo * (lo * s_d + 2.0 * s_dk))
    return f, du


def _fd_nodes(spec: ProblemSpec, grid: GridSpec, points: int) -> np.ndarray:
    """`points` uniform u nodes ending at the grid's edge in u, the first node
    keeping the grid's offset c = u_min / h in its own spacing."""
    c = grid.u_min * (grid.points - 1) / (grid.u_max - grid.u_min)
    u_max = grid.u_max
    if spec.theory is Theory.COULOMB:
        u_max = math.sqrt(u_max / spec.kappa0)
    return np.linspace(c * u_max / (points - 1 + c), u_max, points)


def _power_integral(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integral of u^k from a to b for k = -1, 1 or 3, in factored form:
    no b^(k+1) - a^(k+1) cancellation."""
    if k == -1:
        return np.log1p((b - a) / a)
    s = (b - a) * (b + a) / (k + 1)
    return s if k == 1 else s * (b * b + a * a)


def _odd_power(x: np.ndarray, k: int) -> np.ndarray:
    """x^k for odd k >= 1 as a product of k copies of x: no pow."""
    out = x.copy()
    for _ in range(k - 1):
        out *= x
    return out


def _fd_matrix(spec: ProblemSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of T = M^(-1/2) K M^(-1/2) for the finite
    volumes K - E M of the flux form on the uniform u nodes, one unknown per
    node but the last, a Dirichlet node. Cell i spans the midpoints next to
    u_i; K holds the faces and the a0 + a2 u^2 term, M the b0 + b2 u^2 term.

    Pure-power channels take midpoint faces w((u_i + u_(i+1))/2)/h and node
    masses w(u_i) h, which keep staggered grids superconvergent, and zero
    flux at u = 0. Log-mixed channels take exact integrals (the face
    1/int u^(-2p), the cells int w and int u^2 w), and the flux R(E) chi_0
    of the Frobenius start at u_0, R = w (ln chi)': R(0) goes into K and its
    exact slope R'(0), by a complex step, off the first cell's mass (about
    the mass of (0, u_0)), so the pencil stays linear in E. No weight needs
    a pow. The arrays are updated in place: on fine grids, allocating them
    costs more than the arithmetic."""
    a0, a2, b0, b2 = _equation(spec)
    pure = not _mixing(spec)[0]
    p = 0.5 + abs(spec.m) if pure else 0.5 - abs(spec.m)
    n2p = round(2.0 * p)
    v, h = u[:-1], u[1] - u[0]
    mid = v + u[1:]
    mid *= 0.5
    if pure:
        face = _odd_power(mid, n2p)
        face /= h
        int_w = _odd_power(v, n2p)
        int_w *= h
        int_u2w = int_w * v
        int_u2w *= v
    else:
        face = 1.0 / _power_integral(-n2p, v, u[1:])
        a, b = np.concatenate([u[:1], mid[:-1]]), mid
        int_w, int_u2w = _power_integral(n2p, a, b), _power_integral(n2p + 2, a, b)
    # a0 + a2 u^2 and b0 + b2 u^2 are single, different powers of u in either
    # theory, so K and M each scale one of the two integrals
    k, mass = (int_w, int_u2w) if b2 else (int_u2w, int_w)
    k *= a0 + a2
    mass *= b0 + b2
    if not pure:
        u0, step = float(u[0]), 1e-20  # a complex step: R(i s) = R(0) + i s R'(0)
        chi, du_chi = _frobenius(spec, 1j * step, u0, -p)
        flux = du_chi / chi * u0 ** (n2p - 1)  # R = w chi'/chi at u_0
        k[0] += flux.real
        mass[0] -= flux.imag / step
    k += face  # the last face reaches the Dirichlet node
    k[1:] += face[:-1]
    k /= mass
    off = mass[:-1] * mass[1:]
    np.sqrt(off, out=off)
    np.divide(face[:-1], off, out=off)
    return k, np.negative(off, out=off)


# GridResolutionWarning fires when the Richardson estimate of the ground-level
# error exceeds this, relative to max(1, |E|)
_WARN_REL = 1e-3
# inverse-iteration sweeps allowed per level before a grid is solved by index
_MAX_SWEEPS = 30
# the certificates widen each residual bound by this many times the rounding
# floor that a factorization, a solve or a Sturm count may carry
_SLACK = 4.0
# dstebz's absolute tolerance for index solves. Its default eps ||T||_1 is
# useless on T graded towards u = 0 (a Coulomb T in u has ||T||_1 ~ h^-4):
# bisection then stops at the relative accuracy of its Sturm counts
_INDEX_TOL = sys.float_info.min  # np.finfo(float).tiny


def _refine(
    diag: np.ndarray, off: np.ndarray, guess: np.ndarray, spread: np.ndarray
) -> np.ndarray | None:
    """The lowest len(guess) eigenvalues of the tridiagonal (diag, off), by
    shift-invert iteration from the estimates `guess` (uncertainty `spread`);
    None when a certificate fails.

    Each level iterates until its residual r is within the rounding floor
    eps min(||T||_1, _SLACK || |T| |y| || / ||y||) of its iterate y: on a T
    graded towards u = 0, eps ||T||_1 can exceed the level itself, while the
    componentwise term sees only where the level lives. Level 0 iterates
    with the LDL^T factorization of T - sigma, sigma = guess - spread,
    lowered in doubling steps until the factorization exists: it proves
    lambda_0 > sigma, so the iteration finds lambda_0. A sweep that cuts r
    by less than 3 moves sigma up to theta - r - slack if the factorization
    there exists, proving it still below lambda_0. A second factorization at
    theta - r - slack proves that nothing lies below the level's residual
    interval. Higher levels iterate with the LU factorization at their
    estimates. Their residual intervals must be disjoint and increasing, and
    a Sturm count must find exactly len(guess) eigenvalues from the ground
    bound to the top interval's end: then the intervals hold the lowest
    levels, one each."""
    from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

    eps = np.finfo(float).eps
    abs_d, abs_e = np.abs(diag), np.abs(off)
    tnorm = abs_d.max() + 2.0 * abs_e.max()  # >= ||T||_1
    x0 = np.full(len(diag), 1.0 / math.sqrt(len(diag)))

    def floor(y: np.ndarray, norm: float) -> float:  # y's rounding floor, above
        ay = np.abs(y)
        ty = abs_d * ay
        ty[:-1] += abs_e * ay[1:]
        ty[1:] += abs_e * ay[:-1]
        return eps * min(tnorm, _SLACK * math.sqrt(ty @ ty) / norm)

    def ldl(shift: float):
        """Solves with T - shift by its LDL^T factorization; None when that
        does not exist, so some eigenvalue lies at or below shift."""
        ldl_d, ldl_e, info = dpttrf(diag - shift, off)
        return None if info else lambda x: dpttrs(ldl_d, ldl_e, x)[0]

    def iterate(solve, sigma: float, reshift=None) -> tuple[float, float] | None:
        """(theta, r + slack) once r is within its floor, in _MAX_SWEEPS;
        `reshift` moves the shift of slow sweeps (above)."""
        x, tol, r_last = x0, eps * tnorm, math.inf
        for _ in range(_MAX_SWEEPS):
            y = solve(x)
            norm = math.sqrt(y @ y)
            mu = (x @ y) / (norm * norm)
            r = np.linalg.norm(x - mu * y) / norm
            # an earlier iterate's floor screens the sweeps; the accepted
            # iterate's own floor decides
            if r <= tol and r <= (tol := floor(y, norm)):
                return sigma + mu, r + _SLACK * tol
            x = y / norm
            if reshift is not None and 3.0 * r > r_last:
                shift = sigma + mu - r - _SLACK * floor(y, norm)
                if shift > sigma and (moved := reshift(shift)) is not None:
                    solve, sigma = moved, shift
            r_last = r
        return None

    sigma = guess[0] - spread[0]
    step = max(spread[0], 1e-12 * (1.0 + abs(guess[0])))
    while (solve := ldl(sigma)) is None:
        if not sigma >= -tnorm:  # no eigenvalue lies below -||T||: T is not finite
            return None
        sigma, step = sigma - step, 2.0 * step
    level = iterate(solve, sigma, ldl)
    if level is None:
        return None
    floor_0 = level[0] - level[1]
    if ldl(floor_0) is None:
        return None
    thetas, top = [level[0]], level[0] + level[1]
    for g in guess[1:]:
        *lu, info = dgttrf(off, diag - g, off)
        if info:
            return None
        level = iterate(lambda x: dgttrs(*lu, x)[0], g)
        if level is None or level[0] - level[1] <= top:
            return None
        thetas.append(level[0])
        top = level[0] + level[1]
    # the count's tolerance is its whole range: it bisects nothing
    if len(thetas) > 1 and eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(floor_0, top),
        tol=top - floor_0,
    ).size != len(thetas):
        return None
    return np.array(thetas)


def _lowest(
    diag: np.ndarray,
    off: np.ndarray,
    count: int,
    guess: np.ndarray | None = None,
    spread: np.ndarray | None = None,
) -> np.ndarray:
    """The `count` lowest eigenvalues of the tridiagonal (diag, off): refined
    from `guess` when it estimates every level and the certificates hold,
    otherwise found by index (dstebz, absolute tolerance _INDEX_TOL)."""
    if guess is not None and len(guess) == count:
        vals = _refine(diag, off, guess, spread)
        if vals is not None:
            return vals
    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1),
        tol=_INDEX_TOL,
    )


def _predict(solved: list[np.ndarray]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(estimate, uncertainty) of the next finer grid's levels from the
    levels of the grids below it, finest last. With two grids, Richardson
    E_2h + (E_2h - E_4h)/4 within |E_2h - E_4h|; a level the grid below
    does not have, or a single grid, gets E_2h within the warning threshold,
    relative to max(1, |E|)."""
    if not solved:
        return None, None
    fine = solved[-1]
    guess = fine.copy()
    spread = _WARN_REL * np.maximum(1.0, np.abs(fine))
    if len(solved) > 1:
        k = min(len(fine), len(solved[-2]))
        step = fine[:k] - solved[-2][:k]
        guess[:k] += step / 4.0
        spread[:k] = np.abs(step)
    return guess, spread


def fd_eigenvalues(spec: ProblemSpec, grid: GridSpec, count: int) -> list[float]:
    """Lowest `count` eigenvalues of the discretized operator, sorted ascending.

    Both theories are discretized by one finite-volume scheme in u
    (_fd_matrix), with a Dirichlet edge at the grid's end; GridSpec says how
    a Coulomb grid maps to u. The levels are solved on a cascade of similar
    grids: the output grid, its half grid with (points + 1) // 2 nodes, and
    so on down to the coarsest with at least 100 nodes (the half grid is
    always solved). Each keeps the first node's offset c = u_min / h,
    u_min' = c u_max / (points' - 1 + c), so a staggered grid stays
    staggered. Only the coarsest grid is solved by index (dstebz). Each finer
    grid refines the levels the grids below it predict and certifies them
    (_refine), so the result is the `count` lowest eigenvalues of the output
    grid, each within a few times the rounding floor of its residual. A grid
    whose certificate fails, or whose grid below has fewer levels, is solved
    by index at the absolute tolerance _INDEX_TOL. A `count` larger than the
    output grid's unknowns raises ValidationError.

    Accuracy is best on a staggered grid, u_min = (u_max - u_min) /
    (points - 1) / 2, where the pure-power channels are superconvergent; a
    log-mixed channel's inner flux is the Frobenius start's at any u_min.
    Emits GridResolutionWarning for each fault _resolution_faults finds: a
    Richardson estimate of the ground-level error above 1e-3 relative, a box
    that the top level reaches, or a level inside the first node."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    u = _fd_nodes(spec, grid, grid.points)
    diag, off = _fd_matrix(spec, u)
    if count > len(diag):
        raise ValidationError(f"count {count} exceeds the grid's {len(diag)} unknowns")
    sizes = [(grid.points + 1) // 2]
    while (sizes[-1] + 1) // 2 >= _MIN_POINTS:
        sizes.append((sizes[-1] + 1) // 2)
    solved = []
    for points in reversed(sizes):
        d, e = _fd_matrix(spec, _fd_nodes(spec, grid, points))
        solved.append(_lowest(d, e, min(count, len(d)), *_predict(solved)))
    vals = _lowest(diag, off, count, *_predict(solved))
    for reason in _resolution_faults(spec, u, vals, solved):
        warnings.warn(reason, GridResolutionWarning, stacklevel=2)
    return [float(v) for v in vals]


# the box warning's least WKB action of the top level under its outer
# barrier. The Dirichlet edge moves a level by about 0.1 exp(-2 action) of
# itself (Coulomb m = 2 and 3: 1.7e-4 at action 3.1, 5.8e-4 at 2.4)
_MIN_ACTION = 2.5


def _resolution_faults(
    spec: ProblemSpec, u: np.ndarray, vals: np.ndarray, solved: list[np.ndarray]
) -> list[str]:
    """Why the levels `vals` on the u nodes may miss the operator's by more
    than 1e-3 relative: a Richardson estimate of the ground level's error at
    the order the cascade observes, log2 of (E_4h - E_2h)/(E_2h - E_h)
    clipped to [1, 2] (2 with no quarter grid); a box whose edge the top
    level nearly reaches; or a log-mixed start (at E = 0) that changes sign
    inside the first node, so that a level of that size lies below the grid."""
    faults = []
    fine, half = vals[0], solved[-1][0]
    ratio = 4.0  # 2^order
    if len(solved) > 1 and fine != half:
        ratio = min(4.0, max(2.0, abs(solved[-2][0] - half) / abs(half - fine)))
    err_est = abs(fine - half) / (ratio - 1.0)
    if err_est > _WARN_REL * max(1.0, abs(fine)):
        faults.append(f"grid too coarse: estimated ground-level error {err_est:.3g}")
    (a0, a2, b0, b2), top, u0 = _equation(spec), vals[-1], float(u[0])
    w = u[:: -max(1, len(u) // 256)]  # from the edge inwards: the action needs few nodes
    w2 = w * w  # -phi'' = (E (b0 + b2 u^2) - a0 - a2 u^2 - (m^2 - 1/4)/u^2) phi
    q = a0 + a2 * w2 - top * (b0 + b2 * w2) + (spec.m * spec.m - 0.25) / w2
    allowed = np.flatnonzero(q <= 0.0)
    action = np.sqrt(q[: allowed[0] if allowed.size else len(q)]).sum() * (w[0] - w[1])
    if action < _MIN_ACTION:
        faults.append(f"box too small: level {top:.6g} decays only by exp(-{action:.3g})")
    inner = _frobenius(spec, 0.0, u0)[0] * _frobenius(spec, 0.0, 1e-300 * u0)[0]
    if _mixing(spec)[0] and inner < 0.0:
        faults.append(f"a level lies inside the first node u = {u0:.3g}")
    return faults


# shooting meshes: _CELLS cells a span (a power of two), doubled up to
# _MAX_DOUBLINGS times until the Richardson estimate is within _SHOOT_REL
_CELLS = 256
_MAX_DOUBLINGS = 6
_SHOOT_REL = 1e-10


def _magnus(vpot, a, b, cells: int):
    """E -> propagators of (psi, psi') for -psi'' + vpot psi = E psi over spans
    a[i] -> b[i] up to positive scales, shape (2, 2, 2, spans), on geometric
    meshes of `cells` and 2 `cells` cells: fourth-order Magnus, two Gauss
    points a cell (Iserles & Norsett 1999), outward spans in t = ln u for
    phi = u^(-1/2) psi, where phi'' = (u^2 (V - E) + 1/4) phi makes
    (m^2 - 1/4)/u^2 the constant m^2. exp(Omega) = cosh(s) + sinh(s)/s Omega,
    s^2 = -det Omega, over cosh(s) (cos/sin where s^2 < 0); the cells map
    (psi, psi') at their nodes, multiplied in a rescaled pairwise tree."""
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]
    out = a < b
    t = np.concatenate([np.linspace(0.0, 1.0, cells + 1), np.linspace(0.0, 1.0, 2 * cells + 1)])
    x = np.log(a) + np.log(b / a) * t  # ln u at the nodes; r = sqrt(u) on outward spans
    r, x = np.where(out, np.exp(0.5 * x), 1.0), np.where(out, x, np.exp(x))
    seam = np.arange(3 * cells + 1) != cells  # no cell joins the two meshes
    x0, x1, r0, r1 = (v[:, s][:, seam] for v in (x, r) for s in (np.s_[:-1], np.s_[1:]))
    h = x1 - x0
    g = x0 + 0.5 * h + np.multiply.outer([-1.0, 1.0], h) * (math.sqrt(3.0) / 6.0)
    u, w = np.where(out, np.exp(g), g), np.where(out, np.exp(2.0 * g), 1.0)  # q = w (V - E)
    wv, k, quarter = w * vpot(u), math.sqrt(3.0) / 12.0 * h * h, np.where(out, 0.25 * h, 0.0)
    d0, d1 = k * (wv[0] - wv[1]), k * (w[0] - w[1])  # Omega = [[d, h], [c, -d]]
    c0, c1 = 0.5 * h * (wv[0] + wv[1]), 0.5 * h * (w[0] + w[1])
    mu, rho = r0 * r1, r1 / r0
    e0, e1 = (np.where(out, d0, 0.0) + c0) / mu, (np.where(out, d1, 0.0) + c1) / mu

    def pairs(m):  # later cell times earlier cell
        return np.einsum("ij...,jk...->ik...", m[..., 1::2], m[..., ::2])

    def products(E: float) -> np.ndarray:
        d = d0 - d1 * E
        s2 = d * d + h * (c0 + quarter - c1 * E)
        s = np.maximum(np.sqrt(np.abs(s2)), np.finfo(float).tiny)  # s^2 = 0: tanh(s)/s = 1
        f0, f1, osc = np.ones_like(s), np.tanh(s), s2 < 0
        f0[osc], f1[osc] = np.cos(s[osc]), np.sin(s[osc])
        f1 /= s
        fd = f1 * (d - 2.0 * quarter)
        m = np.array([[rho * (f0 + fd), f1 * h * mu], [f1 * (e0 - e1 * E), (f0 - fd) / rho]])
        m = np.concatenate([m[..., :cells], pairs(m[..., cells:])], axis=2)
        while m.shape[-1] > 1:
            m = pairs(m)
            m /= np.abs(m).max(axis=(0, 1))
        return m[..., 0].reshape(2, 2, 2, -1)

    return products


def _shot_start(spec: ProblemSpec, E: float, r: float) -> tuple[float, float]:
    """(psi, psi') of the Frobenius start at the theory's own radius r: phi(r),
    or the Coulomb u^(1/2) phi(u) at u = sqrt(x / kappa0), x psi_x = u psi_u / 2."""
    if spec.theory is Theory.OSCILLATOR:
        psi, du_psi = _frobenius(spec, E, r)
        return psi, du_psi / r
    psi, du_psi = _frobenius(spec, E, math.sqrt(r / spec.kappa0), 0.5)
    return psi, du_psi / (2.0 * r)


def shoot_eigenvalue(
    spec: ProblemSpec,
    bracket: tuple[float, float],
    u_min: float = 1e-6,
    u_max: float | None = None,
) -> float:
    """Locate the single eigenvalue inside `bracket` by the sign of the
    normalized Wronskian F of the outward and inward solutions at a midpoint,
    Richardson-extrapolated from _magnus on n and 2n cells. n doubles until
    |F_2n - F_n|/15 over F's slope is within 1e-10 max(1, |E|) across the
    bracket (so brentq sees one function) and at the root, or raises. The
    outward solution starts from the Frobenius start at u_min (x_min for the
    Coulomb problem), summed at each trial energy; the Coulomb shots
    propagate in x, where the |m| = 1 extension enters psi' at O(1)."""
    lo, hi = bracket
    if not lo < hi:
        raise ValidationError("bracket must satisfy lo < hi")
    vpot = _potential(spec)
    if u_max is None:
        if spec.theory is Theory.OSCILLATOR:
            u_max = max(6.0, 3.0 * (abs(hi) / max(spec.coupling, 1e-12)) ** 0.5)
        else:
            u_max = max(20.0, 30.0 / math.sqrt(max(-hi, 1e-4)))
    if not 0 < u_min < u_max:
        raise ValidationError(f"need 0 < u_min < u_max, got {u_min!r} and {u_max!r}")
    u_mid = min(max(1.0, 20.0 * u_min), 0.4 * u_max)

    def mismatch(E: float) -> tuple[float, float]:  # F and its error estimate
        m, start = products(E), _shot_start(spec, E, u_min)
        kap = math.sqrt(max(vpot(u_max) - E, 1e-12))
        out = m[:, 0, :, 0] * start[0] + m[:, 1, :, 0] * start[1]
        inn = m[:, 0, :, 1] - kap * m[:, 1, :, 1]
        f = (out[0] * inn[1] - out[1] * inn[0]) / np.sqrt((out * out).sum(0) * (inn * inn).sum(0))
        return float(f[1] + (f[1] - f[0]) / 15.0), float(abs(f[1] - f[0]) / 15.0)

    for level in range(_MAX_DOUBLINGS + 1):
        products = _magnus(vpot, [u_min, u_max], [u_mid, u_mid], _CELLS << level)
        (f_lo, e_lo), (f_hi, e_hi) = mismatch(lo), mismatch(hi)
        tol = _SHOOT_REL * max(1.0, min(abs(lo), abs(hi)))
        if max(e_lo, e_hi) * (hi - lo) > tol * abs(f_hi - f_lo):
            continue
        if f_lo * f_hi > 0:
            raise ValidationError("no sign change of the matching function in bracket")
        root = brentq(lambda E: mismatch(E)[0], lo, hi, xtol=1e-10, rtol=1e-12, maxiter=200)
        tol, step = _SHOOT_REL * max(1.0, abs(root)), 1e-6 * max(1.0, abs(root))
        (f0, e0), (f1, e1) = mismatch(root), mismatch(root + step)  # F's slope at the root
        if max(e0, e1) * step <= tol * abs(f1 - f0):
            return root
    raise ValidationError(f"shooting missed its tolerance {tol:.3g} at {2 * _CELLS << level} cells")


def compare_spectra(
    closed: SpectralMeasure, oracle: list[float], tol: float
) -> dict:
    """Per-level relative deviations of oracle eigenvalues against the
    closed-form atoms, with a pass/fail verdict at tolerance `tol`."""
    rows = []
    for n, (e_closed, e_oracle) in enumerate(zip([e for e, _ in closed.discrete], oracle)):
        dev = abs(e_oracle - e_closed) / max(1.0, abs(e_closed))
        rows.append({"n": n, "closed": e_closed, "oracle": e_oracle, "rel_dev": dev,
                     "pass": dev <= tol})
    return {
        "levels": rows,
        "count_mismatch": len(closed.discrete) != len(oracle),
        "pass": all(row["pass"] for row in rows),
        "tol": tol,
    }
