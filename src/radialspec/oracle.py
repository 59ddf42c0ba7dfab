"""Independent numerical verification of the closed-form spectra.

A second-order finite-difference (symmetric tridiagonal) eigensolver and a
shooting integrator for the radial equations. The extension families enter
through the small-radius boundary asymptote psi_as whose log-derivative is
matched at the inner grid edge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .core import (
    ProblemSpec,
    RegimeClass,
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


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, **kwargs) -> np.ndarray:
    """scipy.linalg.eigh_tridiagonal, imported on the first call: the closed
    forms never need scipy.linalg, so importing radialspec does not load it."""
    from scipy.linalg import eigh_tridiagonal as eigh

    return eigh(d, e, **kwargs)


class GridResolutionWarning(UserWarning):
    """The grid is too coarse for the requested accuracy."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform (or log-spaced) radial grid for the discretized operator."""

    u_min: float
    u_max: float
    points: int
    log_spacing: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.u_min < self.u_max):
            raise ValidationError("need 0 < u_min < u_max")
        if self.points < 100:
            raise ValidationError("need at least 100 grid points")

    def nodes(self) -> np.ndarray:
        if self.log_spacing:
            return np.geomspace(self.u_min, self.u_max, self.points)
        return np.linspace(self.u_min, self.u_max, self.points)


def _potential(spec: ProblemSpec):
    """V(u), elementwise: takes a float or an array of radii."""
    m2 = spec.m * spec.m
    if spec.theory is Theory.OSCILLATOR:
        lam = spec.coupling
        return lambda u: (m2 - 0.25) / (u * u) + lam * u * u
    g = spec.coupling
    return lambda x: (m2 - 1.0) / (4.0 * x * x) + g / x


def _psi_as(spec: ProblemSpec):
    """Small-radius asymptote selecting the self-adjoint extension."""
    p = _power_channel(spec)
    if p is not None:
        return lambda u: u**p
    cell = classify(spec)
    k0 = spec.kappa0
    zeta = spec.zeta
    s, c = math.sin(zeta), math.cos(zeta)
    if spec.theory is Theory.OSCILLATOR:
        return lambda u: math.sqrt(k0 * u) * (s + c * math.log(k0 * u))
    if cell is RegimeClass.COUL_M0_FAMILY:
        return lambda x: math.sqrt(k0 * x) * (s + 0.5 * c * math.log(k0 * x))
    g = spec.coupling
    return lambda x: k0 * x * s + c * (
        1.0 + g * x * (math.log(k0 * x) + 2.0 * sf.EULER_GAMMA - 1.0)
    )


def _power_channel(spec: ProblemSpec) -> float | None:
    """Exponent p when the boundary channel is the pure power u^p (unique
    cells and the zeta = pi/2 member of each family); None for log-mixed
    boundary conditions."""
    classify(spec)  # enforces the extension rules
    if spec.extension is not None and not spec.extension.is_half_pi:
        return None
    if spec.theory is Theory.OSCILLATOR:
        return 0.5 + abs(spec.m)
    return 0.5 * (1 + abs(spec.m))


def _fd_solve(spec: ProblemSpec, nodes: np.ndarray, count: int) -> np.ndarray:
    h = nodes[1] - nodes[0]
    if not np.allclose(np.diff(nodes), h, rtol=1e-9):
        raise ValidationError("finite-difference oracle needs a uniform grid")
    vpot = _potential(spec)
    inner = nodes[:-1]  # Dirichlet at u_max removes the last node
    p = _power_channel(spec)
    if p is not None:
        # Substituting psi = u^p phi removes the u^{-2} singularity entirely;
        # the flux form -(u^{2p} phi')' / u^{2p} + V_reg is discretized with
        # half-node fluxes and symmetrized back to a tridiagonal problem.
        # Zero flux at the inner edge selects the u^p channel exactly.
        if spec.theory is Theory.OSCILLATOR:
            v_reg = lambda u: spec.coupling * u * u
        else:
            v_reg = lambda u: spec.coupling / u
        u = inner
        w = u ** (2.0 * p)  # weight u^{2p}
        half = ((u[:-1] + u[1:]) / 2.0) ** (2.0 * p)
        diag = v_reg(u)
        diag[:-1] += half / (h * h * w[:-1])
        diag[1:] += half / (h * h * w[1:])
        off = -half / (h * h * np.sqrt(w[:-1] * w[1:]))
        vals = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
        )
        return vals
    psi_as = _psi_as(spec)
    diag = 2.0 / h**2 + vpot(inner)
    # fold psi(u_0) = r psi(u_1) into the first retained row
    r = psi_as(float(inner[0])) / psi_as(float(inner[1]))
    diag = diag[1:]
    diag[0] = (2.0 - r) / h**2 + vpot(float(inner[1]))
    off = np.full(len(diag) - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    return vals


def fd_eigenvalues(spec: ProblemSpec, grid: GridSpec, count: int) -> list[float]:
    """Lowest `count` eigenvalues of the discretized operator, sorted ascending.

    For pure-power boundary channels accuracy is best on a staggered grid
    with u_min = (u_max - u_min)/(points - 1)/2, i.e. half a spacing off the
    singular endpoint. Emits GridResolutionWarning when a half-resolution
    Richardson estimate puts the ground-level discretization error above
    1e-3 relative."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    nodes = grid.nodes()
    if grid.log_spacing:
        raise ValidationError("finite-difference oracle supports linear spacing only")
    vals = _fd_solve(spec, nodes, count)
    coarse = _fd_solve(spec, nodes[::2], min(count, 1))
    err_est = abs(vals[0] - coarse[0]) / 3.0  # second-order Richardson
    if err_est > 1e-3 * max(1.0, abs(vals[0])):
        warnings.warn(
            f"grid too coarse: estimated ground-level error {err_est:.3g}",
            GridResolutionWarning,
            stacklevel=2,
        )
    return [float(v) for v in vals]


# Shooting integrates in six chunks, renormalising between them so that the
# growing solution cannot overflow; a chunk may take at most _MAX_STEPS steps.
_CHUNKS = 6
_MAX_STEPS = 100_000


def _propagator(vpot, a: float, b: float):
    """(E, y0) -> (psi, psi')(b) / max|.| for -psi'' + vpot psi = E psi with
    (psi, psi')(a) = y0, on SciPy's compiled Dormand-Prince 8(5,3) integrator
    (scipy.integrate, imported on the first call like eigh_tridiagonal). One
    integrator serves every energy. Its first step, 1/100 of a chunk, is set
    and signed with the direction: with atol=1e-300 dop853's own first-step
    guess fails on a start vector with a zero (or relatively tiny) component."""
    from scipy.integrate import ode

    def rhs(u, y, E):
        return [y[1], (vpot(u) - E) * y[0]]

    edges = np.linspace(a, b, _CHUNKS + 1)
    solver = ode(rhs).set_integrator(
        "dop853", rtol=1e-10, atol=1e-300, nsteps=_MAX_STEPS,
        first_step=1e-2 * (b - a) / _CHUNKS,
    )

    def propagate(E: float, y0) -> np.ndarray:
        y = np.array(y0, dtype=float)
        solver.set_f_params(E)
        for start, stop in zip(edges[:-1], edges[1:]):
            solver.set_initial_value(y, start)
            y = solver.integrate(stop)
            if not solver.successful():
                raise ValidationError(
                    f"shooting integration failed at u = {solver.t:.6g}: "
                    f"dop853 return code {solver.get_return_code()}"
                )
            norm = max(abs(y[0]), abs(y[1]))
            if norm == 0:
                raise ValidationError("shooting solution vanished identically")
            y = y / norm  # positive rescaling keeps the Wronskian sign intact
        return y

    return propagate


def shoot_eigenvalue(
    spec: ProblemSpec,
    bracket: tuple[float, float],
    u_min: float = 1e-6,
    u_max: float | None = None,
) -> float:
    """Locate the single eigenvalue inside `bracket` by the sign of the
    normalized Wronskian of the outward and inward solutions at a midpoint."""
    lo, hi = bracket
    if not lo < hi:
        raise ValidationError("bracket must satisfy lo < hi")
    vpot = _potential(spec)
    psi_as = _psi_as(spec)
    if u_max is None:
        if spec.theory is Theory.OSCILLATOR:
            u_max = max(6.0, 3.0 * (abs(hi) / max(spec.coupling, 1e-12)) ** 0.5)
        else:
            tau = math.sqrt(max(-hi, 1e-4))
            u_max = max(20.0, 30.0 / tau)
    if not 0 < u_min < u_max:
        raise ValidationError(f"need 0 < u_min < u_max, got {u_min!r} and {u_max!r}")
    u_mid = min(max(1.0, 20.0 * u_min), 0.4 * u_max)

    outward = _propagator(vpot, u_min, u_mid)
    inward = _propagator(vpot, u_max, u_mid)
    d = 1e-6 * u_min

    def mismatch(E: float) -> float:
        psi0 = psi_as(u_min)
        dpsi0 = (psi_as(u_min + d) - psi_as(u_min - d)) / (2.0 * d)
        out = outward(E, [psi0, dpsi0])
        kap = math.sqrt(max(vpot(u_max) - E, 1e-12))
        inn = inward(E, [1.0, -kap])
        wr = out[0] * inn[1] - out[1] * inn[0]
        return wr / math.sqrt(
            (out[0] ** 2 + out[1] ** 2) * (inn[0] ** 2 + inn[1] ** 2)
        )

    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo * f_hi > 0:
        raise ValidationError("no sign change of the matching function in bracket")
    return brentq(mismatch, lo, hi, xtol=1e-10, rtol=1e-12, maxiter=200)


def compare_spectra(
    closed: SpectralMeasure, oracle: list[float], tol: float
) -> dict:
    """Per-level relative deviations of oracle eigenvalues against the
    closed-form atoms, with a pass/fail verdict at tolerance `tol`."""
    n_cmp = min(len(closed.discrete), len(oracle))
    rows = []
    ok = True
    for n in range(n_cmp):
        e_closed = closed.discrete[n][0]
        e_oracle = oracle[n]
        dev = abs(e_oracle - e_closed) / max(1.0, abs(e_closed))
        level_ok = dev <= tol
        ok = ok and level_ok
        rows.append(
            {"n": n, "closed": e_closed, "oracle": e_oracle, "rel_dev": dev, "pass": level_ok}
        )
    return {
        "levels": rows,
        "count_mismatch": len(closed.discrete) != len(oracle),
        "pass": ok,
        "tol": tol,
    }
