"""Shared data model: problem specs, energies with branch bookkeeping,
extension parameters, spectral measures, radial wave handles."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "Theory",
    "ValidationError",
    "ExtensionParam",
    "canonicalize_zeta",
    "ProblemSpec",
    "RegimeClass",
    "classify",
    "ComplexEnergy",
    "SpectralMeasure",
    "SamplePoint",
    "sample_measure",
    "RadialWave",
    "brentq",
]

HALF_PI = math.pi / 2


class Theory(str, Enum):
    OSCILLATOR = "oscillator"
    COULOMB = "coulomb"


class ValidationError(ValueError):
    """A problem specification violates a regime rule."""


@dataclass(frozen=True)
class ExtensionParam:
    """Self-adjoint extension angle, canonical in (-pi/2, pi/2]."""

    zeta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.zeta):
            raise ValidationError("extension parameter must be finite")
        if not (-HALF_PI < self.zeta <= HALF_PI + 1e-15):
            raise ValidationError(
                f"zeta={self.zeta} outside (-pi/2, pi/2]; use canonicalize_zeta"
            )

    @property
    def is_half_pi(self) -> bool:
        """True for the pure-power boundary channel zeta = pi/2.

        Angles within 1e-7 snap to pi/2: tan(zeta) is already ~1e7 there and
        the family roots are within root-finder noise of the ladder."""
        return abs(self.zeta - HALF_PI) < 1e-7


def canonicalize_zeta(raw: float) -> ExtensionParam:
    """Reduce an angle mod pi to the canonical representative in (-pi/2, pi/2]."""
    if not math.isfinite(raw):
        raise ValidationError("zeta must be finite")
    z = raw - math.pi * round(raw / math.pi)
    if z <= -HALF_PI + 1e-15:
        z += math.pi
    if abs(z - HALF_PI) < 1e-7:
        z = HALF_PI
    return ExtensionParam(z)


@dataclass(frozen=True)
class ProblemSpec:
    """One radial problem: theory, angular momentum, coupling, scale, extension."""

    theory: Theory
    m: int
    coupling: float  # lambda for oscillator, g for Coulomb
    kappa0: float = 1.0
    extension: ExtensionParam | None = None

    def __post_init__(self) -> None:
        if not (self.kappa0 > 0 and math.isfinite(self.kappa0)):
            raise ValidationError("kappa0 must be a positive finite number")
        if not math.isfinite(self.coupling):
            raise ValidationError("coupling must be finite")

    @property
    def zeta(self) -> float:
        if self.extension is None:
            raise ValidationError("spec has no extension parameter")
        return self.extension.zeta


class RegimeClass(str, Enum):
    OSC_M_POS_LAMBDA_POS = "osc |m|>=1, lambda>0 — discrete"
    OSC_M_POS_LAMBDA_NEG = "osc |m|>=1, lambda<0 — continuous"
    OSC_M_POS_LAMBDA_ZERO = "osc |m|>=1, lambda=0 — continuous"
    OSC_M0_LAMBDA_POS = "osc m=0 family, lambda>0"
    OSC_M0_LAMBDA_NEG = "osc m=0 family, lambda<0"
    OSC_M0_LAMBDA_ZERO = "osc m=0 family, lambda=0"
    COUL_UNIQUE = "coul |m|>=2"
    COUL_M1_FAMILY = "coul m=+-1 family"
    COUL_M0_FAMILY = "coul m=0 family"


def _is_family(theory: Theory, m: int) -> bool:
    if theory is Theory.OSCILLATOR:
        return m == 0
    return abs(m) <= 1


def classify(spec: ProblemSpec) -> RegimeClass:
    """Map a spec onto its regime cell, enforcing the extension rules."""
    family = _is_family(spec.theory, spec.m)
    if family and spec.extension is None:
        raise ValidationError(
            f"{spec.theory.value} m={spec.m} admits a one-parameter extension "
            "family: an extension parameter is required"
        )
    if not family and spec.extension is not None:
        raise ValidationError(
            f"{spec.theory.value} m={spec.m} has a unique self-adjoint "
            "extension: no extension parameter may be supplied"
        )
    if spec.theory is Theory.OSCILLATOR:
        lam = spec.coupling
        if spec.m == 0:
            if lam > 0:
                return RegimeClass.OSC_M0_LAMBDA_POS
            if lam < 0:
                return RegimeClass.OSC_M0_LAMBDA_NEG
            return RegimeClass.OSC_M0_LAMBDA_ZERO
        if lam > 0:
            return RegimeClass.OSC_M_POS_LAMBDA_POS
        if lam < 0:
            return RegimeClass.OSC_M_POS_LAMBDA_NEG
        return RegimeClass.OSC_M_POS_LAMBDA_ZERO
    if spec.m == 0:
        return RegimeClass.COUL_M0_FAMILY
    if abs(spec.m) == 1:
        return RegimeClass.COUL_M1_FAMILY
    return RegimeClass.COUL_UNIQUE


@dataclass(frozen=True)
class ComplexEnergy:
    """Energy point in the closed upper half-plane with branch bookkeeping.

    phi is the phase in [0, pi]; the Coulomb branch root is
    K = sqrt(|E|) exp(i(phi - pi)/2) and the oscillator one
    sqrt(W) = sqrt(|W|) exp(i phi / 2).
    """

    value: complex

    def __post_init__(self) -> None:
        v = complex(self.value)
        if v.imag < -1e-300:
            raise ValidationError("energy must lie in the closed upper half-plane")
        object.__setattr__(self, "value", v)

    @property
    def phi(self) -> float:
        if self.value == 0:
            return 0.0
        # Im >= 0 pins the phase to [0, pi]; abs() folds the -0.0j real axis
        return abs(cmath.phase(self.value))

    def sqrt_forward(self) -> complex:
        """sqrt(W) on the 0 <= phi_W <= pi branch."""
        return math.sqrt(abs(self.value)) * cmath.exp(0.5j * self.phi)

    def sqrt_minus(self) -> complex:
        """K = sqrt(-E): real > 0 for E < 0, -i sqrt(E) for E > 0."""
        return math.sqrt(abs(self.value)) * cmath.exp(0.5j * (self.phi - math.pi))


def as_energy(value: ComplexEnergy | complex | float) -> ComplexEnergy:
    if isinstance(value, ComplexEnergy):
        return value
    return ComplexEnergy(complex(value))


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (E_n, Q_n^2) plus a continuous density with support metadata."""

    discrete: tuple[tuple[float, float], ...] = ()
    density: Callable[[float], float] | None = None
    support: str = "empty"  # one of "R", "R+", "empty"

    def __post_init__(self) -> None:
        if self.support not in ("R", "R+", "empty"):
            raise ValidationError(f"unknown support descriptor {self.support!r}")
        energies = [e for e, _ in self.discrete]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValidationError("discrete energies must be strictly increasing")
        if any(w <= 0 for _, w in self.discrete):
            raise ValidationError("atom weights must be positive")

    def density_at(self, energy: float) -> float:
        if self.density is None:
            return 0.0
        if self.support == "empty":
            return 0.0
        if self.support == "R+" and energy < 0:
            return 0.0
        return self.density(energy)


class SamplePoint(NamedTuple):
    energy: float
    value: float
    kind: str  # "discrete" or "continuous"


def sample_measure(measure: SpectralMeasure, grid: Sequence[float]) -> list[SamplePoint]:
    """Evaluate a measure on a sorted grid; atoms report weights, the rest density."""
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid must be sorted ascending")
    atoms = dict(measure.discrete)
    out = []
    for e in grid:
        hit = next(
            (
                en
                for en in atoms
                if abs(e - en) <= 1e-12 * max(1.0, abs(en))
            ),
            None,
        )
        if hit is not None:
            out.append(SamplePoint(e, atoms[hit], "discrete"))
        else:
            out.append(SamplePoint(e, measure.density_at(e), "continuous"))
    return out


@dataclass(frozen=True)
class RadialWave:
    """An evaluable radial function with its normalization and small-u class."""

    evaluator: Callable[[float], float | complex]
    norm_constant: float
    asymptotic_class: str
    energy: float | None = field(default=None)

    def __call__(self, u: float) -> float | complex:
        if u <= 0:
            raise ValidationError("radial coordinate must be positive")
        return self.evaluator(u)


def brentq(
    f: Callable[[float], float], a: float, b: float, *, xtol: float, rtol: float, maxiter: int
) -> float:
    """Root of f in the bracket [a, b] by Brent's method (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4).

    A step-for-step port of SciPy's brentq.c, so roots are bit-identical to
    scipy.optimize.brentq's: each step takes inverse quadratic extrapolation
    (secant interpolation when only two points are distinct) if it stays
    well inside the bracket, else bisects; it stops when half the bracket is
    below delta = (xtol + rtol |x|) / 2.  Raises ValueError when f(a) and
    f(b) have the same sign or f returns NaN, and RuntimeError after maxiter
    steps."""

    def value(x: float) -> float:
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x:.15g} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # zeros and NaNs are ruled out before every sign test, so f < 0 reads
    # the sign bit as brentq.c's signbit() does
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    # xblk is the contrapoint: [xcur, xblk] always brackets the root
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur!r}")
