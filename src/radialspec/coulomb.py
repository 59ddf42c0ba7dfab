"""Coulomb-like radial closed forms.

Solutions C1/C3/C4 (plus the logarithmic C2 channel at m=0), coefficient
and extension-family functions, critical angles, Green kernels and full
spectral measures for every (m-class, sign g, zeta) cell of

    h_m = -d^2/dx^2 + (2x)^{-2}(m^2 - 1) + g/x   on (0, inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _confluent as cf
from . import specfun as sf
from .core import (
    ComplexEnergy,
    ProblemSpec,
    RadialWave,
    RegimeClass,
    SpectralMeasure,
    Theory,
    ValidationError,
    as_energy,
    classify,
)

__all__ = [
    "CoulCoefficients",
    "coul_parameters",
    "coul_solution",
    "coul_coefficients",
    "coul_family_function",
    "coul_critical_zeta",
    "coul_spectrum",
    "coul_level",
    "coul_density",
    "coul_green",
    "coul_spectral_omega",
    "coul_eigenfunction",
]

@dataclass(frozen=True)
class CoulCoefficients:
    """Confluent-hypergeometric bookkeeping for one (m, energy, g) point."""

    K: complex  # sqrt(-E), branch sqrt(|E|) e^{i(phi_E - pi)/2}
    w: complex  # -g / 2K
    alpha: complex  # (1 + |m|)/2 - w
    alpha_minus: complex  # alpha - |m|
    beta: int  # 1 + |m|

    def z(self, x: float) -> complex:
        return 2.0 * self.K * x


def coul_parameters(m: int, energy: ComplexEnergy | complex | float, g: float) -> CoulCoefficients:
    e = as_energy(energy)
    if e.value == 0:
        raise ValidationError("Coulomb closed forms need a nonzero energy")
    K = e.sqrt_minus()
    w = -g / (2.0 * K)
    n = abs(m)
    alpha = 0.5 * (1 + n) - w
    return CoulCoefficients(K, w, alpha, alpha - n, 1 + n)


# --- solutions ---------------------------------------------------------------


def coul_solution(
    kind: str,
    m: int,
    x: float,
    energy: ComplexEnergy | complex | float,
    g: float,
    kappa0: float = 1.0,
) -> complex:
    """Evaluate a named solution C1 | C3 | C4 | C2_0 at radius x.

    C1, C4 and C2_0 are real-entire in the energy; C3 decays at infinity
    for Im(energy) > 0.
    """
    if x <= 0:
        raise ValidationError("x must be positive")
    if kind == "C2_0" and m != 0:
        raise ValidationError("C2_0 exists only for m = 0")
    if kind == "C4" and m == 0:
        raise ValidationError("C4 exists only for |m| >= 1")
    return _coul_at(kind, coul_parameters(m, energy, g), kappa0)(x)


def _coul_at(kind: str, par: CoulCoefficients, kappa0: float):
    """x -> the named solution at the energy of `par`, whose constants are
    built once by the caller."""
    if kind in ("C4", "C2_0"):
        pair = _coul_pair(par, kappa0)
        return lambda x: pair(x)[1]
    series = {"C1": sf._KummerPlan, "C3": sf._TricomiPlan}.get(kind)
    if series is None:
        raise ValidationError(f"unknown Coulomb solution kind {kind!r}")
    return cf.series_solution(series, par.alpha, par.beta, par.z, 0.5 * par.beta, kappa0)


def _coul_pair(par: CoulCoefficients, kappa0: float):
    """x -> (C1, C4) for |m| >= 1, or (C1, C2_0) for m = 0, from one series
    pass per point of the log channel at n = |m|, which carries C1's Phi along."""
    n = par.beta - 1
    if n == 0:
        return cf.m0_pair(par.alpha, par.z, 0.5, kappa0)
    rest = (2.0 * par.K / kappa0) ** n / (math.factorial(n - 1) * math.factorial(n))
    return cf.log_pair(par.alpha, n, par.z, 0.5 * (1 - n), 0.5 * (1 + n), 1.0, rest, kappa0)


# --- coefficient and family functions -----------------------------------------


def coul_coefficients(
    m: int, energy: ComplexEnergy | complex | float, g: float, kappa0: float = 1.0
) -> tuple[complex, complex, complex, complex]:
    """(A_m, B_m, C_m, omega) for |m| >= 1.

    C3 = B_m C1 + C_m C4 pointwise; Wr(C1, C3) = -kappa0 |m| C_m = -omega.
    """
    if abs(m) < 1:
        raise ValidationError("coefficients defined for |m| >= 1")
    par = coul_parameters(m, energy, g)
    return cf.coefficients(par.alpha, abs(m), 2.0 * par.K / kappa0, kappa0)


def coul_family_function(
    m: int, energy: ComplexEnergy | complex | float, g: float, kappa0: float = 1.0
) -> complex:
    """f_1 (|m| = 1) or f_0 (m = 0): discrete family levels solve
    f_1(E) = tan(zeta), respectively f_0(E) = -tan(zeta)."""
    if abs(m) not in (0, 1):
        raise ValidationError("family function defined for m in {0, +-1}")
    e = as_energy(energy)
    if abs(m) == 1 and g == 0.0:
        return -e.sqrt_minus() / kappa0
    par = coul_parameters(m, e, g)
    log_r = cmath.log(2.0 * par.K / kappa0)
    if abs(m) == 1:
        return cf.m1_family_function(par.alpha, log_r, g / (2.0 * kappa0), sf.digamma)
    return cf.m0_family_function(par.alpha, log_r, sf.digamma)


def coul_critical_zeta(m: int, g: float, kappa0: float = 1.0) -> float:
    """Extension angle at which a zero-energy atom appears (g > 0)."""
    if g <= 0:
        raise ValidationError("critical zeta is defined for g > 0")
    if abs(m) not in (0, 1):
        raise ValidationError("critical zeta exists for m in {0, +-1}")
    return math.atan(_critical_tan(abs(m), g, kappa0))


def _critical_tan(n: int, g: float, kappa0: float) -> float:
    """tan of the critical angle of the |m| = n in {0, 1} family, g > 0."""
    if n == 1:
        return (g / kappa0) * math.log(g / kappa0)
    return 0.5 * math.log(g / kappa0) + sf.EULER_GAMMA


# --- family-function slopes (atom weights) ------------------------------------


def _f1_prime(E: float, g: float, kappa0: float) -> float:
    """d f_1 / dE on E < 0 (analytic)."""
    tau = math.sqrt(-E)
    if g == 0.0:
        return 1.0 / (2.0 * kappa0 * tau)
    a = 1.0 + g / (2.0 * tau)
    am = g / (2.0 * tau)
    return (g / (2.0 * kappa0)) * (
        (sf.trigamma(a) + sf.trigamma(am)) * g / (4.0 * tau**3) - 1.0 / tau**2
    )


def _f0_prime(E: float, g: float, kappa0: float) -> float:
    """d f_0 / dE on E < 0 (analytic)."""
    tau = math.sqrt(-E)
    a = 0.5 + g / (2.0 * tau)
    return -g * sf.trigamma(a) / (8.0 * tau**3) + 1.0 / (4.0 * tau**2)


# --- spectral data -------------------------------------------------------------


def _density_unique(m: int, g: float, kappa0: float):
    n = abs(m)
    gb2 = math.factorial(n) ** 2

    def density(E: float) -> float:
        if E <= 0:
            return 0.0
        p = math.sqrt(E)
        a = 0.5 * (1 + n) + (0.5j * g / p)
        gam = abs(sf.gamma_fn(a)) ** 2
        return (
            kappa0 ** (-1 - n)
            * gam
            * (2.0 * p) ** n
            * math.exp(-math.pi * g / (2.0 * p))
            / (2.0 * math.pi * gb2)
        )

    return density


def _root_function(n: int, g: float, kappa0: float, target: float):
    """h(E) = coul_family_function(n, E).real - target on real E < 0 at
    n = |m| in {0, 1}, g != 0, bit for bit, from one real psi: alpha and r
    as coul_parameters maps them from K = sqrt(-E), with the map's constants
    built once here."""
    half_b, neg_g, scale = 0.5 * (1 + n), -g, g / (2.0 * kappa0)

    def h(E: float) -> float:
        tau = math.sqrt(-E)
        alpha = half_b - neg_g / (2.0 * tau)
        log_r = cmath.log(2.0 * tau / kappa0).real
        if n:
            return cf.m1_family_function(alpha, log_r, scale, sf._psi_real) - target
        return cf.m0_family_function(alpha, log_r, sf._psi_real) - target

    return h


def _coul_levels(spec: ProblemSpec, cell: RegimeClass):
    """(number of atoms, None for an infinite ladder; k -> the k-th atom
    (E_k, Q_k^2)).  Every atom is computed on its own: each ladder level has
    its own bracket, so one level costs one root solve."""
    g, k0 = spec.coupling, spec.kappa0
    # a zeta = pi/2 family member is the pure-power channel: the unique ladder at n = |m|
    if cell is RegimeClass.COUL_UNIQUE or spec.extension.is_half_pi:
        if g >= 0:
            return 0, None
        n = abs(spec.m)

        def atom(k: int) -> tuple[float, float]:
            big_n = 1 + n + 2 * k
            tau = abs(g) / big_n
            # residue of the resolvent diagonal: Q^2 = 2^(n+2) tau^(n+2) (1+k)_n
            # / (N kappa0^(n+1) n!^2); the integer factors cancel exactly first
            num, den = 2 ** (n + 2) * math.perm(k + n, n), big_n * math.factorial(n) ** 2
            common = math.gcd(num, den)
            q2 = (num // common) * tau ** (n + 2) / ((den // common) * k0 ** (n + 1))
            return -g * g / big_n**2, q2

        return None, atom
    m1 = cell is RegimeClass.COUL_M1_FAMILY
    t = math.tan(spec.zeta)
    cos2 = math.cos(spec.zeta) ** 2
    # levels solve f_1(E) = tan(zeta), respectively f_0(E) = -tan(zeta)
    m, target = (1, t) if m1 else (0, -t)

    h = _root_function(m, g, k0, target)

    def weighted(e: float) -> tuple[float, float]:
        if m1:
            return e, 1.0 / (k0 * cos2 * _f1_prime(e, g, k0))
        return e, 2.0 / (k0 * cos2 * _f0_prime(e, g, k0))

    if g < 0:
        # the ladder accumulates at E = 0: only a relative tolerance (a
        # negligible xtol) holds its roots to a few ulp there
        pole = lambda k: -g * g / (1 + m + 2 * k) ** 2
        return None, lambda n: weighted(cf.ladder_root(h, pole, n, 1e-300))
    if g == 0.0 and m1:
        return (0, None) if spec.zeta >= 0 else (1, lambda n: weighted(-(k0 * t) ** 2))
    if g == 0.0:
        e = -0.25 * k0**2 * math.exp(
            4.0 * sf.digamma(1.0).real - 2.0 * sf.digamma(0.5).real + 4.0 * t
        )
        return 1, lambda n: (e, 8.0 * abs(e) / (k0 * cos2))
    # g > 0: a zero-energy atom at the critical angle, one negative atom on one side
    t_c = _critical_tan(m, g, k0)
    if abs(t - t_c) <= 1e-12 * max(1.0, abs(t_c)):
        return 1, lambda n: (0.0, (3.0 if m1 else 24.0) * g * g / (k0 * cos2))
    if (t > t_c) == m1:
        return 0, None
    # the single negative root: the family function is pole-free for g > 0
    lo = -1e4 * max(abs(g), k0) ** 2
    return 1, lambda n: weighted(cf.family_root(h, lo, -1e-12, 5e-16, span=-lo))


def _coul_continuum(spec: ProblemSpec, cell: RegimeClass):
    """(density, support) of the cell's continuous part; no atom is solved for."""
    if spec.theory is not Theory.COULOMB:
        raise ValidationError("the Coulomb spectral functions need a Coulomb spec")
    g, k0 = spec.coupling, spec.kappa0
    if cell is RegimeClass.COUL_UNIQUE:
        return _density_unique(spec.m, g, k0), "R+"
    m1 = cell is RegimeClass.COUL_M1_FAMILY

    def parts(E: float) -> tuple[float, float]:
        """(density at zeta = pi/2, Im f) at E + i0 in closed form; zero off R+."""
        if E <= 0:
            return 0.0, 0.0
        p = math.sqrt(E)
        if not m1:
            b0 = cf.one_minus_tanh(math.pi * g / (2.0 * p))
            return b0 / (2.0 * k0), 0.25 * math.pi * b0
        # Im f_1 = (pi g / kappa0) / expm1(pi g / p), regular at g = 0
        if g == 0.0:
            b1 = p / k0
        elif math.pi * g / p > 700.0:
            return 0.0, 0.0  # exponentially suppressed below the repulsive barrier
        else:
            b1 = math.pi * g / (k0 * math.expm1(math.pi * g / p))
        return b1 / (math.pi * k0), b1

    re_f = lambda E: coul_family_function(1 if m1 else 0, E, g, k0).real
    # Omega_{1,zeta} is the shared family Omega at -zeta
    zeta = -spec.zeta if m1 else spec.zeta
    return cf.family_density(re_f, parts, zeta, spec.extension.is_half_pi), "R+"


def coul_spectrum(spec: ProblemSpec, levels: int = 12) -> SpectralMeasure:
    """Full spectral measure for a Coulomb cell: R+ continuum plus the
    cell's negative atoms per the case tables."""
    return cf.measure(_coul_levels, _coul_continuum, spec, levels)


def coul_level(spec: ProblemSpec, k: int) -> tuple[float, float]:
    """The k-th discrete level and its weight (E_k, Q_k^2), solved for alone."""
    return cf.level(_coul_levels, spec, classify(spec), k)


def coul_density(spec: ProblemSpec, E: float) -> float:
    """Continuous spectral density sigma'(E) on R+; zero for E < 0."""
    return SpectralMeasure((), *_coul_continuum(spec, classify(spec))).density_at(E)


# --- Green function and resolvent diagonal ------------------------------------


def coul_spectral_omega(spec: ProblemSpec, energy: ComplexEnergy | complex) -> complex:
    """Resolvent diagonal coefficient: sigma'(E) = (1/pi) Im of this at E + i0."""
    cell = classify(spec)
    g, k0 = spec.coupling, spec.kappa0
    e = as_energy(energy)
    if cell is RegimeClass.COUL_UNIQUE:
        par = coul_parameters(spec.m, e, g)
        return cf.unique_omega(par.alpha, abs(spec.m), 2.0 * par.K / k0, k0)
    if cell is RegimeClass.COUL_M1_FAMILY:
        return cf.family_omega(coul_family_function(1, e, g, k0), -spec.zeta, 1.0, k0)
    return cf.family_omega(coul_family_function(0, e, g, k0), spec.zeta, 2.0, k0)


def coul_green(
    spec: ProblemSpec, x: float, y: float, energy: ComplexEnergy | complex
) -> complex:
    """Green function G(x, y; E) of the cell's operator, Im E > 0."""
    e = as_energy(energy)
    if e.value.imag <= 0:
        raise ValidationError("Green function requires Im E > 0 (use the density path)")
    hi, lo = max(x, y), min(x, y)
    if lo <= 0:
        raise ValidationError("x must be positive")
    return cf.green_row(_coul_green_row, spec, e)(hi, lo)


def _coul_green_row(spec: ProblemSpec, e: ComplexEnergy):
    """(hi, lo) -> G(hi, lo; E), hi >= lo, with omega and the C1/C3 plans, or
    the family pair and Omega, built once for the row."""
    cell = classify(spec)
    g, k0 = spec.coupling, spec.kappa0
    if cell is RegimeClass.COUL_UNIQUE:
        par = coul_parameters(spec.m, e, g)
        omega = cf.coefficients(par.alpha, abs(spec.m), 2.0 * par.K / k0, k0)[3]
        c3, c1 = _coul_at("C3", par, k0), _coul_at("C1", par, k0)
        return lambda hi, lo: c3(hi) * c1(lo) / omega
    om = coul_spectral_omega(spec, e)
    pair = _coul_pair(coul_parameters(spec.m, e, g), k0)
    # the pair is (C1, C4) or (C1, C2_0); at m = +-1 om is -Omega_{1,zeta}/kappa0
    weight = -1.0 / k0 if cell is RegimeClass.COUL_M1_FAMILY else 2.0 / k0
    return lambda hi, lo: cf.family_green(pair, om, spec.zeta, weight, hi, lo)


# --- eigenfunctions -------------------------------------------------------------


def coul_eigenfunction(spec: ProblemSpec, index_or_energy: int | float) -> RadialWave:
    """Normalized eigenfunction (int index -> discrete level, float -> energy)."""
    cell = classify(spec)
    energy, amp, bound = cf.eigen_amplitude(
        _coul_levels, _coul_continuum, spec, cell, index_or_energy
    )
    if energy == 0.0:
        raise ValidationError("the zero-energy atom has no closed-form eigenfunction here")
    par = coul_parameters(spec.m, energy, spec.coupling)
    if cell is RegimeClass.COUL_UNIQUE or spec.extension.is_half_pi:
        c1 = _coul_at("C1", par, spec.kappa0)
        ev = lambda x: (amp * c1(x)).real
        tag = f"x^({1 + abs(spec.m)}/2)"
    else:
        # a bound wave continues with C3 past x = 4/K, where K = sqrt(-E) > 0
        tail = (_coul_at("C3", par, spec.kappa0), 4.0 / par.K.real) if bound else ()
        ev = cf.family_wave(_coul_pair(par, spec.kappa0), spec.zeta, amp, *tail)
        if cell is RegimeClass.COUL_M1_FAMILY:
            tag = "x sin z + cos z (1 + g x ln(k0 x) + ...)"
        else:
            tag = "x^(1/2)*(sin z + (cos z / 2) ln(k0 x))"
    return RadialWave(ev, amp, tag, energy)
