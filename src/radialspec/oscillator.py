"""Oscillator-like radial closed forms.

Solutions O1/O3/O4 (plus the logarithmic O2 channel at m=0 and Bessel
forms at lambda=0), coefficient functions, Green kernels and the full
spectral measure for every (m, sign lambda, zeta) cell of

    h_m = -d^2/du^2 + u^{-2}(m^2 - 1/4) + lambda u^2   on (0, inf).
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
    "OscCoefficients",
    "osc_parameters",
    "osc_solution",
    "osc_coefficients",
    "osc_family_function",
    "osc_spectrum",
    "osc_density",
    "osc_green",
    "osc_spectral_omega",
    "osc_eigenfunction",
]

@dataclass(frozen=True)
class OscCoefficients:
    """Confluent-hypergeometric bookkeeping for one (m, W, lambda) point."""

    varkappa: complex  # lambda^{1/4}, e^{-i pi/4}|lambda|^{1/4} for lambda < 0
    w: complex  # W / (4 varkappa^2)
    alpha: complex  # (1 + |m|)/2 - w
    alpha_minus: complex  # alpha - |m|
    beta: int  # 1 + |m|

    def rho(self, u: float) -> complex:
        return (self.varkappa * u) ** 2


def _varkappa(lam: complex) -> complex:
    """lambda^{1/4} on the branch fixed by the energy half-plane convention:
    real positive for lambda > 0, e^{-i pi/4}|lambda|^{1/4} for lambda < 0,
    continuous across the lower half lambda-plane (Im lambda <= 0)."""
    if lam == 0:
        raise ValidationError("varkappa undefined at lambda = 0 (Bessel regime)")
    # sqrt(lambda) with arg in [-pi, 0] equals the forward root of -lambda
    # reflected: as_energy(-lam).sqrt_minus() is exactly that branch.
    return cmath.sqrt(as_energy(-lam).sqrt_minus())


def _osc_r(par: OscCoefficients, kappa0: float) -> complex:
    """r = varkappa^2 / kappa0^2 of the shared confluent formulas, from the
    same rounded varkappa^2 as alpha, so that their rounding errors cancel
    where the formulas combine r with alpha."""
    return par.varkappa * par.varkappa / kappa0**2


def osc_parameters(m: int, W: complex, lam: complex) -> OscCoefficients:
    vk = _varkappa(lam)
    w = complex(W) / (4.0 * vk * vk)
    n = abs(m)
    alpha = 0.5 * (1 + n) - w
    return OscCoefficients(vk, w, alpha, alpha - n, 1 + n)


# --- solutions ---------------------------------------------------------------


def osc_solution(
    kind: str,
    m: int,
    u: float,
    W: ComplexEnergy | complex | float,
    lam: float,
    kappa0: float = 1.0,
) -> complex:
    """Evaluate a named solution O1 | O3 | O4 | O2_0 at radius u.

    O1, O4 and O2_0 are real-entire in W (real values on the real axis);
    O3 is the decaying-at-infinity channel for Im W > 0.
    """
    if u <= 0:
        raise ValidationError("u must be positive")
    if kind == "O2_0" and m != 0:
        raise ValidationError("O2_0 exists only for m = 0")
    if kind == "O4" and m == 0:
        raise ValidationError("O4 exists only for |m| >= 1")
    return _osc_at(kind, m, as_energy(W), lam, kappa0)(u)


def _osc_at(kind: str, m: int, e: ComplexEnergy, lam: float, kappa0: float):
    """u -> the named solution at energy e, with the energy's constants built
    once."""
    if kind == "O2_0":
        pair = _osc_pair(e, lam, kappa0)
        return lambda u: pair(u)[1]
    if lam == 0:
        return _osc_free_at(kind, m, e, kappa0)
    return _osc_par_at(kind, osc_parameters(m, e.value, lam), kappa0)


def _osc_par_at(kind: str, par: OscCoefficients, kappa0: float):
    """u -> O1, O3 or O4 at the energy of `par` (lambda != 0), whose
    constants are built once by the caller."""
    n = par.beta - 1
    if kind == "O4":
        rest = (par.varkappa / kappa0) ** (2 * n) / (math.factorial(n - 1) * math.factorial(n))
        pair = cf.log_pair(par.alpha, n, par.rho, 0.5 - n, 0.5 + n, 2.0, rest, kappa0)
        return lambda u: pair(u)[1]
    series = {"O1": sf._KummerPlan, "O3": sf._TricomiPlan}.get(kind)
    if series is None:
        raise ValidationError(f"unknown oscillator solution kind {kind!r}")
    return cf.series_solution(series, par.alpha, par.beta, par.rho, 0.5 + n, kappa0)


def _osc_pair(e: ComplexEnergy, lam: float, kappa0: float):
    """u -> (O1, O2_0) for m = 0 from one series pass per point (one J0/H1
    pair at lambda = 0): the n = 0 log channel carries O1's Phi along."""
    if lam == 0:
        o1, o3 = _osc_free_at("O1", 0, e, kappa0), _osc_free_at("O3", 0, e, kappa0)
        om00 = _omega00(e, kappa0)

        def free_pair(u: float) -> tuple[complex, complex]:
            v1 = o1(u)
            return v1, o3(u) + om00 * v1

        return free_pair
    par = osc_parameters(0, e.value, lam)
    return cf.m0_pair(par.alpha, par.rho, 1.0, kappa0)


def _osc_free_at(kind: str, m: int, e: ComplexEnergy, kappa0: float):
    """u -> O1, O3 or O4 at lambda = 0, Bessel functions of K u, with K and
    the normalizations built once per energy."""
    if e.value == 0:
        raise ValidationError("lambda = 0 Bessel solutions need W != 0")
    K, n = e.sqrt_forward(), abs(m)
    if n == 0:
        if kind == "O1":
            return lambda u: (kappa0 * u) ** 0.5 * sf.bessel("J", 0, K * u)
        if kind == "O3":
            return lambda u: -0.5j * math.pi * (kappa0 * u) ** 0.5 * sf.bessel("H1", 0, K * u)
        raise ValidationError(f"unknown m=0 solution kind {kind!r}")
    d1 = kappa0**0.5 * math.factorial(n) * (K / (2 * kappa0)) ** (-n)
    d3 = math.pi * kappa0**0.5 * (K / (2 * kappa0)) ** n / math.factorial(n - 1)
    if kind == "O1":
        return lambda u: d1 * u**0.5 * sf.bessel("J", n, K * u)
    if kind == "O3":
        return lambda u: 1j * d3 * u**0.5 * sf.bessel("H1", n, K * u)
    if kind == "O4":
        log_k = cmath.log(K / kappa0)
        return lambda u: d3 * u**0.5 * (
            sf.bessel("Y", n, K * u) - (2.0 / math.pi) * sf.bessel("J", n, K * u) * log_k
        )
    raise ValidationError(f"unknown oscillator solution kind {kind!r}")


# --- coefficient functions ----------------------------------------------------


def osc_coefficients(
    m: int, W: ComplexEnergy | complex | float, lam: float, kappa0: float = 1.0
) -> tuple[complex, complex, complex, complex]:
    """(A_m, B_m, C_m, omega) for |m| >= 1, lambda != 0.

    O3 = B_m O1 + C_m O4 pointwise; Wr(O1, O3) = -2 kappa0 |m| C_m = -omega.
    """
    if abs(m) < 1 or lam == 0:
        raise ValidationError("coefficients defined for |m| >= 1, lambda != 0")
    par = osc_parameters(m, as_energy(W).value, lam)
    return cf.coefficients(par.alpha, abs(m), _osc_r(par, kappa0), 2.0 * kappa0)


def _omega00(W: ComplexEnergy, kappa0: float) -> complex:
    """m=0, lambda=0 analogue: i pi/2 + psi(1) - ln(K / 2 kappa0)."""
    K = W.sqrt_forward()
    return 0.5j * math.pi - sf.EULER_GAMMA - cmath.log(K / (2.0 * kappa0))


def osc_family_function(
    W: ComplexEnergy | complex | float, lam: float, kappa0: float = 1.0
) -> complex:
    """m=0 eigenvalue function f(W): discrete levels solve f(E) + tan(zeta) = 0."""
    e = as_energy(W)
    if lam == 0:
        return _omega00(e, kappa0)
    par = osc_parameters(0, e.value, lam)
    return cf.m0_family_function(par.alpha, cmath.log(_osc_r(par, kappa0)), sf.digamma)


# --- spectral data -------------------------------------------------------------


def _density_m_neg(m: int, lam: float, kappa0: float):
    """|m|>=1, lambda<0: continuous density on the whole real axis."""
    n = abs(m)
    gb2 = math.factorial(n) ** 2  # Gamma(1 + |m|)^2
    root = math.sqrt(-lam)
    scale = (root / kappa0**2) ** n

    def density(E: float) -> float:
        et = E / (4.0 * root)
        if n % 2 == 1:
            j = (n - 1) // 2
            q = scale * math.prod((l * l + et * et) for l in range(1, j + 1))
            # e~ (coth(pi e~) + 1) = 2 e~ / (1 - exp(-2 pi e~)), regular at 0
            if et == 0.0:
                core = 1.0 / math.pi
            else:
                core = 2.0 * et / (-math.expm1(-2.0 * math.pi * et))
            return q * core / (4.0 * kappa0 * gb2)
        j = n // 2
        q = scale * math.prod(((l + 0.5) ** 2 + et * et) for l in range(j))
        return q * cf.one_minus_tanh(-math.pi * et) / (4.0 * kappa0 * gb2)

    return density


def _density_m_free(m: int, kappa0: float):
    n = abs(m)

    def density(E: float) -> float:
        if E <= 0:
            return 0.0
        p = math.sqrt(E)
        rho = (p / (2 * kappa0)) ** n / (math.sqrt(2 * kappa0) * math.factorial(n))
        return rho * rho

    return density


def _root_function(lam: float, kappa0: float, target: float):
    """(h, 4 varkappa^2) for lambda > 0: h(E) = osc_family_function(E).real
    - target on real E, bit for bit, from one real psi.  alpha and r come
    from the one rounded varkappa^2 as in osc_parameters and _osc_r; it and
    ln r are built once here."""
    vk = _varkappa(lam).real
    four_vk2, log_r = 4.0 * vk * vk, cmath.log(vk * vk / kappa0**2).real
    h = lambda E: cf.m0_family_function(0.5 - E / four_vk2, log_r, sf._psi_real) - target
    return h, four_vk2


def _osc_levels(spec: ProblemSpec, cell: RegimeClass):
    """(number of atoms, None for an infinite ladder; k -> the k-th atom
    (E_k, Q_k^2)).  Every atom is computed on its own: each ladder level has
    its own bracket, so one level costs one root solve."""
    lam, k0 = spec.coupling, spec.kappa0
    if lam > 0:
        sq = 2.0 * math.sqrt(lam)
        # a zeta = pi/2 family member is the pure-power channel: the unique ladder at n = |m|
        if spec.m != 0 or spec.extension.is_half_pi:
            n = abs(spec.m)

            def atom(k: int) -> tuple[float, float]:
                # Q^2 = sq^(n+1) (1+k)_n / (2^n kappa0^(2n+1) n!^2); the integer
                # factors cancel exactly first
                num, den = math.perm(k + n, n), 2**n * math.factorial(n) ** 2
                common = math.gcd(num, den)
                q2 = (num // common) * sq ** (n + 1) / ((den // common) * k0 ** (2 * n + 1))
                return sq * (1 + n + 2 * k), q2

            return None, atom
        zeta = spec.zeta
        h, four_vk2 = _root_function(lam, k0, -math.tan(zeta))
        pole = lambda j: sq * (1 + 2 * j)

        def root(k: int) -> tuple[float, float]:
            e = cf.ladder_root(h, pole, k, 1e-300)
            # weight: residue of -(1/(pi k0 cos^2 z)) Im 1/(f + tan z)
            fprime = sf.trigamma(0.5 - e / four_vk2) / (8.0 * math.sqrt(lam))
            return e, 1.0 / (k0 * math.cos(zeta) ** 2 * fprime)

        return None, root
    if cell is RegimeClass.OSC_M0_LAMBDA_ZERO and not spec.extension.is_half_pi:
        zeta = spec.zeta
        e_b = -4.0 * k0 * k0 * math.exp(2.0 * (-sf.EULER_GAMMA + math.tan(zeta)))
        return 1, lambda k: (e_b, 2.0 * abs(e_b) / (k0 * math.cos(zeta) ** 2))
    return 0, None


def _osc_continuum(spec: ProblemSpec, cell: RegimeClass):
    """(density, support) of the cell's continuous part; no atom is solved for."""
    if spec.theory is not Theory.OSCILLATOR:
        raise ValidationError("the oscillator spectral functions need an oscillator spec")
    lam, k0 = spec.coupling, spec.kappa0
    if cell is RegimeClass.OSC_M_POS_LAMBDA_NEG:
        return _density_m_neg(spec.m, lam, k0), "R"
    if cell is RegimeClass.OSC_M_POS_LAMBDA_ZERO:
        return _density_m_free(spec.m, k0), "R+"
    if cell is RegimeClass.OSC_M0_LAMBDA_NEG:
        root = math.sqrt(-lam)

        def parts(E: float) -> tuple[float, float]:
            # Im f(E + i0) = (pi/4)(1 + tanh(pi E / 4 sqrt|lambda|)), as in _density_m_neg
            half = cf.one_minus_tanh(-math.pi * E / (4.0 * root))
            return half / (4.0 * k0), 0.25 * math.pi * half

        re_f = lambda E: osc_family_function(E, lam, k0).real
        support = "R"
    elif cell is RegimeClass.OSC_M0_LAMBDA_ZERO:
        parts = lambda E: (0.5 / k0, 0.5 * math.pi) if E > 0 else (0.0, 0.0)
        re_f = lambda E: -sf.EULER_GAMMA - 0.5 * math.log(E / (4.0 * k0**2))
        support = "R+"
    else:
        return None, "empty"
    return cf.family_density(re_f, parts, spec.zeta, spec.extension.is_half_pi), support


def osc_spectrum(spec: ProblemSpec, levels: int = 12) -> SpectralMeasure:
    """Full spectral measure (atoms with weights Q_n^2 and/or density) for a cell."""
    return cf.measure(_osc_levels, _osc_continuum, spec, levels)


def osc_density(spec: ProblemSpec, E: float) -> float:
    """Continuous spectral density sigma'(E); zero off the support."""
    return SpectralMeasure((), *_osc_continuum(spec, classify(spec))).density_at(E)


# --- Green function and resolvent diagonal ------------------------------------


def osc_spectral_omega(spec: ProblemSpec, W: ComplexEnergy | complex) -> complex:
    """Resolvent diagonal coefficient: sigma'(E) = (1/pi) Im of this at E + i0."""
    cell = classify(spec)
    lam, k0 = spec.coupling, spec.kappa0
    e = as_energy(W)
    if cell is RegimeClass.OSC_M_POS_LAMBDA_POS or cell is RegimeClass.OSC_M_POS_LAMBDA_NEG:
        par = osc_parameters(spec.m, e.value, lam)
        return cf.unique_omega(par.alpha, abs(spec.m), _osc_r(par, k0), 2.0 * k0)
    if cell is RegimeClass.OSC_M_POS_LAMBDA_ZERO:
        n = abs(spec.m)
        K = e.sqrt_forward()
        om = (e.value / (4.0 * k0 * k0)) ** n / math.factorial(n) ** 2
        return (math.pi / (2.0 * k0)) * om * (1j - (2.0 / math.pi) * cmath.log(K / k0))
    # the m = 0 families, lambda = 0 included, share the halved convention
    return cf.family_omega(osc_family_function(e, lam, k0), spec.zeta, 1.0, k0)


def osc_green(
    spec: ProblemSpec, u: float, v: float, W: ComplexEnergy | complex
) -> complex:
    """Green function G(u, v; W) of the cell's self-adjoint operator, Im W > 0."""
    e = as_energy(W)
    if e.value.imag <= 0:
        raise ValidationError("Green function requires Im W > 0 (use the density path)")
    hi, lo = max(u, v), min(u, v)
    if lo <= 0:
        raise ValidationError("u must be positive")
    return cf.green_row(_osc_green_row, spec, e)(hi, lo)


def _osc_green_row(spec: ProblemSpec, e: ComplexEnergy):
    """(hi, lo) -> G(hi, lo; W), hi >= lo, with omega and the O1/O3 plans, or
    the family pair and Omega, built once for the row."""
    cell = classify(spec)
    lam, k0 = spec.coupling, spec.kappa0
    if spec.m != 0:
        if cell is RegimeClass.OSC_M_POS_LAMBDA_ZERO:
            omega = 2.0 * k0 * abs(spec.m)
            o3, o1 = _osc_at("O3", spec.m, e, lam, k0), _osc_at("O1", spec.m, e, lam, k0)
        else:
            par = osc_parameters(spec.m, e.value, lam)
            omega = cf.coefficients(par.alpha, abs(spec.m), _osc_r(par, k0), 2.0 * k0)[3]
            o3, o1 = _osc_par_at("O3", par, k0), _osc_par_at("O1", par, k0)
        return lambda hi, lo: o3(hi) * o1(lo) / omega
    om = osc_spectral_omega(spec, e)
    pair = _osc_pair(e, lam, k0)
    return lambda hi, lo: cf.family_green(pair, om, spec.zeta, 1.0 / k0, hi, lo)


# --- eigenfunctions -------------------------------------------------------------


def osc_eigenfunction(spec: ProblemSpec, index_or_energy: int | float) -> RadialWave:
    """Normalized eigenfunction (int index -> discrete level, float -> energy)."""
    cell = classify(spec)
    n = abs(spec.m)
    energy, amp, bound = cf.eigen_amplitude(
        _osc_levels, _osc_continuum, spec, cell, index_or_energy
    )
    e = as_energy(energy)
    if n >= 1 or spec.extension.is_half_pi:
        o1 = _osc_at("O1", spec.m, e, spec.coupling, spec.kappa0)
        ev = lambda u: (amp * o1(u)).real
        tag = f"u^({1 + 2 * n}/2)"
    else:
        lam, k0 = spec.coupling, spec.kappa0
        tail = ()
        if bound:  # continue with O3 past u_switch; a lam = 0 atom has E < 0
            u_switch = math.sqrt(8.0) / lam**0.25 if lam > 0 else 4.0 / math.sqrt(-e.value.real)
            tail = (_osc_at("O3", 0, e, lam, k0), u_switch)
        ev = cf.family_wave(_osc_pair(e, lam, k0), spec.zeta, amp, *tail)
        tag = "u^(1/2)*(sin z + cos z ln(k0 u))"
    return RadialWave(ev, amp, tag, energy)
