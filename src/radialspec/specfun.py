"""Complex special functions for the closed-form radial solutions.

Log-gamma, digamma, trigamma and integer-order Bessel functions are
delegated to scipy.  The confluent-hypergeometric machinery (Kummer Phi,
Tricomi Psi at integer second parameter, the parameter-derivative series,
and the logarithmic Frobenius companion used by the fourth radial
solutions) is implemented here directly as power series with explicit
convergence control.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy import special as _sp

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "PoleError",
    "AccuracyError",
    "gamma_ln",
    "gamma_fn",
    "rgamma",
    "digamma",
    "trigamma",
    "pochhammer",
    "kummer_m",
    "tricomi_u",
    "kummer_m_param_derivative",
    "kummer_m_with_param_derivative",
    "kummer_log_channel",
    "kummer_log_companion",
    "degenerate_log_index",
    "frobenius_poly",
    "bessel",
]

_INT_TOL = 1e-12
EULER_GAMMA = 0.5772156649015329  # -psi(1)


@dataclass(frozen=True)
class SeriesControl:
    """Convergence knobs shared by every series evaluator."""

    rel_tol: float = 1e-13
    max_terms: int = 500
    asymptotic_switch_radius: float = 30.0

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not self.asymptotic_switch_radius > 0:
            raise ValueError("asymptotic_switch_radius must be positive")


DEFAULT_CONTROL = SeriesControl()


class PoleError(ArithmeticError):
    """Evaluation requested exactly at a pole."""

    def __init__(self, where: int, what: str = "gamma"):
        self.where = where
        super().__init__(f"{what} pole at non-positive integer {where}")


class AccuracyError(ArithmeticError):
    """A series (or another evaluation, named by `what`) failed to reach the
    requested tolerance."""

    def __init__(self, achieved: float, requested: float, what: str = "series"):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"{what} reached relative accuracy {achieved:.3e}, requested {requested:.3e}"
        )


def _nonpositive_int(z: complex) -> int | None:
    """Return n if z is (numerically) a non-positive integer n, else None."""
    z = complex(z)
    if abs(z.imag) > _INT_TOL:
        return None
    n = round(z.real)
    if n <= 0 and abs(z.real - n) <= _INT_TOL * max(1.0, abs(n)):
        return n
    return None


def gamma_ln(z: complex) -> complex:
    """Principal-branch log-gamma; exp(gamma_ln(z)) == Gamma(z)."""
    p = _nonpositive_int(z)
    if p is not None:
        raise PoleError(p)
    return complex(_sp.loggamma(complex(z)))


def gamma_fn(z: complex) -> complex:
    return cmath.exp(gamma_ln(z))


def rgamma(z: complex) -> complex:
    """1/Gamma(z); entire, zero at the poles of Gamma."""
    if _nonpositive_int(z) is not None:
        return 0.0 + 0.0j
    return cmath.exp(-complex(_sp.loggamma(complex(z))))


def digamma(z: complex) -> complex:
    """psi(z); SciPy's real digamma on x > 0, where its complex one is ~20 ulp
    off, and the complex one elsewhere (the real reflection is worse)."""
    p = _nonpositive_int(z)
    if p is not None:
        raise PoleError(p, "digamma")
    z = complex(z)
    if z.imag == 0 and z.real > 0:
        return complex(_sp.digamma(z.real))
    return complex(_sp.digamma(z))


def trigamma(x: float) -> float:
    """psi'(x) for real x (reflection handles x < 0)."""
    p = _nonpositive_int(complex(x))
    if p is not None:
        raise PoleError(p, "trigamma")
    if x > 0:
        return float(_sp.polygamma(1, x))
    # reflection: psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x)
    s = math.sin(math.pi * x)
    return math.pi**2 / (s * s) - float(_sp.polygamma(1, 1.0 - x))


def pochhammer(z: complex, n: int) -> complex:
    """(z)_n = z (z+1) ... (z+n-1), n >= 0."""
    if n < 0:
        raise ValueError("pochhammer order must be non-negative")
    out = 1.0 + 0.0j
    z = complex(z)
    for k in range(n):
        out *= z + k
    return out


# --- Kummer Phi -------------------------------------------------------------


def _kummer_series(a: complex, b: complex, z: complex, ctl: SeriesControl) -> complex:
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    az = abs(z)
    for k in range(ctl.max_terms):
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        if k > az and abs(term) <= ctl.rel_tol * abs(s):
            return s
    raise AccuracyError(abs(term) / max(abs(s), 1e-300), ctl.rel_tol)


def _asymptotic_sum(num1: complex, num2: complex, zinv: complex, ctl: SeriesControl) -> complex:
    """sum_s (num1)_s (num2)_s zinv^s / s!, truncated at the smallest term."""
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    best = abs(term)
    for k in range(ctl.max_terms):
        term *= (num1 + k) * (num2 + k) * zinv / (k + 1)
        if abs(term) >= best:
            break  # divergent tail reached
        best = abs(term)
        s += term
        if abs(term) <= ctl.rel_tol * abs(s):
            break
    return s


def _kummer_asymptotic(a: complex, b: complex, z: complex, ctl: SeriesControl) -> complex:
    # DLMF 13.7.2 with both Poincare contributions.
    s1 = _asymptotic_sum(b - a, 1 - a, 1.0 / z, ctl)
    s2 = _asymptotic_sum(a, a - b + 1, -1.0 / z, ctl)
    sign = 1.0 if cmath.phase(z) > -math.pi / 2 else -1.0
    t1 = cmath.exp(z + (a - b) * cmath.log(z)) * rgamma(a) * s1
    t2 = cmath.exp(sign * 1j * math.pi * a - a * cmath.log(z)) * rgamma(b - a) * s2
    return gamma_fn(b) * (t1 + t2)


def _plain_series(a: complex, z: complex, ctl: SeriesControl) -> bool:
    """True where kummer_m sums Phi's plain power series, so that the same sum
    from kummer_log_companion or kummer_m_with_param_derivative stands in."""
    return z.real >= 0 and abs(z) <= ctl.asymptotic_switch_radius and _nonpositive_int(a) is None


def kummer_m(
    a: complex, b: complex, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Kummer's confluent hypergeometric Phi(a, b; z).

    For Re z < 0 the Kummer transformation Phi(a,b;z) = e^z Phi(b-a,b;-z)
    is applied first, so the series is always summed on the stable side.
    """
    a, b, z = complex(a), complex(b), complex(z)
    pb = _nonpositive_int(b)
    if pb is not None:
        raise PoleError(pb, "kummer_m second parameter")
    if z == 0:
        return 1.0 + 0.0j
    if _plain_series(a, z, ctl):
        return _kummer_series(a, b, z, ctl)
    if z.real < 0:
        return cmath.exp(z) * kummer_m(b - a, b, -z, ctl)
    pa = _nonpositive_int(a)
    if pa is not None:
        # terminating polynomial of degree -pa
        s = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(-pa):
            term *= (a + k) * z / ((b + k) * (k + 1))
            s += term
        return s
    return _kummer_asymptotic(a, b, z, ctl)


# --- logarithmic Frobenius companion ----------------------------------------


def degenerate_log_index(a: complex, n: int) -> int | None:
    """Integer l0 in [1, n] with a = l0, where sigma_a in the logarithmic
    companion has a pole (removable in any product with (1-a)_n); None else."""
    if abs(a.imag) > 1e-12:
        return None
    l0 = round(a.real)
    if 1 <= l0 <= n and abs(a - l0) < 1e-12:
        return l0
    return None


def frobenius_poly(
    a: complex, n: int, z: complex
) -> complex:
    """Terminating Frobenius polynomial P = sum_{k<n} (a-n)_k / ((1-n)_k k!) z^k
    attached to the subdominant small-radius channel (P = 0 for n = 0)."""
    p = 0.0 + 0.0j
    if n >= 1:
        term = 1.0 + 0.0j
        p = term
        for k in range(n - 1):
            term *= (a - n + k) * z / ((1 - n + k) * (k + 1))
            p += term
    return p


def kummer_log_companion(
    a: complex, n: int, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[complex, complex, complex]:
    """Series blocks for the logarithmic second solution at integer b = n+1.

    Returns (S1, S0, P) with

        S1 = sum_k c_k z^k,                       c_k = (a)_k / ((n+1)_k k!)
        S0 = sum_k c_k z^k [h_k(a) + sigma_a/2 - psi(k+1) - psi(n+k+1)]
        P  = sum_{k=0}^{n-1} (a-n)_k / ((1-n)_k k!) z^k          (P = 0 for n = 0)

    where h_k(a) = sum_{j<k} 1/(a+j) and sigma_a = sum_{l=1}^n 1/(a-l).
    S1 is just Phi(a, n+1; z); S0 carries the digamma-free bracket so the
    caller can attach the logarithm appropriate to its variable.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, z = complex(a), complex(z)
    if degenerate_log_index(a, n) is not None:
        raise PoleError(
            int(round(a.real)),
            "kummer_log_companion sigma_a (take the (1-a)_n * S0 limit instead)",
        )
    sigma_a = sum(1.0 / (a - l) for l in range(1, n + 1))
    p = frobenius_poly(a, n, z)
    # S1 and S0 summed together so they share one convergence decision,
    # which also holds S1 to kummer_m's own rule; psi(1) = -gamma and
    # psi(n + 1) = H_n - gamma
    c = 1.0 + 0.0j
    brk = 0.5 * sigma_a + EULER_GAMMA - (math.fsum(1.0 / l for l in range(1, n + 1)) - EULER_GAMMA)
    s1, s0 = c, c * brk
    az = abs(z)
    zero = _pochhammer_zero(a, ctl)
    for k in range(zero):
        brk = brk + 1.0 / (a + k) - 1.0 / (k + 1) - 1.0 / (n + k + 1)
        c *= (a + k) * z / ((n + 1 + k) * (k + 1))
        s1 += c
        s0 += c * brk
        scale = ctl.rel_tol * max(abs(s1), abs(s0))
        if k > az and abs(c) <= ctl.rel_tol * abs(s1) and abs(c) * (1.0 + abs(brk)) <= scale:
            return s1, s0, p
    if zero == ctl.max_terms:
        raise AccuracyError(abs(c) / max(abs(s1), 1e-300), ctl.rel_tol)
    # S1 has terminated; the bracket's 1/(a + zero) takes the place of the zero
    r = c * z / ((n + 1 + zero) * (zero + 1))
    return s1, _pole_tail(s0, r, a, n + 1, z, zero + 1, abs(s1), ctl), p


def kummer_log_channel(
    a: complex, n: int, z: complex, log_r: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[complex, complex, complex]:
    """(Phi, P, L) of a fourth radial solution at integer b = n + 1 >= 2:
    Phi(a, n+1; z), the Frobenius polynomial P, and L = (1-a)_n (log_r S1 + S0)
    or, at a = l0 in [1, n], its limit: the residue of (1-a)_n sigma_a / 2
    times Phi.  Phi is S1 itself where kummer_m would sum the same series."""
    l0 = degenerate_log_index(a, n)
    if l0 is not None:
        phi = kummer_m(a, n + 1, z, ctl)
        lim = 0.5 * (-1.0) ** l0 * math.factorial(l0 - 1) * math.factorial(n - l0)
        return phi, frobenius_poly(a, n, z), lim * phi
    s1, s0, p = kummer_log_companion(a, n, z, ctl)
    phi = s1 if _plain_series(a, z, ctl) else kummer_m(a, n + 1, z, ctl)
    return phi, p, pochhammer(1 - a, n) * (log_r * s1 + s0)


def _pochhammer_zero(a: complex, ctl: SeriesControl) -> int:
    """J with a + J == 0 exactly, capped at ctl.max_terms (also returned when
    a is not a non-positive integer): (a)_k vanishes for every k > J."""
    if a.imag == 0 and a.real <= 0 and a.real.is_integer():
        return min(-int(a.real), ctl.max_terms)
    return ctl.max_terms


def _pole_tail(s, r, a, b, z, k0: int, scale: float, ctl: SeriesControl) -> complex:
    """s plus the terms k >= k0 of a series differentiated in a, at a = 1 - k0:
    there (a)_k vanishes and h_k(a) has the pole 1/(a + k0 - 1), so T_k h_k
    tends to T_k / (a + k0 - 1), with first term r, and the rest of h_k
    drops out with T_k."""
    s += r
    az = abs(z)
    for k in range(k0, ctl.max_terms):
        r *= (a + k) * z / ((b + k) * (k + 1))
        s += r
        if k > az and abs(r) <= ctl.rel_tol * max(abs(s), scale):
            return s
    raise AccuracyError(abs(r) / max(abs(s), 1e-300), ctl.rel_tol)


# --- Tricomi Psi ------------------------------------------------------------


def _tricomi_asymptotic(a: complex, b: complex, z: complex, ctl: SeriesControl) -> complex:
    return cmath.exp(-a * cmath.log(z)) * _asymptotic_sum(a, a - b + 1, -1.0 / z, ctl)


def tricomi_u(
    a: complex, b_int: int, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Tricomi Psi(a, b; z) for integer b, principal branch of ln z.

    Uses the explicit logarithmic series at integer b (via
    kummer_log_companion), the terminating form when a is a non-positive
    integer, and the 2F0 expansion for large |z|.
    """
    a = complex(a)
    b_int = int(b_int)
    z = complex(z)
    if b_int < 1:
        # Psi(a,b;z) = z^{1-b} Psi(a-b+1, 2-b; z), and 2-b >= 1 here
        return cmath.exp((1 - b_int) * cmath.log(z)) * tricomi_u(a - b_int + 1, 2 - b_int, z, ctl)
    pa = _nonpositive_int(a)
    if pa is not None:
        # terminating case: Psi(-k, b; z) = (-1)^k (b)_k Phi(-k, b; z)
        k = -pa
        return (-1.0) ** k * pochhammer(b_int, k) * kummer_m(a, b_int, z, ctl)
    if z == 0:
        raise PoleError(0, "tricomi_u at z = 0 (logarithmic)")
    pc = _nonpositive_int(a - b_int + 1)
    if pc is not None:
        # Psi = z^{-a} 2F0(a, a-b+1;; -1/z) terminates when a-b+1 <= 0
        term = 1.0 + 0.0j
        s = term
        for k in range(-pc):
            term *= (a + k) * (a - b_int + 1 + k) * (-1.0 / z) / (k + 1)
            s += term
        return cmath.exp(-a * cmath.log(z)) * s
    if abs(z) > ctl.asymptotic_switch_radius:
        return _tricomi_asymptotic(a, b_int, z, ctl)
    n = b_int - 1
    s1, s0, p = kummer_log_companion(a, n, z, ctl)
    # DLMF 13.2.9 rearranged: psi(a+k) = psi(a) + h_k(a)
    log_part = s1 * (cmath.log(z) + digamma(a) - 0.5 * sum(1.0 / (a - l) for l in range(1, n + 1)))
    out = ((-1.0) ** (n + 1) / math.factorial(n)) * rgamma(a - n) * (log_part + s0)
    if n >= 1:
        out += math.factorial(n - 1) * rgamma(a) * cmath.exp(-n * cmath.log(z)) * p
    return out


# --- parameter derivative of Phi --------------------------------------------


def kummer_m_with_param_derivative(
    a: complex, b: complex, z: complex, da: float, db: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[complex, complex]:
    """Phi(a,b;z) and its directional derivative along (da, db) in the
    parameters, from one pass over the term-wise differentiated series: the
    k-th term of Phi picks up the factor da*h_k(a) - db*h_k(b) with
    h_k(x) = sum_{j<k} 1/(x+j).  Where kummer_m would not sum that series,
    Phi is kummer_m's value."""
    a, b, z = complex(a), complex(b), complex(z)
    pb = _nonpositive_int(b)
    if pb is not None:
        raise PoleError(pb, "kummer_m_param_derivative second parameter")
    plain = _plain_series(a, z, ctl)
    term, g, s, ds = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j, 0.0j
    az = abs(z)
    zero = _pochhammer_zero(a, ctl)
    for k in range(zero):
        g = g + da / (a + k) - db / (b + k)
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        ds += term * g
        if (
            k > az
            and abs(term) * (1.0 + abs(g)) <= ctl.rel_tol * max(abs(ds), 1e-300)
            and (not plain or abs(term) <= ctl.rel_tol * abs(s))
        ):
            break
    else:
        if zero == ctl.max_terms:
            raise AccuracyError(abs(term) / max(abs(ds), 1e-300), ctl.rel_tol)
        # Phi has terminated; da / (a + zero) takes the place of the zero
        ds = _pole_tail(ds, da * term * z / ((b + zero) * (zero + 1)), a, b, z, zero + 1, 0.0, ctl)
    return (s if plain else kummer_m(a, b, z, ctl)), ds


def kummer_m_param_derivative(
    a: complex, b: complex, z: complex, da: float, db: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Directional derivative of Phi(a,b;z) along (da, db) in its parameters:
    the derivative half of kummer_m_with_param_derivative."""
    return kummer_m_with_param_derivative(a, b, z, da, db, ctl)[1]


# --- Bessel ------------------------------------------------------------------


def bessel(
    kind: str, order: int, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Integer-order Bessel J/Y/H1 at complex argument (principal branch)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    z = complex(z)
    if kind == "J":
        return complex(_sp.jv(order, z))
    if z == 0:
        raise PoleError(0, f"bessel {kind} at z = 0")
    if kind == "Y":
        return complex(_sp.yv(order, z))
    if kind == "H1":
        return complex(_sp.hankel1(order, z))
    raise ValueError(f"unknown Bessel kind {kind!r}")
