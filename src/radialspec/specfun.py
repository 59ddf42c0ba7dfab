"""Complex special functions for the closed-form radial solutions.

Log-gamma, digamma, trigamma and integer-order Bessel functions are
delegated to scipy.  The confluent-hypergeometric machinery (Kummer Phi,
Tricomi Psi at integer second parameter, the parameter-derivative series,
and the logarithmic Frobenius companion used by the fourth radial
solutions) is implemented here directly as power series with explicit
convergence control.  Each of these kernels is a plan built once per
parameter set (a, b), holding everything that does not depend on z, and
summed per point; the solution closures keep one plan per energy and sum it
at every radius.
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


# --- per-parameter plans ----------------------------------------------------
#
# Each confluent kernel below is a plan, built once per parameter set, and a
# sum per point z.  The plan holds what does not depend on z: the pole,
# terminating and degeneracy checks, the Gamma and digamma factors, the
# Frobenius-polynomial coefficients and the bracket sequences of the
# differentiated series.  A bracket table grows as far as a point has needed
# it: the sum extends a private copy and publishes it by rebinding, so a sum
# still reading the old table is undisturbed.  The branch, the term ratio and
# the stopping rule stay per point, so a plan returns bit for bit what the
# one-shot call returns, in any order of points.  A public function builds a
# plan and sums it once; the solution closures build one per energy.


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


class _KummerPlan:
    """z -> Phi(a, b; z) at fixed (a, b): kummer_m's branches, with the
    checks on a and b made once and the Gamma factors of the asymptotic
    branch computed on its first use."""

    __slots__ = ("a", "b", "ctl", "degree", "_flipped", "_gammas")

    def __init__(self, a: complex, b: complex, ctl: SeriesControl = DEFAULT_CONTROL) -> None:
        a, b = complex(a), complex(b)
        pb = _nonpositive_int(b)
        if pb is not None:
            raise PoleError(pb, "kummer_m second parameter")
        pa = _nonpositive_int(a)
        self.a, self.b, self.ctl = a, b, ctl
        self.degree = None if pa is None else -pa  # of the terminating polynomial
        self._flipped = None  # plan of Phi(b - a, b; .) for the Kummer transformation
        self._gammas = None  # Gamma(b), 1/Gamma(a), 1/Gamma(b - a)

    def plain(self, z: complex) -> bool:
        """True where Phi is summed as its plain power series, so that the
        same sum from the log companion or the parameter derivative stands in."""
        return z.real >= 0 and abs(z) <= self.ctl.asymptotic_switch_radius and self.degree is None

    def __call__(self, z: complex) -> complex:
        a, b, ctl = self.a, self.b, self.ctl
        if z == 0:
            return 1.0 + 0.0j
        if self.plain(z):
            return _kummer_series(a, b, z, ctl)
        if z.real < 0:
            if self._flipped is None:
                self._flipped = _KummerPlan(b - a, b, ctl)
            return cmath.exp(z) * self._flipped(-z)
        if self.degree is not None:
            s = 1.0 + 0.0j
            term = 1.0 + 0.0j
            for k in range(self.degree):
                term *= (a + k) * z / ((b + k) * (k + 1))
                s += term
            return s
        # DLMF 13.7.2 with both Poincare contributions.
        if self._gammas is None:
            self._gammas = (gamma_fn(b), rgamma(a), rgamma(b - a))
        gamma_b, rgamma_a, rgamma_ba = self._gammas
        s1 = _asymptotic_sum(b - a, 1 - a, 1.0 / z, ctl)
        s2 = _asymptotic_sum(a, a - b + 1, -1.0 / z, ctl)
        sign = 1.0 if cmath.phase(z) > -math.pi / 2 else -1.0
        t1 = cmath.exp(z + (a - b) * cmath.log(z)) * rgamma_a * s1
        t2 = cmath.exp(sign * 1j * math.pi * a - a * cmath.log(z)) * rgamma_ba * s2
        return gamma_b * (t1 + t2)


def kummer_m(
    a: complex, b: complex, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Kummer's confluent hypergeometric Phi(a, b; z).

    For Re z < 0 the Kummer transformation Phi(a,b;z) = e^z Phi(b-a,b;-z)
    is applied first, so the series is always summed on the stable side.
    """
    return _KummerPlan(a, b, ctl)(complex(z))


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


def _frobenius_coefficients(a: complex, n: int) -> list | None:
    """(numerator, denominator) of each term ratio of frobenius_poly; None
    for n < 1, where P = 0."""
    if n < 1:
        return None
    return [(a - n + k, (1 - n + k) * (k + 1)) for k in range(n - 1)]


def _frobenius_sum(coefficients: list | None, z: complex) -> complex:
    if coefficients is None:
        return 0.0 + 0.0j
    term = p = 1.0 + 0.0j
    for num, den in coefficients:
        term *= num * z / den
        p += term
    return p


def frobenius_poly(
    a: complex, n: int, z: complex
) -> complex:
    """Terminating Frobenius polynomial P = sum_{k<n} (a-n)_k / ((1-n)_k k!) z^k
    attached to the subdominant small-radius channel (P = 0 for n = 0)."""
    return _frobenius_sum(_frobenius_coefficients(a, n), z)


class _CompanionPlan:
    """z -> (S1, S0, P) of kummer_log_companion at fixed (a, n)."""

    __slots__ = ("a", "n", "ctl", "sigma_a", "frobenius", "bracket0", "zero", "brackets")

    def __init__(self, a: complex, n: int, ctl: SeriesControl = DEFAULT_CONTROL) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        a = complex(a)
        if degenerate_log_index(a, n) is not None:
            raise PoleError(
                int(round(a.real)),
                "kummer_log_companion sigma_a (take the (1-a)_n * S0 limit instead)",
            )
        self.a, self.n, self.ctl = a, n, ctl
        self.sigma_a = sum(1.0 / (a - l) for l in range(1, n + 1))
        self.frobenius = _frobenius_coefficients(a, n)
        # psi(1) = -gamma and psi(n + 1) = H_n - gamma
        self.bracket0 = (
            0.5 * self.sigma_a + EULER_GAMMA
            - (math.fsum(1.0 / l for l in range(1, n + 1)) - EULER_GAMMA)
        )
        self.zero = _pochhammer_zero(a, ctl)
        self.brackets: list = []  # the bracket of term k + 1

    def __call__(self, z: complex) -> tuple[complex, complex, complex]:
        a, n, ctl, zero = self.a, self.n, self.ctl, self.zero
        tol = ctl.rel_tol
        p = _frobenius_sum(self.frobenius, z)
        # S1 and S0 summed together so they share one convergence decision,
        # which also holds S1 to kummer_m's own rule
        c = 1.0 + 0.0j
        s1, s0 = c, c * self.bracket0
        az = abs(z)
        brk = self.brackets
        known = len(brk)
        t = brk[-1] if known else self.bracket0
        for k in range(zero):
            if k >= known:
                if k == known:
                    brk = brk.copy()
                t = t + 1.0 / (a + k) - 1.0 / (k + 1) - 1.0 / (n + k + 1)
                brk.append(t)
            c *= (a + k) * z / ((n + 1 + k) * (k + 1))
            s1 += c
            s0 += c * brk[k]
            if (
                k > az
                and abs(c) <= tol * abs(s1)
                and abs(c) * (1.0 + abs(brk[k])) <= tol * max(abs(s1), abs(s0))
            ):
                break
        else:
            if zero == ctl.max_terms:
                raise AccuracyError(abs(c) / max(abs(s1), 1e-300), tol)
            # S1 has terminated; the bracket's 1/(a + zero) takes the place of the zero
            r = c * z / ((n + 1 + zero) * (zero + 1))
            s0 = _pole_tail(s0, r, a, n + 1, z, zero + 1, abs(s1), ctl)
        if len(brk) > len(self.brackets):
            self.brackets = brk
        return s1, s0, p


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
    return _CompanionPlan(a, n, ctl)(complex(z))


class _LogChannelPlan:
    """(z, log_r) -> (Phi, P, L) of kummer_log_channel at fixed (a, n)."""

    __slots__ = ("phi", "companion", "pochhammer", "limit", "frobenius")

    def __init__(self, a: complex, n: int, ctl: SeriesControl = DEFAULT_CONTROL) -> None:
        l0 = degenerate_log_index(a, n)
        if l0 is not None:
            self.companion = None
            self.limit = 0.5 * (-1.0) ** l0 * math.factorial(l0 - 1) * math.factorial(n - l0)
            self.frobenius = _frobenius_coefficients(a, n)
        else:
            self.companion = _CompanionPlan(a, n, ctl)
            self.pochhammer = pochhammer(1 - a, n)
        self.phi = _KummerPlan(a, n + 1, ctl)

    def __call__(self, z: complex, log_r: float) -> tuple[complex, complex, complex]:
        if self.companion is None:
            phi = self.phi(z)
            return phi, _frobenius_sum(self.frobenius, z), self.limit * phi
        s1, s0, p = self.companion(z)
        phi = s1 if self.phi.plain(z) else self.phi(z)
        return phi, p, self.pochhammer * (log_r * s1 + s0)


def kummer_log_channel(
    a: complex, n: int, z: complex, log_r: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[complex, complex, complex]:
    """(Phi, P, L) of a fourth radial solution at integer b = n + 1 >= 2:
    Phi(a, n+1; z), the Frobenius polynomial P, and L = (1-a)_n (log_r S1 + S0)
    or, at a = l0 in [1, n], its limit: the residue of (1-a)_n sigma_a / 2
    times Phi.  Phi is S1 itself where kummer_m would sum the same series."""
    return _LogChannelPlan(a, n, ctl)(complex(z), log_r)


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


class _TricomiPlan:
    """z -> Psi(a, b; z) at fixed (a, integer b): tricomi_u's branches, with
    the checks on a made once and the log series' plan, digamma and Gamma
    factors built on its first use."""

    __slots__ = ("a", "b", "ctl", "power", "polynomial", "degree", "_log")

    def __init__(self, a: complex, b_int: int, ctl: SeriesControl = DEFAULT_CONTROL) -> None:
        a, b_int = complex(a), int(b_int)
        self.power = 0
        if b_int < 1:
            # Psi(a,b;z) = z^{1-b} Psi(a-b+1, 2-b; z), and 2-b >= 1 here
            self.power = 1 - b_int
            a, b_int = a - b_int + 1, 2 - b_int
        self.a, self.b, self.ctl = a, b_int, ctl
        self._log = None
        pa = _nonpositive_int(a)
        self.polynomial = self.degree = None
        if pa is not None:
            # terminating case: Psi(-k, b; z) = (-1)^k (b)_k Phi(-k, b; z)
            k = -pa
            self.polynomial = ((-1.0) ** k * pochhammer(b_int, k), _KummerPlan(a, b_int, ctl))
            return
        pc = _nonpositive_int(a - b_int + 1)
        if pc is not None:
            self.degree = -pc  # of the terminating 2F0

    def __call__(self, z: complex) -> complex:
        if self.power:
            return cmath.exp(self.power * cmath.log(z)) * self._value(z)
        return self._value(z)

    def _value(self, z: complex) -> complex:
        a, b, ctl = self.a, self.b, self.ctl
        if self.polynomial is not None:
            factor, phi = self.polynomial
            return factor * phi(z)
        if z == 0:
            raise PoleError(0, "tricomi_u at z = 0 (logarithmic)")
        if self.degree is not None:
            # Psi = z^{-a} 2F0(a, a-b+1;; -1/z) terminates when a-b+1 <= 0
            term = 1.0 + 0.0j
            s = term
            for k in range(self.degree):
                term *= (a + k) * (a - b + 1 + k) * (-1.0 / z) / (k + 1)
                s += term
            return cmath.exp(-a * cmath.log(z)) * s
        if abs(z) > ctl.asymptotic_switch_radius:
            return cmath.exp(-a * cmath.log(z)) * _asymptotic_sum(a, a - b + 1, -1.0 / z, ctl)
        n = b - 1
        if self._log is None:
            companion = _CompanionPlan(a, n, ctl)
            self._log = (
                companion,
                digamma(a),
                0.5 * companion.sigma_a,
                ((-1.0) ** (n + 1) / math.factorial(n)) * rgamma(a - n),
                math.factorial(n - 1) * rgamma(a) if n >= 1 else None,
            )
        companion, psi_a, half_sigma, c_log, c_poly = self._log
        s1, s0, p = companion(z)
        # DLMF 13.2.9 rearranged: psi(a+k) = psi(a) + h_k(a)
        log_part = s1 * (cmath.log(z) + psi_a - half_sigma)
        out = c_log * (log_part + s0)
        if n >= 1:
            out += c_poly * cmath.exp(-n * cmath.log(z)) * p
        return out


def tricomi_u(
    a: complex, b_int: int, z: complex, ctl: SeriesControl = DEFAULT_CONTROL
) -> complex:
    """Tricomi Psi(a, b; z) for integer b, principal branch of ln z.

    Uses the explicit logarithmic series at integer b (via
    kummer_log_companion), the terminating form when a is a non-positive
    integer, and the 2F0 expansion for large |z|.
    """
    return _TricomiPlan(a, b_int, ctl)(complex(z))


# --- parameter derivative of Phi --------------------------------------------


class _DerivativePlan:
    """z -> (Phi, directional parameter derivative of Phi) of
    kummer_m_with_param_derivative at fixed (a, b, da, db)."""

    __slots__ = ("a", "b", "da", "db", "ctl", "zero", "phi", "brackets")

    def __init__(
        self, a: complex, b: complex, da: float, db: float, ctl: SeriesControl = DEFAULT_CONTROL
    ) -> None:
        try:
            self.phi = _KummerPlan(a, b, ctl)
        except PoleError as err:
            raise PoleError(err.where, "kummer_m_param_derivative second parameter") from None
        self.a, self.b, self.da, self.db, self.ctl = self.phi.a, self.phi.b, da, db, ctl
        self.zero = _pochhammer_zero(self.a, ctl)
        self.brackets: list = []  # g_k = da h_{k+1}(a) - db h_{k+1}(b), the factor of term k + 1

    def __call__(self, z: complex) -> tuple[complex, complex]:
        a, b, ctl, zero = self.a, self.b, self.ctl, self.zero
        tol = ctl.rel_tol
        plain = self.phi.plain(z)
        term, s, ds = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j
        az = abs(z)
        da, db = self.da, self.db
        g = self.brackets
        known = len(g)
        t = g[-1] if known else 0.0j
        for k in range(zero):
            if k >= known:
                if k == known:
                    g = g.copy()
                t = t + da / (a + k) - db / (b + k)
                g.append(t)
            term *= (a + k) * z / ((b + k) * (k + 1))
            s += term
            gk = g[k]
            ds += term * gk
            if (
                k > az
                and abs(term) * (1.0 + abs(gk)) <= tol * max(abs(ds), 1e-300)
                and (not plain or abs(term) <= tol * abs(s))
            ):
                break
        else:
            if zero == ctl.max_terms:
                raise AccuracyError(abs(term) / max(abs(ds), 1e-300), tol)
            # Phi has terminated; da / (a + zero) takes the place of the zero
            r = da * term * z / ((b + zero) * (zero + 1))
            ds = _pole_tail(ds, r, a, b, z, zero + 1, 0.0, ctl)
        if len(g) > len(self.brackets):
            self.brackets = g
        return (s if plain else self.phi(z)), ds


def kummer_m_with_param_derivative(
    a: complex, b: complex, z: complex, da: float, db: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> tuple[complex, complex]:
    """Phi(a,b;z) and its directional derivative along (da, db) in the
    parameters, from one pass over the term-wise differentiated series: the
    k-th term of Phi picks up the factor da*h_k(a) - db*h_k(b) with
    h_k(x) = sum_{j<k} 1/(x+j).  Where kummer_m would not sum that series,
    Phi is kummer_m's value."""
    return _DerivativePlan(a, b, da, db, ctl)(complex(z))


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
