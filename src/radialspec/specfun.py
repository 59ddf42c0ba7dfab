"""Complex special functions for the closed-form radial solutions.

Log-gamma, digamma, trigamma and integer-order Bessel functions are
delegated to scipy.special, imported by the first call that needs it (see
_LazyModule): the unique cells' levels and eigenfunctions need only math and
cmath, so importing radialspec loads neither SciPy nor NumPy.  The
confluent-hypergeometric machinery (Kummer Phi, Tricomi Psi at integer
second parameter, and the logarithmic channel at integer b = n + 1, which
gives the m = 0 family solutions at n = 0 and the fourth radial solutions at
n = |m|) is implemented here directly as power series, under the convergence
constants REL_TOL, MAX_TERMS and SWITCH_RADIUS.  Each of these kernels is a
plan built once per parameter set (a, b), holding everything that does not
depend on z, and summed per point; the solution closures keep one plan per
energy and sum it at every radius.
"""

from __future__ import annotations

import cmath
import importlib
import math

__all__ = [
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
    "kummer_log_channel",
    "degenerate_log_index",
    "bessel",
]

_INT_TOL = 1e-12
EULER_GAMMA = 0.5772156649015329  # -psi(1)

# convergence of every series below: a sum stops once its terms fall under
# REL_TOL of it, and one that has not after MAX_TERMS terms raises
# AccuracyError; past |z| = SWITCH_RADIUS the asymptotic expansions are summed
REL_TOL = 1e-13
MAX_TERMS = 500
SWITCH_RADIUS = 30.0


class _LazyModule:
    """Stand-in for the module `name`, bound at global `alias` of `namespace`.

    The first attribute access imports the module and rebinds the global to
    it, so every later lookup reaches the module itself at no extra cost."""

    def __init__(self, name: str, namespace: dict, alias: str):
        self._name, self._namespace, self._alias = name, namespace, alias

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name)
        self._namespace[self._alias] = module
        return getattr(module, attr)


_sp = _LazyModule("scipy.special", globals(), "_sp")


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
    if not (abs(z.imag) <= _INT_TOL and math.isfinite(z.real)):  # non-finite: no pole
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
    z = complex(z)
    if z.imag == 0 and z.real > _INT_TOL:  # no pole to test for
        return complex(_sp.digamma(z.real))
    p = _nonpositive_int(z)
    if p is not None:
        raise PoleError(p, "digamma")
    return complex(_sp.digamma(z))


def trigamma(x: float) -> float:
    """psi'(x) for real x (reflection handles x < 0). On x > 0, psi'(x) is
    Hurwitz zeta(2, x), the value SciPy's polygamma(1, x) multiplies by 1."""
    p = _nonpositive_int(complex(x))
    if p is not None:
        raise PoleError(p, "trigamma")
    if x > 0:
        return float(_sp.zeta(2.0, x))
    if x == -math.inf:  # poles at every non-positive integer: no limit
        return math.nan
    # reflection: psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x)
    s = math.sin(math.pi * x)
    return math.pi**2 / (s * s) - float(_sp.zeta(2.0, 1.0 - x))


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
# Frobenius-polynomial coefficients and the bracket sequence of the
# differentiated series.  A bracket table grows as far as a point has needed
# it: the sum extends a private copy and publishes it by rebinding, so a sum
# still reading the old table is undisturbed.  The branch, the term ratio and
# the stopping rule stay per point, so a plan returns bit for bit what a fresh
# plan returns, in any order of points.  A public function builds a plan and
# sums it once; the solution closures build one per energy.


# --- Kummer Phi -------------------------------------------------------------


def _kummer_series(a: complex, b: complex, z: complex) -> complex:
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    az = abs(z)
    for k in range(MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        s += term
        if k > az and abs(term) <= REL_TOL * abs(s):
            return s
    raise AccuracyError(abs(term) / max(abs(s), 1e-300), REL_TOL)


def _asymptotic_sum(num1: complex, num2: complex, zinv: complex) -> complex:
    """sum_s (num1)_s (num2)_s zinv^s / s!, truncated at the smallest term."""
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    best = abs(term)
    for k in range(MAX_TERMS):
        term *= (num1 + k) * (num2 + k) * zinv / (k + 1)
        if abs(term) >= best:
            break  # divergent tail reached
        best = abs(term)
        s += term
        if abs(term) <= REL_TOL * abs(s):
            break
    return s


class _KummerPlan:
    """z -> Phi(a, b; z) at fixed (a, b): kummer_m's branches, with the
    checks on a and b made once and the Gamma factors of the asymptotic
    branch computed on its first use."""

    __slots__ = ("a", "b", "degree", "_flipped", "_gammas")

    def __init__(self, a: complex, b: complex) -> None:
        a, b = complex(a), complex(b)
        pb = _nonpositive_int(b)
        if pb is not None:
            raise PoleError(pb, "kummer_m second parameter")
        pa = _nonpositive_int(a)
        self.a, self.b = a, b
        self.degree = None if pa is None else -pa  # of the terminating polynomial
        self._flipped = None  # plan of Phi(b - a, b; .) for the Kummer transformation
        self._gammas = None  # Gamma(b), 1/Gamma(a), 1/Gamma(b - a)

    def plain(self, z: complex) -> bool:
        """True where Phi is summed as its plain power series, so that the
        same sum from the log companion stands in."""
        return z.real >= 0 and abs(z) <= SWITCH_RADIUS and self.degree is None

    def __call__(self, z: complex) -> complex:
        a, b = self.a, self.b
        if z == 0:
            return 1.0 + 0.0j
        if self.plain(z):
            return _kummer_series(a, b, z)
        if z.real < 0:
            if self._flipped is None:
                self._flipped = _KummerPlan(b - a, b)
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
        s1 = _asymptotic_sum(b - a, 1 - a, 1.0 / z)
        s2 = _asymptotic_sum(a, a - b + 1, -1.0 / z)
        sign = 1.0 if cmath.phase(z) > -math.pi / 2 else -1.0
        t1 = cmath.exp(z + (a - b) * cmath.log(z)) * rgamma_a * s1
        t2 = cmath.exp(sign * 1j * math.pi * a - a * cmath.log(z)) * rgamma_ba * s2
        return gamma_b * (t1 + t2)


def kummer_m(a: complex, b: complex, z: complex) -> complex:
    """Kummer's confluent hypergeometric Phi(a, b; z).

    For Re z < 0 the Kummer transformation Phi(a,b;z) = e^z Phi(b-a,b;-z)
    is applied first, so the series is always summed on the stable side.
    """
    return _KummerPlan(a, b)(complex(z))


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
    """(numerator, denominator) of each term ratio of the terminating Frobenius
    polynomial P = sum_{k<n} (a-n)_k / ((1-n)_k k!) z^k; None for n < 1,
    where P = 0."""
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


class _CompanionPlan:
    """(z, log) -> (S1, log S1 + S0, P), from the series blocks of the
    logarithmic second solution at integer b = n + 1 >= 1, at fixed (a, n):

        S1 = sum_k c_k z^k,                       c_k = (a)_k / ((n+1)_k k!)
        S0 = sum_k c_k z^k [h_k(a) + sigma_a/2 - psi(k+1) - psi(n+k+1)]
        P  = sum_{k=0}^{n-1} (a-n)_k / ((1-n)_k k!) z^k          (P = 0 for n = 0)

    where h_k(a) = sum_{j<k} 1/(a+j) and sigma_a = sum_{l=1}^n 1/(a-l).
    S1 is just Phi(a, n+1; z); S0 carries the digamma-free bracket, and the
    caller passes the logarithm appropriate to its variable, so the sum stops
    relative to the combination the caller keeps."""

    __slots__ = ("a", "n", "sigma_a", "frobenius", "bracket0", "zero", "brackets")

    def __init__(self, a: complex, n: int) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        a = complex(a)
        if degenerate_log_index(a, n) is not None:
            raise PoleError(
                int(round(a.real)),
                "log companion sigma_a (take the (1-a)_n * S0 limit instead)",
            )
        self.a, self.n = a, n
        self.sigma_a = sum(1.0 / (a - l) for l in range(1, n + 1))
        self.frobenius = _frobenius_coefficients(a, n)
        # psi(1) = -gamma and psi(n + 1) = H_n - gamma
        self.bracket0 = (
            0.5 * self.sigma_a + EULER_GAMMA
            - (math.fsum(1.0 / l for l in range(1, n + 1)) - EULER_GAMMA)
        )
        self.zero = _pochhammer_zero(a)
        self.brackets: list = []  # the bracket of term k + 1

    def __call__(self, z: complex, log: complex) -> tuple[complex, complex, complex]:
        a, n, zero = self.a, self.n, self.zero
        tol = REL_TOL
        p = _frobenius_sum(self.frobenius, z)
        # S1 and log S1 + S0 summed together so they share one convergence
        # decision, which also holds S1 to kummer_m's own rule
        c = 1.0 + 0.0j
        s1, s_log = c, c * (log + self.bracket0)
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
            bracket = log + brk[k]
            s_log += c * bracket
            if (
                k > az
                and abs(c) <= tol * abs(s1)
                and abs(c) * (1.0 + abs(bracket)) <= tol * max(abs(s1), abs(s_log))
            ):
                break
        else:
            if zero == MAX_TERMS:
                raise AccuracyError(abs(c) / max(abs(s1), 1e-300), tol)
            # S1 has terminated; the bracket's 1/(a + zero) takes the place of the zero
            r = c * z / ((n + 1 + zero) * (zero + 1))
            s_log = _pole_tail(s_log, r, a, n + 1, z, zero + 1, abs(s1))
        if len(brk) > len(self.brackets):
            self.brackets = brk
        return s1, s_log, p


class _LogChannelPlan:
    """(z, log_r) -> (Phi, P, L) of kummer_log_channel at fixed (a, n)."""

    __slots__ = ("phi", "companion", "pochhammer", "limit", "frobenius")

    def __init__(self, a: complex, n: int) -> None:
        l0 = degenerate_log_index(a, n)
        if l0 is not None:
            self.companion = None
            self.limit = 0.5 * (-1.0) ** l0 * math.factorial(l0 - 1) * math.factorial(n - l0)
            self.frobenius = _frobenius_coefficients(a, n)
        else:
            self.companion = _CompanionPlan(a, n)
            self.pochhammer = pochhammer(1 - a, n)
        self.phi = _KummerPlan(a, n + 1)

    def __call__(self, z: complex, log_r: float) -> tuple[complex, complex, complex]:
        if self.companion is None:
            phi = self.phi(z)
            return phi, _frobenius_sum(self.frobenius, z), self.limit * phi
        s1, log_part, p = self.companion(z, log_r)
        phi = s1 if self.phi.plain(z) else self.phi(z)
        return phi, p, self.pochhammer * log_part


def kummer_log_channel(
    a: complex, n: int, z: complex, log_r: float
) -> tuple[complex, complex, complex]:
    """(Phi, P, L) of the logarithmic channel at integer b = n + 1, n >= 0:
    Phi(a, n+1; z), the Frobenius polynomial P, and L = (1-a)_n (log_r S1 + S0)
    with S1, S0 and P the blocks of the log companion, or, at a = l0 in
    [1, n], L's limit: the residue of (1-a)_n sigma_a / 2 times Phi.  Phi is
    S1 itself where kummer_m would sum the same series.  n = |m| >= 1 gives
    the fourth radial solutions C4/O4; n = 0 gives the m = 0 family solutions
    C2_0/O2_0, where P = 0."""
    return _LogChannelPlan(a, n)(complex(z), log_r)


def _pochhammer_zero(a: complex) -> int:
    """J with a + J == 0 exactly, capped at MAX_TERMS (also returned when a is
    not a non-positive integer): (a)_k vanishes for every k > J."""
    if a.imag == 0 and a.real <= 0 and a.real.is_integer():
        return min(-int(a.real), MAX_TERMS)
    return MAX_TERMS


def _pole_tail(s, r, a, b, z, k0: int, scale: float) -> complex:
    """s plus the terms k >= k0 of a series differentiated in a, at a = 1 - k0:
    there (a)_k vanishes and h_k(a) has the pole 1/(a + k0 - 1), so T_k h_k
    tends to T_k / (a + k0 - 1), with first term r, and the rest of h_k
    drops out with T_k."""
    s += r
    az = abs(z)
    for k in range(k0, MAX_TERMS):
        r *= (a + k) * z / ((b + k) * (k + 1))
        s += r
        if k > az and abs(r) <= REL_TOL * max(abs(s), scale):
            return s
    raise AccuracyError(abs(r) / max(abs(s), 1e-300), REL_TOL)


# --- Tricomi Psi ------------------------------------------------------------


class _TricomiPlan:
    """z -> Psi(a, b; z) at fixed (a, integer b): tricomi_u's branches, with
    the checks on a made once and the log series' plan, digamma and Gamma
    factors built on its first use."""

    __slots__ = ("a", "b", "power", "polynomial", "degree", "_log")

    def __init__(self, a: complex, b_int: int) -> None:
        a, b_int = complex(a), int(b_int)
        self.power = 0
        if b_int < 1:
            # Psi(a,b;z) = z^{1-b} Psi(a-b+1, 2-b; z), and 2-b >= 1 here
            self.power = 1 - b_int
            a, b_int = a - b_int + 1, 2 - b_int
        self.a, self.b = a, b_int
        self._log = None
        pa = _nonpositive_int(a)
        self.polynomial = self.degree = None
        if pa is not None:
            # terminating case: Psi(-k, b; z) = (-1)^k (b)_k Phi(-k, b; z)
            k = -pa
            self.polynomial = ((-1.0) ** k * pochhammer(b_int, k), _KummerPlan(a, b_int))
            return
        pc = _nonpositive_int(a - b_int + 1)
        if pc is not None:
            self.degree = -pc  # of the terminating 2F0

    def __call__(self, z: complex) -> complex:
        if self.power:
            return cmath.exp(self.power * cmath.log(z)) * self._value(z)
        return self._value(z)

    def _value(self, z: complex) -> complex:
        a, b = self.a, self.b
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
        if abs(z) > SWITCH_RADIUS:
            return cmath.exp(-a * cmath.log(z)) * _asymptotic_sum(a, a - b + 1, -1.0 / z)
        n = b - 1
        if self._log is None:
            companion = _CompanionPlan(a, n)
            self._log = (
                companion,
                digamma(a) - 0.5 * companion.sigma_a,
                ((-1.0) ** (n + 1) / math.factorial(n)) * rgamma(a - n),
                math.factorial(n - 1) * rgamma(a) if n >= 1 else None,
            )
        companion, shift, c_log, c_poly = self._log
        # DLMF 13.2.9 rearranged: psi(a+k) = psi(a) + h_k(a)
        _, log_part, p = companion(z, cmath.log(z) + shift)
        out = c_log * log_part
        if n >= 1:
            out += c_poly * cmath.exp(-n * cmath.log(z)) * p
        return out


def tricomi_u(a: complex, b_int: int, z: complex) -> complex:
    """Tricomi Psi(a, b; z) for integer b, principal branch of ln z.

    Uses the explicit logarithmic series at integer b (the log companion's
    blocks), the terminating form when a is a non-positive integer, and the
    2F0 expansion for large |z|.
    """
    return _TricomiPlan(a, b_int)(complex(z))


# --- Bessel ------------------------------------------------------------------


def bessel(kind: str, order: int, z: complex) -> complex:
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
