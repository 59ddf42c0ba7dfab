"""Complex special functions for the closed-form radial solutions.

Log-gamma, digamma and trigamma are summed here from math and cmath alone;
integer-order Bessel functions, whose one user is the lambda = 0 oscillator
continuum, are delegated to scipy.special, imported by the first call that
needs it (see _LazyModule).  The
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


# Each gamma-family kernel reflects z into Re z >= 1/2 (DLMF 5.5.3-4), recurs up to |z| >= 8 and
# sums the Stirling series (DLMF 5.11.1-2, 5.15.8) to B_20 (B_22 for psi'): next term < 1e-17.
_RECUR_TO, _HALF_LOG_2PI = 8.0, 0.9189385332046728  # the latter log(2 pi) / 2
# psi's positive root x0 = findroot(digamma, 1.46) as HI + LO, exact in x - HI on
# [1, 2]; mpmath at 40 digits: [float(zeta(k, x0 + 2)) for k in range(22, 1, -1)]
_PSI_ROOT_HI, _PSI_ROOT_LO = 1.4616321449683622, 9.549995429965697e-17
_PSI_ROOT_SERIES = (
    1.3723653713077138e-12, 4.755891089999048e-12, 1.648677489663636e-11, 5.717729634679893e-11,
    1.9840436029350833e-10, 6.889561205460084e-10, 2.3946448469644645e-09, 8.333507652457267e-09,
    2.9048430651778795e-08, 1.0147423082995085e-07, 3.555004365548999e-07, 1.2502790337317232e-06,
    4.4203814378014486e-06, 1.5742042793645156e-05, 5.663403931142351e-05, 0.00020674607628354467,
    0.0007713020708922787, 0.002976677050430833, 0.012163351366549665, 0.055476208282819656,
    0.3345617098544669,
)


def _steps(z: complex) -> int:
    """The n >= 0 that takes z, Re z >= 1/2, to |z + n| >= _RECUR_TO."""
    return max(0, math.ceil(math.sqrt(max(0.0, _RECUR_TO**2 - z.imag * z.imag)) - z.real))


def _loggamma(z: complex) -> complex:
    """Principal-branch log Gamma off the poles; on the cut, from the side of Im z's sign."""
    if not cmath.isfinite(z):  # Gamma's one limit at infinity is along the positive axis
        return complex(math.inf, 0.0) if z == math.inf else complex(math.nan, math.nan)
    if math.copysign(1.0, z.imag) < 0:
        return _loggamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        # log sin(r) + i pi n, r = pi (z - n): a log of sin(pi z), continuous across strips
        n = round(z.real)
        r = math.pi * (z - n)
        # and sin r = (i/2) e^(-ir) (1 - e^(2ir)) where cosh(Im r) would overflow
        log_sin = (cmath.log(cmath.sin(r)) if r.imag < 2.0
                   else cmath.log(0.5j * (1.0 - cmath.exp(2j * r))) - 1j * r)
        return complex(math.log(math.pi), math.pi * n) - log_sin - _loggamma(1.0 - z)
    # log Gamma(w) - sum_k log(z + k), n log w taken into the factors w / (z + k),
    # whose arguments lie in (-pi/2, 0]: their product's turns past -pi once a wrap
    n = _steps(z)
    w = z + n
    p, wraps = 1.0, 0
    for k in range(n):
        q = p * w / (z + k)
        if q.imag > 0.0 > p.imag:
            wraps += 1
        p = q
    v = 1.0 / (w * w)
    series = _HALF_LOG_2PI + (1/12 + v * (-1/360 + v * (1/1260 + v * (-1/1680 + v * (
        1/1188 + v * (-691/360360 + v * (1/156 + v * (-3617/122400 + v * (
            43867/244188 - v * 174611/125400))))))))) / w
    return (cmath.log(p) - 2j * math.pi * wraps - w) + (z - 0.5) * cmath.log(w) + series


def _psi_tail(w):
    """psi(w) - log w at |w| >= _RECUR_TO, Re w > 0, real or complex."""
    v = 1.0 / (w * w)
    return -0.5 / w - v * (1/12 + v * (-1/120 + v * (1/252 + v * (-1/240 + v * (1/132 + v * (
        -691/32760 + v * (1/12 + v * (-3617/8160 + v * (43867/14364 - v * 174611/6600)))))))))


def _psi_real(x: float) -> float:
    """psi at finite real x off the poles, as Cephes' psi (SciPy's real digamma)
    takes it: into [1, 2], then sum_k (-1)^(k+1) zeta(k+1, x0) (x - x0)^k, whose
    first two Hurwitz terms sum to d/(x0 x) + d/((x0+1)(x+1)), d = x - x0."""
    y = 0.0
    if x < 0.0:
        y = -math.pi / math.tan(math.pi * (x - round(x)))
        x = 1.0 - x
    if x >= _RECUR_TO:
        return y + math.log(x) + _psi_tail(x)
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    while x > 2.0:
        x -= 1.0
        y += 1.0 / x
    d = (x - _PSI_ROOT_HI) - _PSI_ROOT_LO
    p = 0.0
    for c in _PSI_ROOT_SERIES:
        p = c - d * p
    return y + d * (1.0 / (_PSI_ROOT_HI * x) + 1.0 / ((_PSI_ROOT_HI + 1.0) * (x + 1.0)) + p)


def gamma_ln(z: complex) -> complex:
    """Principal-branch log-gamma; exp(gamma_ln(z)) == Gamma(z)."""
    p = _nonpositive_int(z)
    if p is not None:
        raise PoleError(p)
    return _loggamma(complex(z))


def gamma_fn(z: complex) -> complex:
    return cmath.exp(gamma_ln(z))


def rgamma(z: complex) -> complex:
    """1/Gamma(z); entire, zero at the poles of Gamma."""
    if _nonpositive_int(z) is not None:
        return 0.0 + 0.0j
    return cmath.exp(-_loggamma(complex(z)))


def digamma(z: complex) -> complex:
    """psi(z), without SciPy; within 2 ulp on the positive real axis."""
    z = complex(z)
    if z.imag == 0 and z.real > _INT_TOL:  # no pole to test for
        return complex(_psi_real(z.real))
    if not cmath.isfinite(z):  # +inf took the branch above
        return complex(math.nan, math.nan)
    p = _nonpositive_int(z)
    if p is not None:
        raise PoleError(p, "digamma")
    if z.imag == 0:
        return complex(_psi_real(z.real))
    out = 0.0
    if z.real < 0.5:
        out = -math.pi / cmath.tan(math.pi * (z - round(z.real)))
        z = 1.0 - z
    n = _steps(z)
    for k in range(n):
        out -= 1.0 / (z + k)
    return out + (cmath.log(z + n) + _psi_tail(z + n))


def trigamma(x: float) -> float:
    """psi'(x) for real x, without SciPy (reflection handles x < 0)."""
    p = _nonpositive_int(complex(x))
    if p is not None:
        raise PoleError(p, "trigamma")
    if not math.isfinite(x):  # poles at every non-positive integer: no limit at -inf
        return 0.0 if x == math.inf else math.nan
    if x > 0:
        n = max(0, math.ceil(_RECUR_TO - x))
        w = x + n
        v = 1.0 / (w * w)
        series = 1/6 + v * (-1/30 + v * (1/42 + v * (-1/30 + v * (5/66 + v * (-691/2730 + v * (
            7/6 + v * (-3617/510 + v * (43867/798 + v * (-174611/330 + v * 854513/138)))))))))
        out = (1.0 + (0.5 + series / w) / w) / w
        for k in range(n - 1, -1, -1):  # smallest terms first
            out += 1.0 / ((x + k) * (x + k))
        return out
    # reflection: psi'(x) + psi'(1-x) = pi^2 / sin^2(pi x)
    s = math.sin(math.pi * x)
    return math.pi**2 / (s * s) - trigamma(1.0 - x)


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
