"""Independent 40-digit reference for the closed forms, built on mpmath.

Nothing here calls radialspec's special functions: the solutions are
re-evaluated from their definitions with ``mpmath.hyp1f1``, ``hyperu``,
``besselj``/``bessely``, ``digamma`` and ``loggamma``; the logarithmic
channel O2_0/C2_0 is the parameter derivative of Phi taken by ``mpmath.diff``,
and C4 follows from C3 = B C1 + C_m C4.  Densities are (1/pi) Im Omega(E + i0)
of the resolvent coefficient, a different route from the library's
closed-form densities.  Family weights use the numerical derivative of the
family function, not the library's trigamma formulas.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 40
HALF_PI = math.pi / 2
# cap mpmath's precision escalation (bits): past it a reference counts as
# unverified instead of taking tens of seconds
MAXPREC = 1500


def _phi(v):
    """Phase in [0, pi] of an energy in the closed upper half-plane."""
    return mp.mpf(0) if v == 0 else abs(mp.arg(v))


def sqrt_minus(v):
    """K = sqrt(-E) on the branch sqrt(|E|) e^{i(phi - pi)/2}."""
    v = mp.mpc(v)
    return mp.sqrt(abs(v)) * mp.expj((_phi(v) - mp.pi) / 2)


def sqrt_forward(v):
    v = mp.mpc(v)
    return mp.sqrt(abs(v)) * mp.expj(_phi(v) / 2)


def _log_derivative_phi(a, z):
    """d/dt Phi(a + t/2, 1 + t; z) at t = 0."""
    return mp.diff(lambda t: mp.hyp1f1(a + t / 2, 1 + t, z, maxprec=MAXPREC), 0)


class Problem:
    """One spec: theory 'osc' (coupling lambda) or 'coul' (coupling g)."""

    def __init__(self, spec: dict):
        self.osc = spec["theory"] == "osc"
        self.n = abs(spec["m"])
        self.c = mp.mpf(spec["coupling"])
        self.k0 = mp.mpf(spec["kappa0"])
        self.zeta = spec["zeta"]
        self.family = self.n == 0 if self.osc else self.n <= 1
        if self.zeta is not None:
            self.half_pi = abs(self.zeta - HALF_PI) < 1e-7
            self.s, self.co = mp.sin(self.zeta), mp.cos(self.zeta)
            if self.half_pi:
                self.s, self.co = mp.mpf(1), mp.mpf(0)

    # --- confluent parameters
    def alpha(self, e):
        if self.osc:
            vk = mp.sqrt(sqrt_minus(-self.c))
            return vk, mp.mpf(1 + self.n) / 2 - mp.mpc(e) / (4 * vk * vk)
        K = sqrt_minus(e)
        return K, mp.mpf(1 + self.n) / 2 + self.c / (2 * K)

    def sol(self, kind: int, r, e):
        """Named solution k in {1, 2, 3, 4} (O_k or C_k) at radius r."""
        r = mp.mpf(r)
        n, k0 = self.n, self.k0
        if self.osc and self.c == 0:
            return self._bessel(kind, r, e)
        root, a = self.alpha(e)
        z = (root * r) ** 2 if self.osc else 2 * root * r
        power = mp.mpf(1) / 2 + n if self.osc else mp.mpf(1 + n) / 2
        pre = mp.exp(-z / 2) * (k0 * r) ** power
        if kind == 1:
            return pre * mp.hyp1f1(a, 1 + n, z, maxprec=MAXPREC)
        if kind == 3:
            return pre * mp.hyperu(a, 1 + n, z, maxprec=MAXPREC)
        if kind == 2:
            logw = 1 if self.osc else mp.mpf(1) / 2
            return (mp.sqrt(k0 * r) * mp.exp(-z / 2) * _log_derivative_phi(a, z)
                    + logw * self.sol(1, r, e) * mp.log(k0 * r))
        # kind 4 (Coulomb |m| >= 1): C4 = (C3 - B_m C1) / C_m
        return (self.sol(3, r, e) - self.coefficient_b(e) * self.sol(1, r, e)) / self.coefficient_c(e)

    def coefficient_b(self, e):
        """Coulomb B_m of C3 = B_m C1 + C_m C4 (|m| >= 1)."""
        n = self.n
        root, a = self.alpha(e)
        return ((-1) ** (n + 1) / (2 * mp.factorial(n)) * mp.rgamma(a - n)
                * (mp.digamma(a - n) + mp.digamma(a) + 2 * mp.log(2 * root / self.k0)))

    def coefficient_c(self, e):
        """Coulomb C_m of C3 = B_m C1 + C_m C4 (|m| >= 1)."""
        n = self.n
        root, a = self.alpha(e)
        return (2 * root / self.k0) ** (-n) * mp.factorial(n - 1) * mp.rgamma(a)

    def _bessel(self, kind, u, e):
        n, k0 = self.n, self.k0
        K = sqrt_forward(e)
        j = mp.besselj(n, K * u)
        h1 = j + 1j * mp.bessely(n, K * u)
        if n == 0:
            root = mp.sqrt(k0 * u)
            o1, o3 = root * j, -0.5j * mp.pi * root * h1
            return {1: o1, 3: o3, 2: o3 + self.family_fn(e) * o1}[kind]
        if kind == 1:
            return mp.sqrt(k0) * mp.factorial(n) * (K / (2 * k0)) ** (-n) * mp.sqrt(u) * j
        d3 = mp.pi * mp.sqrt(k0) * (K / (2 * k0)) ** n / mp.factorial(n - 1)
        return 1j * d3 * mp.sqrt(u) * h1

    # --- family functions and resolvent coefficients
    def family_fn(self, e):
        """f(E): oscillator m=0 (f + tan z = 0 at levels), Coulomb f_1 / f_0."""
        k0 = self.k0
        if self.osc:
            if self.c == 0:
                K = sqrt_forward(e)
                return 0.5j * mp.pi + mp.digamma(1) - mp.log(K / (2 * k0))
            vk, a = self.alpha(e)
            return mp.log(k0 / vk) + mp.digamma(1) - mp.digamma(a) / 2
        K, a = self.alpha(e)
        if self.n == 1:
            if self.c == 0:
                return -K / k0
            return (self.c / (2 * k0)) * (mp.digamma(a) + mp.digamma(a - 1)
                                          + 2 * mp.log(2 * K / k0))
        return mp.digamma(1) - mp.digamma(a) / 2 - mp.log(2 * K / k0) / 2

    def omega_unique(self, e):
        """Wronskian omega of the regular and decaying solutions, unique cells."""
        n, k0 = self.n, self.k0
        if self.osc and self.c == 0:
            return 2 * k0 * n
        root, a = self.alpha(e)
        if self.osc:
            return 2 * k0 * n * (k0 / root) ** (2 * n) * mp.factorial(n - 1) * mp.rgamma(a)
        return k0 * n * (2 * root / k0) ** (-n) * mp.factorial(n - 1) * mp.rgamma(a)

    def spectral_omega(self, e):
        """Resolvent diagonal coefficient; density = Im / pi at E + i0."""
        n, k0 = self.n, self.k0
        if not self.family:
            if self.osc and self.c == 0:
                K = sqrt_forward(e)
                om = (mp.mpc(e) / (4 * k0 * k0)) ** n / mp.factorial(n) ** 2
                return (mp.pi / (2 * k0)) * om * (1j - (2 / mp.pi) * mp.log(K / k0))
            root, a = self.alpha(e)
            if self.osc:
                b_m = ((-1) ** (n + 1) / (2 * mp.factorial(n)) * mp.rgamma(a - n)
                       * (mp.digamma(a - n) + mp.digamma(a) - 4 * mp.log(k0 / root)))
                return b_m / self.omega_unique(e)
            d_m = ((2 * root / k0) ** n * mp.rf(1 - a, n)
                   / (2 * k0 * mp.factorial(n) ** 2))
            return d_m * (2 * mp.log(k0 / (2 * root)) - mp.digamma(a) - mp.digamma(a - n))
        f, s, c = self.family_fn(e), self.s, self.co
        if self.osc:
            return (f * s - c) / (k0 * (f * c + s))
        if self.n == 1:
            return -(f * s + c) / (k0 * (f * c - s))
        return (2 / k0) * (f * s - c) / (f * c + s)

    def u_zeta(self, r, e, tilde=False):
        """Boundary-channel pair: u_z = s O1 + c O_log, u~_z = c O1 - s O_log."""
        o1 = self.sol(1, r, e)
        olog = self.sol(4 if (not self.osc and self.n == 1) else 2, r, e)
        if tilde:
            return o1 * self.co - olog * self.s
        return o1 * self.s + olog * self.co

    # --- user-facing quantities
    def density(self, e) -> float:
        if e <= 0 and not (self.osc and self.c < 0):
            return 0.0  # R+ support
        return float(mp.im(self.spectral_omega(e)) / mp.pi)

    def green(self, u, v, e):
        hi, lo = max(u, v), min(u, v)
        if not self.family:
            return self.sol(3, hi, e) * self.sol(1, lo, e) / self.omega_unique(e)
        om = self.spectral_omega(e)
        cross = self.u_zeta(hi, e, tilde=True) * self.u_zeta(lo, e)
        w = {True: 1, False: -1 if self.n == 1 else 2}[self.osc] / self.k0
        return om * self.u_zeta(u, e) * self.u_zeta(v, e) + w * cross

    def level_weight(self, k: int, e) -> float:
        """Atom weight Q_k^2 of level k at energy e (ladders exact; family
        roots from the derivative of the family function)."""
        n, k0, c = self.n, self.k0, self.c
        if self.osc:
            sq = 2 * mp.sqrt(c)
            if n >= 1:
                vk = c ** mp.mpf(0.25)
                return float(((vk / k0) ** n / mp.factorial(n)) ** 2 * sq * mp.rf(1 + k, n) / k0)
            if self.half_pi:
                return float(sq / k0)
            if c == 0:
                return float(2 * abs(mp.mpf(e)) / (k0 * self.co ** 2))
            return float(1 / (k0 * self.co ** 2 * self._family_slope(e)))
        if not self.family:
            tau = abs(c) / (1 + n + 2 * k)
            return float((2 * tau / k0) ** n * 4 * tau * tau * mp.rf(1 + k, n)
                         / ((1 + n + 2 * k) * k0 * mp.factorial(n) ** 2))
        if self.half_pi:
            if n == 1:
                return float(4 * (abs(c) / (2 * (1 + k))) ** 3 / k0 ** 2)
            return float(4 * (c / (1 + 2 * k)) ** 2 / (k0 * (1 + 2 * k)))
        scale = 1 if n == 1 else 2
        return float(scale / (k0 * self.co ** 2 * self._family_slope(e)))

    def _family_slope(self, e):
        """d Re f / dE by a central difference with a relative step: 40 digits
        leave ~25 after the cancellation, far below every tolerance here."""
        e = mp.mpf(e)
        h = max(abs(e), 1) * mp.mpf(10) ** -15
        return (mp.re(self.family_fn(e + h)) - mp.re(self.family_fn(e - h))) / (2 * h)

    def level_energy(self, k: int):
        """Exact ladder energy, or None where the level is a family root."""
        n, c = self.n, self.c
        if self.osc and c > 0 and (n >= 1 or self.half_pi):
            return 2 * mp.sqrt(c) * (1 + n + 2 * k)
        if not self.osc and not self.family:
            return -c * c / mp.mpf(1 + n + 2 * k) ** 2
        if not self.osc and self.half_pi:
            return -c * c / (4 * mp.mpf(1 + k) ** 2) if n == 1 else -c * c / mp.mpf(1 + 2 * k) ** 2
        if self.osc and c == 0:
            return -4 * self.k0 ** 2 * mp.exp(2 * (mp.tan(self.zeta) - mp.euler))
        return None

    def root_error(self, e) -> float:
        """|E - E_true| / |E| from the 40-digit family-function residual."""
        t = mp.tan(self.zeta)
        target = t if (not self.osc and self.n == 1) else -t
        e = mp.mpf(e)
        resid = mp.re(self.family_fn(e)) - target
        return float(abs(resid / self._family_slope(e)) / max(abs(e), mp.mpf(1e-300)))

    def eigen(self, r, energy, amp, bound: bool):
        """Normalized eigenfunction value at r, continued with the decaying
        solution past the switch radius for family bound states."""
        if not self.family or self.half_pi:
            return float(mp.re(amp * self.sol(1, r, energy)))
        if not bound:
            return float(mp.re(amp * self.u_zeta(r, energy)))
        if self.osc:
            r_sw = math.sqrt(8.0) / float(self.c) ** 0.25 if self.c > 0 \
                else 4.0 / math.sqrt(-energy)
        else:
            r_sw = 4.0 / math.sqrt(-energy)
        if r < r_sw:
            return float(mp.re(amp * self.u_zeta(r, energy)))
        ratio = self.u_zeta(r_sw, energy) / self.sol(3, r_sw, energy)
        return float(mp.re(amp * ratio * self.sol(3, r, energy)))
