"""Formulas and assembly shared by both radial operators, which are one
confluent problem in (alpha, n = |m|, r): r = 2K/kappa0 for Coulomb and
varkappa^2/kappa0^2 for the oscillator, equal under lambda = -4 kappa0^2 E.
Stated once here: the connection coefficients and the unique-cell resolvent
diagonal, the m = 0 family function, the family resolvent diagonal and
density, the pole-ladder root brackets, solution closures, spectral measures,
eigenfunctions and family Green functions.  Each theory passes in its own
parameter map, radius powers and scale constants; this module imports
neither theory, so the duality checks compare two independent maps.
"""

from __future__ import annotations

import cmath
import math

from . import specfun as sf
from .core import SpectralMeasure, ValidationError, brentq, classify


def series_solution(plan, alpha: complex, beta: int, z_of, power: float, kappa0: float):
    """r -> (kappa0 r)^power e^{-z/2} series(alpha, beta; z(r)): C1/C3 and
    O1/O3, with `plan` specfun's Kummer or Tricomi plan, built once here."""
    series = plan(alpha, beta)

    def solution(r: float) -> complex:
        z = z_of(r)
        return (kappa0 * r) ** power * cmath.exp(-0.5 * z) * series(z)

    return solution


def m0_pair(alpha: complex, z_of, log_weight: float, kappa0: float):
    """r -> (C1, C2_0) or (O1, O2_0) from one pass of the n = 0 log channel.

    With pre = (kappa0 r)^(1/2) e^{-z/2}, the second solution is
    pre (d/dt Phi(alpha + t/2, 1 + t; z) + w ln(kappa0 r) Phi) at t = 0, with
    w = log_weight: 1 for O2_0 and 1/2 for C2_0.  At b = 1 that derivative is
    S0/2 - gamma S1 in the log companion's blocks (h_k(1) = psi(k+1) + gamma),
    so the pair is (pre Phi, pre L / 2), L = log_r S1 + S0 at
    log_r = 2 w ln(kappa0 r) - 2 gamma."""
    channel = sf._LogChannelPlan(alpha, 0)

    def pair(r: float) -> tuple[complex, complex]:
        z = z_of(r)
        pre = (kappa0 * r) ** 0.5 * cmath.exp(-0.5 * z)
        log_r = 2.0 * (log_weight * math.log(kappa0 * r) - sf.EULER_GAMMA)
        phi, _, log_part = channel(z, log_r)
        return pre * phi, 0.5 * pre * log_part

    return pair


def log_pair(
    alpha: complex, n: int, z_of, low: float, high: float, log_scale: float, rest, kappa0: float
):
    """r -> (C1, C4) or (O1, O4) at |m| = n >= 1 from one log-channel pass:
    e^{-z/2} ((kappa0 r)^high Phi, (kappa0 r)^low P - rest (kappa0 r)^high L),
    where L carries log_scale ln(kappa0 r)."""
    channel = sf._LogChannelPlan(alpha, n)

    def pair(r: float) -> tuple[complex, complex]:
        z = z_of(r)
        pre = cmath.exp(-0.5 * z)
        phi, p, log_part = channel(z, log_scale * math.log(kappa0 * r))
        high_r = (kappa0 * r) ** high
        return high_r * pre * phi, pre * ((kappa0 * r) ** low * p - rest * high_r * log_part)

    return pair


def coefficients(
    alpha: complex, n: int, r: complex, omega_scale: float
) -> tuple[complex, complex, complex, complex]:
    """(A, B, C, omega) at |m| = n >= 1: C3 = B C1 + C C4 (O3 = B O1 + C O4)
    and omega = omega_scale n C, with omega_scale kappa0 (Coulomb) or
    2 kappa0 (oscillator)."""
    alpha_minus = alpha - n
    if sf._nonpositive_int(alpha) is not None:
        raise sf.PoleError(int(round(alpha.real)), "Gamma(alpha)")
    if sf._nonpositive_int(alpha_minus) is not None:
        raise sf.PoleError(int(round(alpha_minus.real)), "Gamma(alpha_minus)")
    a = r**n * (-1.0) ** n * sf.pochhammer(1 - alpha, n) / math.factorial(n)
    b = (
        (-1.0) ** (n + 1)
        / (2.0 * math.factorial(n))
        * sf.rgamma(alpha_minus)
        * (sf.digamma(alpha_minus) + sf.digamma(alpha) + 2.0 * cmath.log(r))
    )
    c = r ** (-n) * math.factorial(n - 1) * sf.rgamma(alpha)
    return a, b, c, omega_scale * n * c


def unique_omega(alpha: complex, n: int, r: complex, omega_scale: float) -> complex:
    """Resolvent diagonal B/omega of a unique cell at |m| = n >= 1, with
    Gamma(alpha)/Gamma(alpha - n) taken as the polynomial (-1)^n (1 - alpha)_n."""
    d = r**n * sf.pochhammer(1 - alpha, n) / (2.0 * omega_scale * math.factorial(n) ** 2)
    return d * (-2.0 * cmath.log(r) - sf.digamma(alpha) - sf.digamma(alpha - n))


def m0_family_function(alpha: complex, r: complex) -> complex:
    """f_0 = psi(1) - psi(alpha)/2 - ln(r)/2: the m = 0 family levels of both
    theories solve f_0 = -tan(zeta)."""
    return -sf.EULER_GAMMA - 0.5 * sf.digamma(alpha) - 0.5 * cmath.log(r)


def family_omega(f: complex, zeta: float, scale: float, kappa0: float) -> complex:
    """Resolvent diagonal scale (f sin - cos) / (kappa0 (f cos + sin)) of a
    family cell at angle zeta, from its family function f."""
    c, s = math.cos(zeta), math.sin(zeta)
    return scale * (f * s - c) / (kappa0 * (f * c + s))


def one_minus_tanh(x: float) -> float:
    """1 - tanh(x) = 2 / (1 + e^{2x}) to a few ulp for every real x; 1 + tanh(x)
    is one_minus_tanh(-x).  The subtraction cancels once tanh(x) > 1/3, i.e.
    e^{2x} > 2, so from there the quotient is used, as 2 e^{-2x} where e^{2x}
    would overflow."""
    if x < 0.5 * math.log(2.0):
        return 1.0 - math.tanh(x)
    if x > 354.0:
        return 2.0 * math.exp(-2.0 * x)
    return 2.0 / (1.0 + math.exp(2.0 * x))


def family_density(re_f, parts, zeta: float, half_pi: bool):
    """E -> (1/pi) Im family_omega at E + i0 = rho / |f cos(zeta) + sin(zeta)|^2,
    where parts(E) gives the theory's closed forms (rho, Im f) at E + i0 and
    rho = scale Im f / (pi kappa0) is the density of the zeta = pi/2 member.
    At zeta = pi/2 the cosine is taken as 0 and Re f is never evaluated."""
    c, s = math.cos(zeta), math.sin(zeta)

    def density(E: float) -> float:
        rho, im = parts(E)
        if rho == 0.0 or half_pi:
            return rho
        return rho / ((re_f(E) * c + s) ** 2 + im * im * c * c)

    return density


def ladder_root(h, pole, n: int, xtol: float) -> float:
    """n-th root of h, one per gap of the increasing pole ladder pole(k),
    bracketed 1e-6 of half the gap inside its poles; below pole(0) the bracket
    starts one gap down and steps down by a doubling span."""
    gap = pole(n) - pole(n - 1) if n else pole(1) - pole(0)
    hi = pole(n) - 0.5e-6 * gap
    if n == 0:
        return family_root(h, pole(0) - gap, hi, xtol, span=2.0 * gap)
    return family_root(h, pole(n - 1) + 0.5e-6 * gap, hi, xtol)


def family_root(h, lo: float, hi: float, xtol: float, span: float | None = None) -> float:
    """Root of h in [lo, hi]; with `span`, lo first steps down by a doubling
    span until h(lo) < 0."""
    if span is not None:
        for _ in range(300):
            if h(lo) < 0:
                break
            lo -= span
            span *= 2.0
        else:
            raise ValidationError("failed to bracket the family level")
    return brentq(h, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=200)


def measure(levels, continuum, spec, count: int) -> SpectralMeasure:
    """Spectral measure of spec's cell with `count` atoms of an infinite ladder:
    levels(spec, cell) -> (number of atoms or None, k -> (E_k, Q_k^2)) and
    continuum(spec, cell) -> (density, support)."""
    cell = classify(spec)
    density, support = continuum(spec, cell)
    n, atom = levels(spec, cell)
    # tuple() of a list, not of a generator: the generator form leaves tuples
    # of its intermediate sizes in CPython's free lists and raises peak memory
    atoms = tuple([atom(k) for k in range(count if n is None else n)])
    return SpectralMeasure(atoms, density, support)


def eigen_amplitude(levels, continuum, spec, cell, which: int | float):
    """(energy, amplitude, bound): an int selects a discrete level, whose one
    root is solved for, a float an energy of the continuum."""
    if isinstance(which, int) and not isinstance(which, bool):
        if which < 0:
            raise ValidationError("level index must be >= 0")
        count, atom = levels(spec, cell)
        if count is not None and which >= count:
            raise ValidationError(f"cell has no discrete level with index {which}")
        energy, weight = atom(which)
        return energy, math.sqrt(weight), True
    energy = float(which)
    dens = SpectralMeasure((), *continuum(spec, cell)).density_at(energy)
    if dens <= 0:
        raise ValidationError(f"E={energy} is not in the continuous spectrum")
    return energy, math.sqrt(dens), False


def family_wave(pair, zeta: float, amp: float, decaying=None, switch: float = 0.0):
    """r -> amp (sin(zeta) first + cos(zeta) second) from pair(r), |zeta| < pi/2.
    For a bound state that sum cancels catastrophically beyond `switch`, so
    the wave continues there with the decaying solution, matched at switch."""
    c, s = math.cos(zeta), math.sin(zeta)

    def direct(r: float) -> complex:
        first, second = pair(r)
        return first * s + second * c

    if decaying is None:
        return lambda r: (amp * direct(r)).real
    tail = decaying(switch)
    if tail == 0:  # a deep level's decaying solution underflows at the switch
        raise sf.AccuracyError(
            math.inf, sf.REL_TOL,
            f"bound wave at the switch radius r = {switch:.6g} (decaying solution 0 there)",
        )
    ratio = direct(switch) / tail

    def ev(r: float) -> float:
        if r < switch:
            return (amp * direct(r)).real
        return (amp * ratio * decaying(r)).real

    return ev


def family_green(pair, omega: complex, zeta: float, weight: float, hi: float, lo: float) -> complex:
    """omega u(hi) u(lo) + weight u~(hi) u(lo), hi >= lo, for the rotated pair
    u = sin(zeta) first + cos(zeta) second, u~ = cos(zeta) first - sin(zeta) second."""
    c, s = math.cos(zeta), math.sin(zeta)
    (h1, h2), (l1, l2) = pair(hi), pair(lo)
    u_hi, u_lo = h1 * s + h2 * c, l1 * s + l2 * c
    return omega * (u_hi * u_lo) + weight * ((h1 * c - h2 * s) * u_lo)
