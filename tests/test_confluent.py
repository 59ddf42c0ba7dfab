"""The shared confluent layer: its place under both theories, its formulas
against 40-digit mpmath, and the family root bracketing that both theories
hand to it."""

import cmath
import importlib
import math
import pkgutil
import random
import statistics
import sys

import mpmath as mp
import pytest

import radialspec
from radialspec import _confluent, coulomb, oscillator
from radialspec import specfun as sf
from radialspec.core import ExtensionParam, ProblemSpec, Theory, as_energy

from package_imports import package_import_names, package_imports


def test_import_reader_sees_relative_and_absolute_forms():
    assert {"_confluent", "specfun", "core"} <= package_imports("coulomb")
    assert {"coulomb", "oscillator", "core"} <= package_imports("duality")
    # names from `from .x import a, b`; a whole-module import names nothing
    assert "coul_level" in package_import_names("duality")["coulomb"]
    assert package_import_names("coulomb")["_confluent"] == set()


def test_theories_are_independent_of_each_other():
    # neither closed form is computed by mapping through the other theory,
    # so the duality verifiers compare two independent parameter maps
    assert "oscillator" not in package_imports("coulomb")
    assert "coulomb" not in package_imports("oscillator")
    assert not {"coulomb", "oscillator"} & package_imports("_confluent")


def test_duality_imports_only_public_theory_names():
    # the verifiers see each theory through its public API, so they check
    # what callers get and not a private shortcut shared with the other side
    names = package_import_names("duality")
    for module in ("coulomb", "oscillator"):
        assert names[module]
        assert names[module] <= set(getattr(radialspec, module).__all__)


def test_every_exported_name_resolves():
    # a stale name in an __all__ breaks only `from radialspec.x import *`
    modules = [radialspec] + [
        importlib.import_module(f"radialspec.{info.name}")
        for info in pkgutil.iter_modules(radialspec.__path__)
    ]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len({m.__name__ for m, _ in exported}) >= 7
    assert [(m.__name__, name) for m, name in exported if not hasattr(m, name)] == []


@pytest.mark.parametrize(
    "lo, span, expected",
    [
        # doubling of lo: span = -lo
        (-1.0, 1.0, [-1.0, -2.0, -4.0, -8.0, -16.0, -32.0, -64.0]),
        # lo = -sq, span = 4 sq with sq = 1: -sq, -5 sq, -13 sq, ...
        (-1.0, 4.0, [-1.0, -5.0, -13.0, -29.0, -61.0]),
    ],
)
def test_family_root_bracket_expansion(lo, span, expected):
    seen = []

    def h(x):
        seen.append(x)
        return x + 40.0

    root = _confluent.family_root(h, lo, 10.0, 1e-14, span=span)
    assert seen[: len(expected)] == expected
    assert abs(root + 40.0) < 1e-12


def test_family_root_reports_a_failed_bracket():
    with pytest.raises(radialspec.ValidationError, match="failed to bracket"):
        _confluent.family_root(lambda x: 1.0, -1.0, 0.0, 1e-14, span=1.0)


# --- the shared formulas against mpmath -------------------------------------


def _draws(seed: int, count: int):
    """Seeded complex alpha, n = 1..4, and r on the bound-state branch
    (r > 0), on the continuum branch (arg r = -pi/2) and between them."""
    rnd = random.Random(seed)
    for i in range(count):
        alpha = complex(rnd.uniform(-6.0, 6.0), rnd.uniform(-3.0, 3.0))
        phase = (0.0, -math.pi / 2, rnd.uniform(-math.pi / 2, 0.0))[i % 3]
        yield alpha, 1 + i % 4, rnd.uniform(0.05, 8.0) * cmath.exp(1j * phase)


def _near_shift_points(seed: int):
    """alpha - n within 1e-3 of 0, -1 and -2 and near psi's positive root
    1.4616, real and complex, for n = 1..4: where psi(alpha - n) and
    1/Gamma(alpha - n), taken from alpha, could lose digits."""
    rnd = random.Random(seed)
    for n in range(1, 5):
        for centre in (0.0, -1.0, -2.0, 1.4616321449683622):
            for i in range(6):
                offset = 10.0 ** rnd.uniform(-6.0, -3.0) * cmath.exp(1j * rnd.uniform(-3.1, 3.1))
                if i % 2:
                    offset = offset.real
                phase = (0.0, -math.pi / 2, rnd.uniform(-math.pi / 2, 0.0))[i % 3]
                r = rnd.uniform(0.05, 8.0) * cmath.exp(1j * phase)
                yield complex(n + centre + offset), n, r


def test_shared_formulas_against_mpmath():
    worst = {}

    def check(name, value, ref, size):
        worst[name] = max(worst.get(name, 0.0), float(abs(mp.mpc(value) - ref) / size))

    with mp.workdps(40):
        for alpha, n, r in [*_draws(5150, 240), *_near_shift_points(5151)]:
            a, rr = mp.mpc(alpha), mp.mpc(r)
            psi = [mp.digamma(a - n), mp.digamma(a), 2 * mp.log(rr)]
            pre_b = (-1) ** (n + 1) / (2 * mp.factorial(n)) * mp.rgamma(a - n)
            ref_a = rr**n * (-1) ** n * mp.rf(1 - a, n) / mp.factorial(n)
            ref_c = rr ** (-n) * mp.factorial(n - 1) * mp.rgamma(a)
            for scale in (1.0, 2.0):  # omega_scale: kappa0 (Coulomb), 2 kappa0 (oscillator)
                got_a, got_b, got_c, got_w = _confluent.coefficients(alpha, n, r, scale)
                check("A", got_a, ref_a, abs(ref_a))
                # B and Omega sum three terms: their error is relative to the terms' size
                check("B", got_b, pre_b * sum(psi), abs(pre_b) * sum(abs(t) for t in psi))
                check("C", got_c, ref_c, abs(ref_c))
                check("omega", got_w, scale * n * ref_c, abs(scale * n * ref_c))
                # the unique Omega against B/omega: a route through Gamma, not (1 - alpha)_n
                d = rr**n * mp.rf(1 - a, n) / (2 * scale * mp.factorial(n) ** 2)
                check("Omega", _confluent.unique_omega(alpha, n, r, scale),
                      pre_b * sum(psi) / (scale * n * ref_c), abs(d) * sum(abs(t) for t in psi))
            terms = [mp.digamma(1), -mp.digamma(a) / 2, -mp.log(rr) / 2]
            check("f0", _confluent.m0_family_function(alpha, cmath.log(r), sf.digamma), sum(terms),
                  sum(abs(t) for t in terms))
    assert max(worst.values()) < 1e-13, worst


def test_psi_pair_at_alpha_minus_n_on_a_pole():
    # alpha = j in [1, n] puts psi(alpha - n) on its pole: the shift term
    # 1/(alpha - j) divides by zero, which must surface as a PoleError
    for alpha, n in ((1.0, 1), (2.0, 2), (1.0 + 0.0j, 3)):
        with pytest.raises(radialspec.PoleError, match="digamma"):
            _confluent.psi_pair(alpha, n, sf.digamma)
    with pytest.raises(radialspec.PoleError):  # E = -1: alpha = 1.5 - 1/2 = 1, n = 2
        radialspec.coul_spectral_omega(ProblemSpec(Theory.COULOMB, 2, -1.0), -1.0)


def _parent_ladder_root(h, m: int, g: float, n: int) -> float:
    """The Coulomb ladder rule ladder_root replaced: offsets of 1e-6 |pole|,
    lo = 2 pole(0) stepping down by doubling below the ground pole, and an
    absolute xtol of 5e-16."""
    pole = lambda k: -g * g / (1 + m + 2 * k) ** 2
    hi = pole(n) - 1e-6 * abs(pole(n))
    if n == 0:
        lo = 2.0 * pole(0)
        return _confluent.family_root(h, lo, hi, 5e-16, span=-lo)
    return _confluent.family_root(h, pole(n - 1) + 1e-6 * abs(pole(n - 1)), hi, 5e-16)


def _mp_coulomb_root(m: int, g: float, k0: float, zeta: float, guess: float):
    """Root of the Coulomb family function at 40 digits near `guess`."""
    g, k0 = mp.mpf(g), mp.mpf(k0)
    target = mp.tan(zeta) if m == 1 else -mp.tan(zeta)

    def h(E):
        K = mp.sqrt(-E)
        a = mp.mpf(1 + m) / 2 + g / (2 * K)
        log_r = mp.log(2 * K / k0)
        if m == 1:
            return g / (2 * k0) * (mp.digamma(a) + mp.digamma(a - 1) + 2 * log_r) - target
        return mp.digamma(1) - mp.digamma(a) / 2 - log_r / 2 - target

    return mp.findroot(h, mp.mpf(guess))


def test_moved_ladder_brackets_are_no_further_from_mpmath_roots():
    rnd = random.Random(7272)
    new_err, old_err = [], []
    for i in range(12):
        m, g = i % 2, -rnd.uniform(0.2, 3.0)
        k0, zeta = rnd.choice((1.0, 0.7, 1.9)), rnd.uniform(-1.5, 1.5)
        spec = ProblemSpec(Theory.COULOMB, m, g, k0, ExtensionParam(zeta))
        target = math.tan(zeta) if m == 1 else -math.tan(zeta)
        h = lambda E: radialspec.coul_family_function(m, E, g, k0).real - target
        for n, (e_new, _) in enumerate(radialspec.coul_spectrum(spec, 10).discrete):
            e_old = _parent_ladder_root(h, m, g, n)
            with mp.workdps(40):
                root = _mp_coulomb_root(m, g, k0, zeta, e_new)
                new_err.append(float(abs((e_new - root) / root)))
                old_err.append(float(abs((e_old - root) / root)))
    assert max(new_err) <= max(old_err)
    assert statistics.median(new_err) <= statistics.median(old_err)


@pytest.mark.parametrize(
    "theory, m, sign",
    [(Theory.OSCILLATOR, 0, 1.0)]
    + [(Theory.COULOMB, m, sign) for m in (0, 1, -1) for sign in (-1.0, 1.0)],
)
def test_ladder_levels_are_sign_changes_of_the_public_family_function(theory, m, sign):
    # the ladders solve their own real root function; each level must still
    # be a sign change of the public family function, and the two functions
    # must agree bit for bit, so that they cannot drift apart
    rnd = random.Random(4040 + 10 * m + int(sign))
    found = 0
    for _ in range(40):
        coupling = sign * math.exp(rnd.uniform(math.log(0.25), math.log(4.0)))
        k0, zeta = rnd.uniform(0.5, 2.0), rnd.uniform(-math.pi / 2 + 0.03, math.pi / 2 - 0.03)
        spec = ProblemSpec(theory, m, coupling, k0, ExtensionParam(zeta))
        if theory is Theory.OSCILLATOR:
            levels = radialspec.osc_spectrum(spec, 15).discrete
            target = -math.tan(zeta)
            h = lambda E: radialspec.osc_family_function(E, coupling, k0).real - target
            ladder, _ = oscillator._root_function(coupling, k0, target)
        else:
            levels = radialspec.coul_spectrum(spec, 15).discrete
            target = math.tan(zeta) if m else -math.tan(zeta)
            h = lambda E: radialspec.coul_family_function(m, E, coupling, k0).real - target
            ladder = coulomb._root_function(abs(m), coupling, k0, target)
        for e, _ in levels:
            near = (e * (1.0 - 1e-14), e * (1.0 + 1e-14))
            lo, hi = map(h, near)
            assert min(lo, hi) <= 0.0 <= max(lo, hi), (spec, e)
            for x in (e, *near, e * rnd.uniform(0.5, 2.0)):
                assert ladder(x) == h(x), (spec, x)
        found += len(levels)
    # 15 levels per ladder; a repulsive family cell has one level or none
    assert found == 600 if sign < 0 else found >= 10


@pytest.mark.parametrize(
    "x", [-400.0, -3.0, -0.2, 0.0, 0.2, 0.5 * math.log(2.0), 0.4, 1.0, 19.0, 354.5, 400.0]
)
def test_one_minus_tanh_against_mpmath(x):
    # 1 - tanh(x) loses every digit to cancellation as x grows; past x ~ 355
    # e^{2x} overflows a double, while the answer only underflows (to 0 at 400)
    with mp.workdps(40):
        ref = 2 / (1 + mp.exp(2 * mp.mpf(x)))
        assert abs(_confluent.one_minus_tanh(x) - ref) <= 4 * sys.float_info.epsilon * ref + 5e-324


GREEN_ROW_SPECS = [
    (Theory.COULOMB, 3, -1.0, None), (Theory.COULOMB, 1, 0.6, -0.4),
    (Theory.COULOMB, 0, -1.0, 0.3), (Theory.OSCILLATOR, 1, 1.0, None),
    (Theory.OSCILLATOR, 2, 0.0, None), (Theory.OSCILLATOR, 0, 1.0, 0.3),
]


@pytest.mark.parametrize("theory, m, coupling, zeta", GREEN_ROW_SPECS)
def test_a_kept_green_row_returns_what_a_fresh_row_returns(theory, m, coupling, zeta):
    spec = ProblemSpec(theory, m, coupling, 1.0, None if zeta is None else ExtensionParam(zeta))
    if theory is Theory.OSCILLATOR:
        green, build = radialspec.osc_green, oscillator._osc_green_row
    else:
        green, build = radialspec.coul_green, coulomb._coul_green_row
    energy, v = 0.8 + 0.3j, 1.5
    radii = [0.1 + 0.2 * i for i in range(40)]
    random.Random(3).shuffle(radii)
    _confluent.green_row.cache_clear()
    kept = [repr(green(spec, u, v, energy)) for u in radii]
    assert _confluent.green_row.cache_info()[:2] == (len(radii) - 1, 1)  # hits, misses
    fresh = [repr(build(spec, as_energy(energy))(max(u, v), min(u, v)))
             for u in radii]
    assert kept == fresh
    # another energy or another spec is another row
    green(spec, 1.0, v, energy + 0.1)
    other = ProblemSpec(theory, m, coupling, 1.3, spec.extension)
    green(other, 1.0, v, energy)
    assert _confluent.green_row.cache_info()[:2] == (len(radii) - 1, 3)
