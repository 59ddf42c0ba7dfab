import math

import pytest

from radialspec import duality
from radialspec.core import ValidationError
from radialspec.coulomb import coul_level, coul_spectrum
from radialspec.duality import (
    DualityMap,
    coulomb_to_oscillator,
    oscillator_to_coulomb,
    verify_coefficient_identities,
    verify_solution_identity,
    verify_spectrum_correspondence,
)


def _samples(rng, n):
    return [
        (
            rng.uniform(0.3, 2.0),
            complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.5)),
            rng.choice((-1.0, 0.8)) * rng.uniform(0.3, 1.5),
        )
        for _ in range(n)
    ]


# ---------------------------------------------------------------- map


def test_map_round_trip(rng):
    for k0 in (1.0, 1.7):
        mp = DualityMap(k0)
        for _ in range(20):
            x = rng.uniform(0.1, 5.0)
            e = complex(rng.uniform(-3, 3), rng.uniform(0, 2))
            g = rng.uniform(-2, 2)
            u, w, lam = mp.forward(x, e, g)
            x2, e2, g2 = mp.backward(u, w, lam)
            assert abs(x2 - x) < 1e-14 * x
            assert abs(e2 - e) < 1e-14 * max(1.0, abs(e))
            assert abs(g2 - g) < 1e-14 * max(1.0, abs(g))


def test_map_conventions():
    # u = sqrt(x/k0), W = -4 k0 g, lambda = -4 k0^2 E
    u, w, lam = coulomb_to_oscillator(4.0, -0.25, -1.0, 1.0)
    assert abs(u - 2.0) < 1e-15
    assert abs(w - 4.0) < 1e-15
    assert abs(lam - 1.0) < 1e-15
    x, e, g = oscillator_to_coulomb(2.0, 4.0, 1.0, 1.0)
    assert abs(x - 4.0) < 1e-15 and abs(e - (-0.25)) < 1e-15 and abs(g - (-1.0)) < 1e-15


def test_map_validation():
    with pytest.raises(ValidationError):
        DualityMap(0.0)
    with pytest.raises(ValidationError):
        DualityMap(1.0).forward(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        DualityMap(1.0).backward(0.0, 1.0, 1.0)


# ---------------------------------------------------------------- solutions


@pytest.mark.parametrize("m,kinds", [(0, (1, 2, 3)), (1, (1, 3, 4)), (2, (1, 3, 4))])
def test_solution_identities(rng, m, kinds):
    # C_k(x; E) = sqrt(kappa0 u) O_k(u; W) under the parameter swap
    samples = _samples(rng, 15)
    for k in kinds:
        worst = verify_solution_identity(k, m, samples)
        assert worst < 1e-9


def test_solution_identity_kind_rules(rng):
    with pytest.raises(ValidationError):
        verify_solution_identity(4, 0, [])
    with pytest.raises(ValidationError):
        verify_solution_identity(2, 1, [])
    with pytest.raises(ValidationError):
        verify_solution_identity(7, 1, [])


# ---------------------------------------------------------------- coefficients


def test_coefficient_identities_m_pos(rng):
    samples = [
        (complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.5)), rng.uniform(-1.5, 1.5))
        for _ in range(30)
    ]
    for m in (1, 2, 3):
        out = verify_coefficient_identities(m, samples)
        assert out["samples"] >= 25
        assert out["max_rel"]["omega"] < 1e-10
        assert out["max_rel"]["B"] < 1e-10
        assert out["max_rel"]["Omega"] < 1e-10


def test_coefficient_identities_m0(rng):
    samples = [
        (complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.5)), rng.uniform(-1.5, 1.5))
        for _ in range(30)
    ]
    out = verify_coefficient_identities(0, samples, zeta=0.4)
    assert out["samples"] >= 25
    assert out["max_rel"]["omega0"] < 1e-10
    assert out["max_rel"]["omega_zeta"] < 1e-10


# ---------------------------------------------------------------- spectra


def test_spectrum_correspondence_unique_and_family(monkeypatch):
    # each Coulomb level the check uses is the one coul_spectrum returns
    used = []

    def recorded(spec, n):
        atom = coul_level(spec, n)
        used.append((spec, n, atom[0]))
        return atom

    monkeypatch.setattr(duality, "coul_level", recorded)
    for m in (0, 1, 2, 3):
        zeta = math.pi / 2 if m == 0 else None
        out = verify_spectrum_correspondence(m, 2.0, 30, zeta=zeta)
        assert out["pass"], out
    assert [n for _, n, _ in used] == list(range(31)) * 4
    for spec, n, energy in used:
        assert energy == coul_spectrum(spec, n + 1).discrete[n][0]


def test_spectrum_correspondence_validation():
    with pytest.raises(ValidationError):
        verify_spectrum_correspondence(1, -2.0, 3)
    for n_max in (-1, -3):  # an empty or a negative oscillator level count
        with pytest.raises(ValidationError, match="n_max"):
            verify_spectrum_correspondence(1, 2.0, n_max)
    with pytest.raises(ValidationError):
        verify_spectrum_correspondence(0, 2.0, 3)  # m = 0 needs zeta = pi/2
    with pytest.raises(ValidationError):
        verify_spectrum_correspondence(0, 2.0, 3, zeta=0.3)
