"""The shared confluent layer: its place under both theories and the family
root bracketing that both theories hand to it."""

import pytest

import radialspec
from radialspec import _confluent

from package_imports import package_imports


def test_import_reader_sees_relative_and_absolute_forms():
    assert {"_confluent", "specfun", "core"} <= package_imports("coulomb")
    assert {"coulomb", "oscillator", "core"} <= package_imports("duality")


def test_theories_are_independent_of_each_other():
    # neither closed form is computed by mapping through the other theory,
    # so the duality verifiers compare two independent parameter maps
    assert "oscillator" not in package_imports("coulomb")
    assert "coulomb" not in package_imports("oscillator")
    assert not {"coulomb", "oscillator"} & package_imports("_confluent")


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
