from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [d.name for d in DEMOS] == [
        "duality_walkthrough.py",
        "extension_family_tour.py",
        "oracle_crosscheck.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, fresh_python):
    assert fresh_python(str(demo)).strip()
