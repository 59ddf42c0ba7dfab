import io
import json
import math
import os
import pkgutil

import pytest

import radialspec
from radialspec.cli import main


def _run(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _csv_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


# ---------------------------------------------------------------- spectrum


def test_spectrum_oscillator_ladder():
    code, out = _run(
        ["spectrum", "--theory", "osc", "--m", "1", "--coupling", "1", "--levels", "3"]
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["n", "E", "weight"]
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert abs(float(row[1]) - (4.0 + 4.0 * k)) < 1e-12
        assert float(row[2]) > 0


def test_spectrum_coulomb_m0_half_pi():
    code, out = _run(
        [
            "spectrum",
            "--theory",
            "coul",
            "--m",
            "0",
            "--coupling",
            "-1",
            "--zeta",
            "1.5707963",
            "--levels",
            "2",
        ]
    )
    assert code == 0
    _, rows = _csv_rows(out)
    assert abs(float(rows[0][1]) - (-1.0)) < 1e-12
    assert abs(float(rows[0][2]) - 4.0) < 1e-12
    assert abs(float(rows[1][1]) - (-1.0 / 9.0)) < 1e-12


def test_spectrum_rejects_forbidden_extension(capsys):
    code = main(
        ["spectrum", "--theory", "osc", "--m", "2", "--coupling", "1", "--zeta", "0.1"]
    )
    assert code == 2
    assert "unique self-adjoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--theory", "osc", "--m", "1", "--coupling", "2"],
        ["spectrum", "--theory", "osc", "--m", "0", "--coupling", "2", "--zeta", "0.3"],
        ["spectrum", "--theory", "coul", "--m", "1", "--coupling", "-1", "--zeta", "0.4"],
        ["spectrum", "--theory", "coul", "--m", "2", "--coupling", "-1"],
        ["duality", "--checks", "spectra", "--m", "1", "--coupling", "2"],
    ],
)
def test_negative_level_count_exits_2(argv, capsys):
    assert main(argv + ["--levels", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_spectrum_json_schema():
    code, out = _run(
        [
            "spectrum",
            "--theory",
            "osc",
            "--m",
            "1",
            "--coupling",
            "1",
            "--levels",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["spec"] == {
        "theory": "oscillator",
        "m": 1,
        "coupling": 1.0,
        "kappa0": 1.0,
        "zeta": None,
    }
    assert [row["n"] for row in doc["discrete"]] == [0, 1]
    assert doc["continuous"]["support"] == "empty"
    for row in doc["discrete"]:
        assert math.isfinite(row["E"]) and math.isfinite(row["weight"])


# ---------------------------------------------------------------- density


def test_density_free_coulomb_constant_half():
    code, out = _run(
        [
            "density",
            "--theory",
            "coul",
            "--m",
            "0",
            "--coupling",
            "0",
            "--zeta",
            "1.5707963",
            "--emin",
            "0.1",
            "--emax",
            "10",
            "--samples",
            "5",
        ]
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["E", "density"]
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row[1]) - 0.5) < 1e-15


def test_density_invalid_range(capsys):
    code = main(
        [
            "density",
            "--theory",
            "coul",
            "--m",
            "0",
            "--coupling",
            "0",
            "--zeta",
            "1.5707963",
            "--emin",
            "5",
            "--emax",
            "1",
        ]
    )
    assert code == 2


# ---------------------------------------------------------------- wavefunction


def test_wavefunction_csv_and_json():
    argv = [
        "wavefunction",
        "--theory",
        "osc",
        "--m",
        "1",
        "--coupling",
        "1",
        "--level",
        "0",
        "--umin",
        "0.1",
        "--umax",
        "5",
        "--samples",
        "10",
    ]
    code, out = _run(argv)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["u", "value"]
    assert len(rows) == 10
    assert all(math.isfinite(float(v)) for _, v in rows)
    code, out = _run(argv + ["--format", "json"])
    doc = json.loads(out)
    wf = doc["wavefunction"]
    assert abs(wf["energy"] - 4.0) < 1e-12
    assert len(wf["samples"]) == 10


def test_wavefunction_needs_exactly_one_selector(capsys):
    base = ["wavefunction", "--theory", "osc", "--m", "1", "--coupling", "1"]
    assert main(base) == 2
    assert main(base + ["--level", "0", "--energy", "4.0"]) == 2


# ---------------------------------------------------------------- duality


def test_duality_spectra_passes():
    code, out = _run(["duality", "--checks", "spectra", "--m", "1", "--coupling", "4"])
    assert code == 0
    _, rows = _csv_rows(out)
    checks, max_error, tol, passed = rows[0]
    assert checks == "spectra"
    assert float(max_error) <= 1e-12
    assert passed == "1"


def test_duality_solutions_and_coefficients():
    for checks, m in (("solutions", 0), ("solutions", 2), ("coefficients", 1)):
        argv = ["duality", "--checks", checks, "--m", str(m), "--samples", "40"]
        if checks == "coefficients" and m == 0:
            argv += ["--zeta", "0.4"]
        code, out = _run(argv + ["--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["pass"], doc
        assert doc["max_error"] <= doc["tol"]


def test_duality_breach_exits_3():
    code, _ = _run(
        [
            "duality",
            "--checks",
            "solutions",
            "--m",
            "1",
            "--samples",
            "40",
            "--tol",
            "1e-18",
        ]
    )
    assert code == 3


# ---------------------------------------------------------------- verify


def test_verify_oscillator_passes():
    code, out = _run(
        [
            "verify",
            "--theory",
            "osc",
            "--m",
            "1",
            "--coupling",
            "1",
            "--levels",
            "3",
            "--tol",
            "1e-3",
        ]
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["n", "closed", "oracle", "rel_dev", "pass"]
    assert all(row[4] == "1" for row in rows)


def test_verify_breach_exits_3():
    code, _ = _run(
        [
            "verify",
            "--theory",
            "osc",
            "--m",
            "1",
            "--coupling",
            "1",
            "--levels",
            "1",
            "--tol",
            "1e-15",
        ]
    )
    assert code == 3


def test_verify_continuous_cell_exits_2(capsys):
    code = main(
        ["verify", "--theory", "osc", "--m", "1", "--coupling", "-1", "--levels", "2"]
    )
    assert code == 2


def test_verify_non_finite_box_exits_2(capsys):
    argv = ["verify", "--theory", "osc", "--m", "1", "--coupling", "1", "--umax", "inf"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: need 0 < u_min < u_max, both finite")


# ---------------------------------------------------------------- determinism


def test_byte_stable_output():
    argv = [
        "duality",
        "--checks",
        "coefficients",
        "--m",
        "2",
        "--samples",
        "30",
        "--format",
        "json",
    ]
    _, first = _run(argv)
    _, second = _run(argv)
    assert first == second


# ---------------------------------------------------------------- cold start

# Run in a fresh interpreter: reports which of NumPy and the SciPy subpackages
# are loaded after the import and after each subcommand, in this order, and
# which radialspec submodules the import loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
WATCH = ("numpy", "scipy.special", "scipy.optimize", "scipy.integrate", "scipy.linalg")
loaded = lambda: [m for m in WATCH if m in sys.modules]
import radialspec
report = {"import": loaded(), "submodules": sorted(m for m in sys.modules if m.startswith("radialspec."))}
from radialspec.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report[" ".join(argv[:3])] = [code, loaded()]
print(json.dumps(report))
"""


def test_closed_forms_load_no_heavy_scipy(fresh_python):
    def probe(*runs):
        return json.loads(fresh_python("-c", _IMPORT_PROBE, json.dumps(runs)))

    coul = ["--theory", "coul", "--m", "1", "--coupling"]
    # the closed forms need neither NumPy nor SciPy, family cells and
    # log-gamma, digamma and trigamma included; the lambda = 0 oscillator
    # continuum runs last, since its Bessel functions load scipy.special
    report = probe(
        ["spectrum", "--theory", "osc", "--m", "2", "--coupling", "1", "--levels", "3"],
        ["wavefunction", "--theory", "coul", "--m", "2", "--coupling", "-1", "--level", "1"],
        ["duality", "--checks", "spectra", "--m", "1", "--coupling", "2", "--levels", "3"],
        ["spectrum", *coul, "-1", "--zeta", "0.4", "--levels", "3"],
        ["density", *coul, "0.8", "--zeta", "-1.2", "--emin", "0.1", "--emax", "2"],
        ["duality", "--checks", "solutions", "--m", "1", "--samples", "5"],
        ["duality", "--checks", "coefficients", "--m", "2", "--samples", "5"],
        ["wavefunction", "--theory", "osc", "--m", "1", "--coupling", "0", "--energy", "2"],
    )
    # import radialspec loads every submodule but the CLI (bench/tracer.py
    # wraps the oracle's names right after it), and neither NumPy nor SciPy
    package = os.path.dirname(radialspec.__file__)
    names = {n for _, n, _ in pkgutil.iter_modules([package])} - {"cli"}
    assert report.pop("submodules") == sorted(f"radialspec.{n}" for n in names)
    assert report == {
        "import": [],
        "spectrum --theory osc": [0, []],
        "wavefunction --theory coul": [0, []],
        "duality --checks spectra": [0, []],
        "spectrum --theory coul": [0, []],
        "density --theory coul": [0, []],
        "duality --checks solutions": [0, []],
        "duality --checks coefficients": [0, []],
        "wavefunction --theory osc": [0, ["numpy", "scipy.special"]],
    }
    # the finite-difference oracle needs NumPy and scipy.linalg, not scipy.special
    report = probe(
        ["verify", "--theory", "osc", "--m", "1", "--coupling", "1", "--points", "1001"]
    )
    assert report["verify --theory osc"] == [0, ["numpy", "scipy.linalg"]]
