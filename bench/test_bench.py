"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Run from the root of the checkout; takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# the per-layer metrics the benchmark promises, spelled out once more by hand
PROMISED = [
    *[f"specfun.kummer_m.{b}.us_per_call" for b in ("series", "asymptotic", "terminating")],
    "specfun.kummer_m.calls_per_task",
    *[f"specfun.tricomi_u.{b}.us_per_call" for b in ("log_series", "asymptotic", "terminating")],
    "specfun.tricomi_u.calls_per_task", "specfun.kummer_log_companion.us_per_call",
    "specfun.kummer_m_param_derivative.us_per_call", "specfun.bessel.us_per_call",
    "specfun.self_share", "specfun.digamma.us_per_call", "specfun.digamma.calls_per_task",
    "specfun.trigamma.us_per_call", "specfun.gamma.us_per_call",
    "oscillator.osc_solution.us_per_call", "oscillator.osc_solution.calls_per_task",
    "coulomb.coul_solution.us_per_call", "coulomb.coul_solution.calls_per_task",
    "core.RadialWave.call.us_per_point", "core.SpectralMeasure.density_at.us_per_point",
    "core.classify.calls_per_task", "oscillator.self_share", "coulomb.self_share",
    "core.self_share", "oscillator.osc_eigenfunction.us_per_call",
    "coulomb.coul_eigenfunction.us_per_call", "oscillator.osc_green.us_per_point",
    "coulomb.coul_green.us_per_point", "oscillator.osc_family_function.evals_per_level",
    "coulomb.coul_family_function.evals_per_level", "oscillator.osc_spectrum.us_per_level",
    "coulomb.coul_spectrum.us_per_level", "duality.verify_solution_identity.us_per_sample",
    "duality.verify_coefficient_identities.us_per_sample",
    "duality.verify_spectrum_correspondence.us_per_level",
    "oracle.fd_eigenvalues.ns_per_node", "oracle.eigh_tridiagonal.share_of_fd",
    "oracle.self_share", "oracle.shoot_eigenvalue.ms_per_call",
    "oracle.solve_ivp.calls_per_shoot", "oracle.solve_ivp.ms_per_call",
    "cli.interpreter_ms",
    *[f"cli.import.{m}_ms" for m in ("radialspec", "scipy_special", "scipy_optimize",
                                     "scipy_linalg", "scipy_integrate")],
    *[f"cli.{c}.wall_ms" for c in ("spectrum", "density", "wavefunction", "duality", "verify")],
    "trace.overhead",
]


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "spectra", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_name_is_printed_with_its_unit(trace):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _bench()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    report = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for m in declared:
        assert [m["name"], m["unit"]] in [[w[0], w[-1]] for w in report if w]


def test_traced_names_match_the_promised_list():
    assert sorted(tracer.PER_LAYER) == sorted(PROMISED)
    assert [m["name"] for m in _bench()["per_layer"]] == tracer.PER_LAYER


def test_one_seed_generates_identical_inputs():
    for w in gen.WORKLOADS:
        a, b = gen.first(w, 11, 150), gen.first(w, 11, 150)
        assert json.dumps(a) == json.dumps(b)
        assert json.dumps(a) != json.dumps(gen.first(w, 12, 150))


def _records(workload: str, n: int) -> list:
    os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the CLI child processes
    runner = worker.Runner()
    tasks = (t for t in gen.stream(workload, 3) if t["kind"] != "shoot")
    return worker.closed_loop(runner, islice(tasks, n), math.inf)[0]


def _perturb(record: dict) -> dict:
    r = copy.deepcopy(record)
    out = r["out"]
    if "values" in out:
        v = out["values"][0]
        out["values"][0] = [x * (1 + 1e-6) for x in v] if isinstance(v, list) \
            else v + 1e-4 * (abs(v) + 1.0)
    elif "atoms" in out:
        if out["atoms"][0] is None:
            return None  # a cell without atoms: nothing to perturb
        out["atoms"][0][0] *= 1 + 1e-6
    elif "worst" in out:
        out["worst"] = 1e-3
    elif "max_rel" in out:
        out["max_rel"][next(iter(out["max_rel"]))] = 1e-3
    elif "max_abs_dev" in out:
        out["max_abs_dev"], out["pass"] = 1e-3, False
    elif "stdout" in out:
        out["stdout"] = out["stdout"].replace("1", "2", 1)
    elif "oracle" in out:
        out["oracle"][0] += 0.5
    return r


@pytest.mark.parametrize("workload,n", [("grid", 60), ("spectra", 12), ("oracle", 3), ("cli", 2)])
def test_a_perturbed_output_counts_as_a_failure(workload, n):
    records = _records(workload, n)
    results = check.check(records)
    clean = [r for r, (ok, _) in zip(records, results) if ok]
    assert clean, "need at least one record that passes its check"
    perturbed = [p for p in map(_perturb, clean) if p is not None]
    assert all(not ok for ok, _ in check.check(perturbed))
    before = sum(not ok for ok, _ in results)
    after = sum(not ok for ok, _ in check.check(records + perturbed[:1]))
    assert after == before + 1  # counted in fail_ratio = failed / attempted


def test_an_output_the_reference_cannot_check_counts_as_a_failure(monkeypatch):
    def gives_up(task, out):
        raise ArithmeticError("reference did not converge")

    monkeypatch.setitem(check.CHECKS, "eigen", gives_up)
    assert check.check([{"task": {"kind": "eigen"}, "status": "ok", "out": {}}]) == [(False, None)]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
