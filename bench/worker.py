"""One workload in one fresh, single-threaded process.

Run by ``run.py``; not meant to be started by hand.  The process measures
its own set-up (``import radialspec`` plus one untimed warm-up task of each
kind), then runs the closed loop: one client, the next task sent when the
previous one returns, until the time is up.  Each task's latency, status and
the outputs picked for checking are appended to ``--out`` as a JSON line as
soon as the task returns, so the process holds no growing list of results;
nothing is checked here, so the checks stay outside every timed region.

With ``--trace 1`` the loop runs untraced for half the time, then the same
tasks again traced; the other workloads get a short traced pass each, so
that every per-layer metric is measured on the workload it belongs to.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from itertools import islice

T_START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402  (pure Python, no radialspec import)

# Host-speed probe. The shared host's speed drifts by up to 1.6x in episodes
# of seconds. Two fixed kernels that use nothing from radialspec are timed
# every PROBE_EVERY_S seconds between tasks: interpreter arithmetic with
# scalar SciPy calls and a small NumPy array operation (the building blocks
# of most tasks), and a LAPACK tridiagonal eigensolve (the bulk of an FD
# solve; it slows less than the interpreter when the host is busy). A task's
# host speed is the mean of the probes just before and just after it, ÷ the
# reference time, of the kernel that matches the task (LAPACK_KINDS), so
# run.py can report times at reference speed next to the raw ones.
PROBE_ITER, PROBE_REF_S, PROBE_EVERY_S = 1500, (1e-3, 0.6e-3), 0.1
LAPACK_KINDS = {"fd"}


def probe() -> tuple[float, float]:
    """(interpreter kernel time, LAPACK kernel time) in seconds."""
    import numpy as np
    from scipy import special
    from scipy.linalg import eigh_tridiagonal

    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0.0
    for k in range(1, PROBE_ITER):
        z = z * (0.99 + 0.01j) + 1.0 / k
        acc += abs(z)
        if k % 10 == 0:
            acc += special.digamma(complex(k, 0.5)).real
    acc += float(np.sin(np.linspace(0.0, 1.0, 20000)).sum())
    t1 = time.perf_counter()
    eigh_tridiagonal(np.linspace(2.0, 3.0, 1000), np.full(999, -1.0), eigvals_only=True,
                     select="i", select_range=(0, 0))
    return t1 - t0, time.perf_counter() - t1


# fixed sizes of the short traced passes of the workloads not under test:
# one grid cycle, four spectra cycles, the five CLI subcommands
HOME_PASS_TASKS = {"grid": 76, "spectra": 40, "cli": 5}


def home_pass(workload: str, seed: int) -> list:
    """The fixed task list of a short traced pass; for oracle, nine FD solves
    and one shooting solve from the first cycle."""
    tasks = gen.stream(workload, seed)
    if workload != "oracle":
        return list(islice(tasks, HOME_PASS_TASKS[workload]))
    cycle = list(islice(tasks, len(gen.ORACLE_FD) + 4))
    return ([t for t in cycle if t["kind"] == "fd"][:9]
            + [t for t in cycle if t["kind"] == "shoot"][:1])


def build_spec(rs, d: dict):
    """A radialspec ProblemSpec from a generated spec dict."""
    ext = rs.ExtensionParam(d["zeta"]) if d["zeta"] is not None else None
    theory = rs.Theory.OSCILLATOR if d["theory"] == "osc" else rs.Theory.COULOMB
    return rs.ProblemSpec(theory, d["m"], d["coupling"], d["kappa0"], ext)


class Runner:
    """Executes tasks through the public radialspec API only."""

    def __init__(self) -> None:
        import radialspec as rs

        self.rs = rs
        self.errors = (rs.ValidationError, rs.PoleError, rs.AccuracyError)
        self.green_pts = gen.linspace(0.2, gen.UMAX, gen.GREEN_POINTS)
        self.importtime = False

    def spec(self, d: dict):
        return build_spec(self.rs, d)

    def spectrum(self, spec, levels: int):
        rs = self.rs
        if spec.theory is rs.Theory.OSCILLATOR:
            return rs.osc_spectrum(spec, levels=levels)
        return rs.coul_spectrum(spec, levels=levels)

    def run(self, t: dict) -> dict:
        return getattr(self, "_" + t["kind"])(t)

    # --- grid
    def _eigen(self, t):
        rs = self.rs
        spec = self.spec(t["spec"])
        fn = rs.osc_eigenfunction if spec.theory is rs.Theory.OSCILLATOR else rs.coul_eigenfunction
        wave = fn(spec, t["which"])
        radii = gen.eigen_radii(t["spec"], wave.energy, isinstance(t["which"], int))
        vals = [float(wave(u)) for u in radii]
        return {"energy": wave.energy, "norm": wave.norm_constant,
                "values": [vals[i] for i in t["check"]]}

    def _density(self, t):
        measure = self.spectrum(self.spec(t["spec"]), 0)
        vals = [measure.density_at(e) for e in gen.linspace(*t["energies"], gen.DENSITY_POINTS)]
        return {"values": [vals[i] for i in t["check"]]}

    def _green(self, t):
        rs = self.rs
        spec = self.spec(t["spec"])
        fn = rs.osc_green if spec.theory is rs.Theory.OSCILLATOR else rs.coul_green
        w = complex(*t["energy"])
        vals = [fn(spec, u, t["v"], w) for u in self.green_pts]
        return {"values": [[vals[i].real, vals[i].imag] for i in t["check"]]}

    def _duality_solution(self, t):
        samples = [(x, complex(er, ei), g) for x, er, ei, g in t["samples"]]
        return {"worst": self.rs.verify_solution_identity(t["k"], t["m"], samples)}

    # --- spectra
    def _measure(self, t):
        atoms = self.spectrum(self.spec(t["spec"]), t["levels"]).discrete
        return {"count": len(atoms),
                "atoms": [list(atoms[i]) if i < len(atoms) else None for i in t["check"]]}

    def _correspondence(self, t):
        zeta = math.pi / 2 if t["m"] == 0 else None
        out = self.rs.verify_spectrum_correspondence(t["m"], t["lam"], t["n_max"], zeta=zeta)
        return {"max_abs_dev": out["max_abs_dev"], "pass": bool(out["pass"])}

    def _coefficients(self, t):
        samples = [(complex(er, ei), g) for er, ei, g in t["samples"]]
        out = self.rs.verify_coefficient_identities(t["m"], samples, zeta=t["zeta"])
        return {"max_rel": out["max_rel"], "samples": out["samples"]}

    # --- oracle
    def _fd(self, t):
        rs = self.rs
        spec = self.spec(t["spec"])
        closed = self.spectrum(spec, t["levels"])
        grid = oracle_grid(t, closed.discrete[-1][0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rs.GridResolutionWarning)
            vals = rs.fd_eigenvalues(spec, rs.GridSpec(*grid), t["levels"])
        report = rs.compare_spectra(closed, vals, tol=1e-2)
        return {"oracle": vals, "closed": [e for e, _ in closed.discrete],
                "grid": grid, "pass": bool(report["pass"])}

    def _shoot(self, t):
        spec = self.spec(t["spec"])
        (e0, _), (e1, _) = self.spectrum(spec, 2).discrete[:2]
        half = 0.4 * abs(e1 - e0)
        shot = self.rs.shoot_eigenvalue(spec, (e0 - half, e0 + half))
        return {"oracle": [shot], "closed": [e0]}

    # --- cli
    def _cli(self, t):
        cmd = [sys.executable]
        if self.importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "radialspec.cli", *t["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        out = {"returncode": proc.returncode, "stdout": proc.stdout}
        if self.importtime:
            out["importtime"] = parse_importtime(proc.stderr)
        return out


def oracle_grid(t: dict, e_top: float) -> list:
    """(u_min, u_max, points): staggered half a spacing off the origin (the
    pure-power channels), u_max past the top level's classical turning
    point."""
    s = t["spec"]
    if s["theory"] == "osc":
        lam = s["coupling"]
        u_max = math.sqrt(abs(e_top) / lam) + 6.0 / lam**0.25
    else:
        tau = math.sqrt(-e_top)
        u_max = 2.0 * abs(s["coupling"]) / tau**2 + 25.0 / tau
    return staggered(u_max, t["nodes"])


def staggered(u_max: float, n: int) -> list:
    """n nodes up to u_max, the first half a spacing off the origin."""
    return [u_max / (n - 0.5) / 2.0, u_max, n]


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in ms per module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum_us, name = line.split("|")
        out.setdefault(name.strip(), int(cum_us) / 1000.0)
    return out


def closed_loop(runner: Runner, tasks, seconds: float, tracer=None,
                sink=None) -> tuple[list, float, list]:
    """Run tasks back to back for `seconds`; returns (records, elapsed, probe
    times).

    Each record names the probe taken before its task (see ``with_speed``).
    With a `sink`, each record is passed to it as soon as its task returns,
    outside the timed span, and no records are returned.  Without one they
    are kept as JSON strings until the loop ends: strings are not tracked by
    the garbage collector, so thousands of kept records neither make full
    collections (30-50 ms each) land inside the timed tasks nor double the
    peak memory."""
    kept = []
    emit = sink or (lambda rec: kept.append(json.dumps(rec)))
    gc.collect()
    start = time.perf_counter()
    probes, last_probe = [probe()], time.perf_counter()
    deadline = start + seconds
    for t in tasks:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.begin_task(t)
        t0 = time.perf_counter()
        try:
            out, status = runner.run(t), "ok"
        except runner.errors as exc:
            out, status = None, "error:" + type(exc).__name__
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            out, status = None, "unexpected:" + type(exc).__name__
        lat = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_task()
        emit({"task": t, "lat": lat, "status": status, "out": out, "probe": len(probes) - 1})
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    probes.append(probe())
    return [json.loads(r) for r in kept], elapsed, probes


def host_speed(probes: list, i: int, kind: str) -> float:
    """Host speed during a task of `kind` that followed probe i: the mean of
    the matching kernel's times just before and just after it, ÷ its
    reference time (> 1 is slower)."""
    c = 1 if kind in LAPACK_KINDS else 0
    return (probes[i][c] + probes[i + 1][c]) / (2 * PROBE_REF_S[c])


def with_speed(records: list, probes: list) -> list:
    for r in records:
        r["speed"] = host_speed(probes, r["probe"], r["task"]["kind"])
    return records


def warm_up(runner: Runner, workload: str) -> None:
    """One untimed task of each kind, drawn from a fixed stream (seed -1) that
    no timed loop sees, so nothing the timed loop computes is computed here
    first and set-up time does not depend on the run's seed."""
    seen = set()
    for t in gen.stream(workload, -1):
        if t["kind"] in seen:
            if len(seen) >= len(KINDS[workload]):
                break
            continue
        seen.add(t["kind"])
        try:
            runner.run(t)
        except runner.errors:
            pass


KINDS = {"grid": {"eigen", "density", "green", "duality_solution"},
         "spectra": {"measure", "correspondence", "coefficients"},
         "oracle": {"fd", "shoot"}, "cli": {"cli"}}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    a = ap.parse_args()

    runner = Runner()
    if a.workload != "cli":
        warm_up(runner, a.workload)
    setup_s = time.perf_counter() - T_START
    # host speed right after set-up, to report set-up time at reference speed
    setup_speed = sorted(probe()[0] for _ in range(5))[2] / PROBE_REF_S[0]
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s, "speed": setup_speed}))
        return 0

    doc = {"workload": a.workload, "seed": a.seed, "setup_s": setup_s, "setup_speed": setup_speed}
    with open(a.out, "w") as fh:
        # one JSON line per record, then one line with the run's summary
        timed = []  # (latency, probe index, kind) of each record, for the traced run

        def sink(rec: dict) -> None:
            fh.write(json.dumps(rec) + "\n")
            if a.trace:
                timed.append((rec["lat"], rec["probe"], rec["task"]["kind"]))

        elapsed, probes = closed_loop(runner, gen.stream(a.workload, a.seed), a.seconds / (
            2.0 if a.trace else 1.0), sink=sink)[1:]
        doc.update(elapsed=elapsed, probes=probes, peak_rss_mb=peak_rss_mb(a.workload))
        if not a.trace:
            doc["specfun_calls"] = census_calls(runner, a.workload, a.seed)
        else:
            doc.update(trace_run(runner, a, timed, probes))
        fh.write(json.dumps(doc) + "\n")
    return 0


def trace_run(runner: Runner, a, timed: list, probes: list) -> dict:
    """The traced passes after the untraced one: the same tasks again on the
    workload under test, so the overhead ratio compares identical work, then
    a short pass of every other workload."""
    import tracer as tr

    tracer = tr.Tracer()
    with tracer.installed():
        for w in (a.workload, *[w for w in gen.WORKLOADS if w != a.workload]):
            tracer.begin_pass(w)
            runner.importtime = w == "cli"  # -X importtime in traced runs only
            if w == a.workload:
                replay = islice(gen.stream(w, a.seed), len(timed))
                records, _, traced_probes = closed_loop(runner, replay, math.inf, tracer)
                traced = with_speed(records, traced_probes)
                tracer.end_pass(traced)
                continue
            if w != "cli":
                warm_up(runner, w)
            tracer.end_pass(closed_loop(runner, home_pass(w, a.seed), math.inf, tracer)[0])
    layers = tracer.per_layer(interpreter_ms())
    plain = sum(lat / host_speed(probes, i, kind) for lat, i, kind in timed)
    layers["trace.overhead"] = plain / sum(r["lat"] / r["speed"] for r in traced)
    if a.spans:
        tracer.write_spans(a.spans)
    return {"per_layer": layers,
            "specfun_calls": _specfun_calls(tracer.passes[a.workload]["agg"])}


def _specfun_calls(agg: dict) -> dict:
    return {k: v[0] for k, v in agg.items() if k.startswith("specfun.")}


def census_calls(runner: Runner, workload: str, seed: int) -> dict:
    """specfun calls per branch over the stream's first tasks, replayed under
    the tracer after the timed loop and the memory reading."""
    if workload == "cli":
        return {}  # the CLI runs in child processes
    import tracer as tr

    t = tr.Tracer()
    with t.installed():
        t.begin_pass(workload)
        closed_loop(runner, home_pass(workload, seed), math.inf, t)
    return _specfun_calls(t.agg)


def interpreter_ms(samples: int = 5) -> float:
    """Median spawn-to-exit time of a bare interpreter."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[samples // 2]


if __name__ == "__main__":
    sys.exit(main())
