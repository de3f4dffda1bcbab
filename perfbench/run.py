"""Benchmark of the ``qmb`` workbench: four workloads, cold caches, exact gate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``ore-solver``, ``ore-constructive``, ``identity-sweep``,
``cli-roundtrip``, or ``all`` to run each in turn.  Every pass runs in a
fresh interpreter (``worker.py``), so the process-global caches start cold.

``--trace 0`` runs whole passes until ``S`` seconds have been measured (at
least one), plus set-up-only spawns, and reports the medians of the
end-to-end metrics.  Times are rescaled to a reference host speed
(``speed.py``), since a shared host's speed swings by a third within
seconds; the raw times are printed beside them.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics; the
difference of their raw wall times is the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit.  Full
pass records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only spawns before and again after the passes of an untraced run.
SETUP_SPAWNS = 8
INTERP_SPAWNS = 5  # bare interpreter starts per traced run
RUN_LIMIT_S = 170  # every process of a run ends within this

# The bounded metrics.  The tail latency is printed beside them but reported
# as the per-layer metric bench.call_tail_ms: on the ore sweeps garbage
# collection pauses landing on the few slowest calls move it by a quarter
# between identical runs.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def units(trace: bool) -> dict[str, str]:
    return {n: u for n, u, _ in tr.PER_LAYER} if trace else dict(END_TO_END)


class BenchError(RuntimeError):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[str, float]:
    """Run a process to completion within the deadline; returns (stdout, spawn time)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=workloads.child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:3])} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, t_spawn


def run_pass(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    out, t_spawn = spawn(argv, deadline)
    data = json.loads(out.strip().splitlines()[-1])
    data["raw_setup_s"] = data["ready"] - t_spawn
    data["setup_s"] = data["raw_setup_s"] * data["setup_speed"]
    return data


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency (ms) at the highest percentile with at least 10 calls beyond it, and that percentile."""
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[i] * 1e3, 100.0 * (i + 1) / len(xs)


def interp_start_ms(deadline: float) -> list[float]:
    samples = []
    for _ in range(INTERP_SPAWNS):
        t0 = time.monotonic()
        spawn([sys.executable, "-c", "pass"], deadline)
        samples.append((time.monotonic() - t0) * 1e3)
    return samples


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    def setups():
        return [run_pass(workload, seed, deadline, "--setup-only") for _ in range(SETUP_SPAWNS)]

    spawns = setups()
    passes = []
    while not passes or sum(p["raw_wall_s"] for p in passes) < seconds:
        passes.append(run_pass(workload, seed, deadline))
    spawns += setups() + passes
    setup_s = [p["setup_s"] for p in spawns]
    raw_setup_s = [p["raw_setup_s"] for p in spawns]
    tails = [tail(p["latencies_s"]) for p in passes]
    med = statistics.median
    return {
        "passes": passes,
        "setup_spawns_s": setup_s,
        "raw_setup_spawns_s": raw_setup_s,
        "metrics": {
            "setup_s": med(setup_s),
            "wall_s": med(p["wall_s"] for p in passes),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        },
        "notes": {
            "setup_s": f"median of {len(setup_s)} spawns, at reference speed",
            "wall_s": f"median of {len(passes)} pass(es), at reference speed",
        },
        "unbounded": {
            "raw_setup_s": (med(raw_setup_s), "s", f"median, fastest {min(raw_setup_s):.4g} s"),
            "raw_wall_s": (med(p["raw_wall_s"] for p in passes), "s", "median wall time, probes excluded"),
            "speed": (med(p["speed"] for p in passes), "ratio",
                      f"host speed over the reference, mean of {passes[0]['probes']} probes"),
            "call_tail_ms": (med(t[0] for t in tails), "ms",
                             f"p{tails[0][1]:.2f} of {len(passes[0]['latencies_s'])} calls"),
        },
    }


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    interp = interp_start_ms(deadline)
    plain = run_pass(workload, seed, deadline)
    traced = run_pass(workload, seed, deadline, "--trace")
    outside = dict(traced.get("cli", {}))
    outside.setdefault("import_ms", [traced["import_ms"]])
    outside["interp_start_ms"] = interp
    outside["tracing_overhead_s"] = traced["raw_wall_s"] - plain["raw_wall_s"]
    outside["call_tail_ms"], pct = tail(plain["latencies_s"])
    metrics = tr.layer_metrics(traced["trace"], outside)
    notes = {ratio: f"of {metrics[base]:g} ({base})" for ratio, base in tr.RATIO_BASE.items()}
    notes["bench.call_tail_ms"] = f"p{pct:.2f} of {len(plain['latencies_s'])} untraced calls"
    return {"passes": [plain, traced], "metrics": metrics, "notes": notes, "unbounded": {},
            "spans": traced["trace"]["spans"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    res = traced_run(workload, seed, deadline) if trace else timed_run(workload, seed, seconds, deadline)
    passes = res["passes"]
    res["attempted"] = sum(p["attempted"] for p in passes)
    res["failed"] = sum(p["failed"] for p in passes)
    workloads.OUT.mkdir(exist_ok=True)
    record = workloads.OUT / f"result-{workload}-s{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"workload": workload, "seed": seed, **res}, indent=1))
    return res


def report(workload: str, seed: int, res: dict, trace: bool) -> None:
    print(f"{workload}  seed {seed}  {'traced' if trace else 'untraced'}  digest {res['passes'][-1]['digest'][:16]}")
    unit = units(trace)
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {unit[name]:6s} {res['notes'].get(name, '')}")
    for name, (value, unit_, note) in res["unbounded"].items():
        print(f"  {name:32s} {value:>16.6g} {unit_:6s} {note} (not bounded)")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':32s} {frac:>16.6g} {'ratio':6s} {res['failed']} of {res['attempted']} calls")
    for p in res["passes"]:
        for problem in p["problems"]:
            print(f"  FAILED: {problem}")
    if trace:
        self_s = sorted(res["passes"][-1]["trace"]["self_s"].items(), key=lambda kv: -kv[1])[:5]
        print("  largest self times: " + ", ".join(f"{k} {v:.3g} s" for k, v in self_s))
    else:
        print(f"  caches at end: {res['passes'][-1].get('caches', 'per CLI process')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmb" / "__init__.py").is_file():
        print(f"run.py: no qmb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unit = units(bool(args.trace))
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, res, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}/"
            for key, value in res["metrics"].items():
                metrics[prefix + key] = {"value": value, "unit": unit[key]}
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
