"""One pass of one workload, in a fresh interpreter so every cache starts cold.

Run by ``run.py``; prints one JSON object on its last line.  The pass imports
``qmb`` from the checkout's ``src``, builds its inputs, checks that the five
process-global caches are empty, then makes the calls one after another and
times each.  Cache sizes and peak memory are read when the last call returns;
the correctness gate runs after that, outside the timed region.  The host's
speed is probed as set-up ends and during the calls (``speed.py``), so that
``run.py`` can report times at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_qmb() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qmb

    elapsed = time.perf_counter() - t0
    if Path(qmb.__file__).resolve().parent != SRC / "qmb":
        raise SystemExit(f"qmb was imported from {qmb.__file__}, not from {SRC}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = _import_qmb()
    import tracer as tr
    import workloads
    from speed import INTERVAL_S, REF_START_S, SpeedSampler, speed_now, time_start

    tag = f"{args.workload}-s{args.seed}"
    work_dir = workloads.OUT / f"work-{tag}-{os.getpid()}"
    trace_dir = workloads.OUT / f"trace-{tag}" if args.trace else None
    work_dir.mkdir(parents=True, exist_ok=True)
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work_dir, trace_dir)
        cold = tr.cache_state()
        if any(cold.values()):
            raise SystemExit(f"caches are not empty before the first call: {cold}")
        ready = time.monotonic()
        setup_speed = speed_now()  # run.py rescales the set-up time by it
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
            return 0

        tracer = tr.Tracer() if args.trace and not wl.children else None
        if tracer is not None:
            tracer.install()
        # The CLI workload's work runs in child processes while this one
        # waits, and most of a CLI call is interpreter start, which a host's
        # speed phase moves less than it moves pure-Python work.  So that
        # workload is probed with a bare interpreter start before each call.
        # The traced pass is not rescaled, so probes do not enter its spans.
        rescale = not args.trace
        if wl.children:
            sampler = SpeedSampler(0.0, partial(time_start, workloads.child_env()), REF_START_S)
        else:
            sampler = SpeedSampler(INTERVAL_S if rescale else 0.0)
        latencies, results = [], []
        clock = time.perf_counter
        start = sampler.start()
        for i, call in enumerate(wl.calls):
            if rescale and wl.children:
                sampler.sample()
            probed = sampler.probe_s
            t0 = clock()
            try:
                result = tracer.call(i, call) if tracer is not None else call()
            except Exception as exc:  # a failed call is counted, not fatal
                result = exc
            latencies.append(clock() - t0 - (sampler.probe_s - probed))
            results.append(result)
        raw_wall_s = sampler.stop() - start - sampler.probe_s
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
        caches = tr.cache_state()
        speed = sampler.speed() if rescale else 1.0
        out = {"ready": ready, "setup_speed": setup_speed, "wall_s": raw_wall_s * speed, "raw_wall_s": raw_wall_s,
               "speed": speed, "probes": len(sampler.probes), "latencies_s": latencies,
               "peak_rss_mb": usage.ru_maxrss / 1024, "import_ms": import_s * 1e3}
        if wl.children:
            out["cli"] = {
                "invocations": len(wl.procs),
                "nonzero_exits": sum(1 for p in wl.procs if p.returncode != 0),
                "bytes_out": sum(len(p.stdout.encode()) for p in wl.procs)
                + sum(p.stat().st_size for p in work_dir.iterdir()),  # the witness files written
            }
        else:
            out["caches"] = caches

        problems, out["digest"] = wl.gate(results)
        out.update(attempted=len(results), failed=sum(1 for p in problems if p),
                   problems=[p for p in problems if p][:20])
        if tracer is not None:
            rec = tracer.record()
            rec["caches"] = caches
            out["trace"] = rec
            tracer.dump(trace_dir / "spans.json.gz")
        elif trace_dir is not None:
            recs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("call*.json"))]
            out["trace"] = tr.merge(recs)
            out["cli"]["import_ms"] = [r["import_ms"] for r in recs]
            out["cli"]["main_ms"] = [r["main_ms"] for r in recs]
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # skip freeing the caches' objects one by one: it takes seconds after a sweep
    os._exit(code)
