"""The outside-in tracer: it restores the package, its spans partition the
traced time, and its exact counters repeat across cold processes."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from qmb import algebra, linalg, ore, scalars  # noqa: E402
from qmb.algebra import Element  # noqa: E402
from qmb.minors import MinorId  # noqa: E402

N = 3
MINOR = MinorId((1, 2), (1, 2))


def test_install_and_uninstall_restore_every_name():
    before = (algebra.Element.__mul__, scalars.LaurentQ.__mul__, ore.solve_linear, linalg.solve_linear,
              ore._minor_power, algebra._word_mul)
    t = tr.Tracer()
    t.install()
    try:
        assert ore.solve_linear is not before[2]
        assert ore.solve_linear.__wrapped__ is before[2]
    finally:
        t.uninstall()
    after = (algebra.Element.__mul__, scalars.LaurentQ.__mul__, ore.solve_linear, linalg.solve_linear,
             ore._minor_power, algebra._word_mul)
    assert after == before


def test_spans_nest_and_self_times_partition_the_call():
    element = Element.generator(N, 1, 3) * Element.generator(N, 3, 1)
    t = tr.Tracer()
    t.install()
    try:
        w = t.call(7, ore.solve_witness, N, MINOR, element)
    finally:
        t.uninstall()
    assert w.certified
    by_id = {s[0]: s for s in t.spans}
    for sid, parent, call, name, t0, t1 in t.spans:
        assert call == 7 and t0 <= t1
        if parent:
            p = by_id[parent]
            assert p[4] <= t0 and t1 <= p[5]
            assert p[3].split(".")[0] != name.split(".")[0] or name in tr.TIMED
    (root,) = [s for s in t.spans if s[1] == 0]
    rec = t.record()
    assert abs(sum(rec["self_s"].values()) - (root[5] - root[4])) < 1e-6
    assert rec["counts"]["linalg.solve_linear"] >= 1
    assert rec["counts"]["ore.witnesses"] == 1
    assert rec["incl_s"]["linalg.solve_linear"] <= root[5] - root[4]


def test_counters_repeat_exactly_across_cold_processes(tmp_path):
    argv = ["ore", "--n", "3", "--minor-rows", "1,2", "--minor-cols", "2,3", "--elem", "t[3,1] t[1,3]",
            "--side", "right", "--strategy", "constructive"]
    recs = []
    for i in range(2):
        prefix = tmp_path / f"call{i}"
        proc = subprocess.run([sys.executable, str(BENCH / "cli_shim.py"), str(prefix), "0", *argv],
                              capture_output=True, text=True, env=workloads.child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        recs.append(json.loads(Path(f"{prefix}.json").read_text()))
    assert recs[0]["counts"] == recs[1]["counts"]
    assert recs[0]["caches"] == recs[1]["caches"]
    assert recs[0]["counts"]["ore.OreWitness.certify"] > 1
    metrics = tr.layer_metrics(tr.merge(recs), {})
    assert {name for name, _, _ in tr.PER_LAYER} == set(metrics)
    assert metrics["exprparse.parse_calls"] == 2


def test_tail_has_ten_calls_beyond_it():
    lat = [i / 1000 for i in range(75)]
    value, pct = run.tail(lat)
    assert sum(1 for x in lat if x * 1e3 > value) == 10
    assert round(pct, 2) == 86.67
    assert run.tail([0.5]) == (500.0, 100.0)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tr.PER_LAYER)
