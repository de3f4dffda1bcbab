"""Seeded inputs, the calls each workload makes, and the correctness gate.

Every workload is one caller in a closed loop: the next call starts when the
previous one has returned.  The gate runs after the timed calls and checks
each result against the question that was asked, so a result that merely
claims to be certified does not pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Why each was chosen is said once, in BENCHMARK.json.
WORKLOADS = ("ore-solver", "ore-constructive", "identity-sweep", "cli-roundtrip")

# -- ore workloads -------------------------------------------------------------

ORE_N = 4
# Of the eight interior items (k not in K, l not in L, both strictly inside the
# ranges of K and L; 13-17 s each on the solver route and 16-28 s on the
# constructive route, cold) one is run: the cheapest on the constructive
# route, so that a run of either ore workload stays near half a minute.
INTERIOR = ((1, 3, 4), (1, 2, 4), 2, 3, "left-form")


@dataclass(frozen=True)
class OreItem:
    rows: tuple
    cols: tuple
    k: int
    l: int
    side: str


def _is_interior(it: OreItem) -> bool:
    return (len(it.rows) == 3 and it.k not in it.rows and it.l not in it.cols
            and it.rows[0] < it.k < it.rows[-1] and it.cols[0] < it.l < it.cols[-1])


def ore_items() -> list[OreItem]:
    """Every proper minor x every generator x both sides, in sweep order,
    except seven of the eight interior items.

    The sweep is exhaustive and its order fixed, so the seed does not change
    it.  A seeded sample of the size-3 items moved the tail latency by half
    between seeds, because the slowest calls are a few dozen size-3 items;
    a seeded order moved the constructive tail by a quarter, because the
    generator-witness cache decides which call pays for a shared witness.
    """
    labels = range(1, ORE_N + 1)
    out = [OreItem(K, L, k, l, side) for side in ("left-form", "right-form") for size in range(1, ORE_N)
           for K in combinations(labels, size) for L in combinations(labels, size)
           for k in labels for l in labels]
    return [it for it in out if not _is_interior(it) or it == OreItem(*INTERIOR)]


def witness_problems(w, certified: bool, n: int, minor, element, side: str, solver: bool,
                     path: Path) -> list[str]:
    """Why ``w`` does not certify ``element`` against ``minor`` on ``side``.

    Besides the certified equation itself this checks that the witness
    answers the question asked and is not vacuous, and that it replays after
    a round trip through the witness file format.
    """
    from qmb.ore import verify_witness_file, witness_to_file

    problems = []
    if (w.n, w.minor, w.side) != (n, minor, side) or w.element != element:
        problems.append("answers another question")
    if w.power < 1 or w.target_power != 1:
        problems.append(f"power {w.power}, target power {w.target_power}")
    if w.scale.is_zero():
        problems.append("zero scale")
    if not certified:
        problems.append("not certified")
    if solver and len(w.infeasible) != w.power - 1:
        problems.append(f"{len(w.infeasible)} infeasible powers listed below power {w.power}")
    try:
        witness_to_file(w, str(path))
        back = verify_witness_file(str(path))
    except Exception as exc:  # any failure to write or replay is a gate miss
        problems.append(f"file round trip: {type(exc).__name__}: {exc}")
    else:
        if (back.n, back.minor, back.side, back.element, back.power, back.scale, back.cofactor) != (
                w.n, w.minor, w.side, w.element, w.power, w.scale, w.cofactor):
            problems.append("file round trip changed the witness")
    return problems


def ore_gate(questions: list[tuple], results: list, solver: bool, work_dir: Path) -> tuple[list[list[str]], str]:
    """Problems per call and a digest of the canonical witness JSON.

    ``questions[i] = (n, minor, element, side)`` is what call ``i`` asked.
    """
    path = work_dir / "witness.json"
    digest = hashlib.sha256()
    problems = []
    for (n, minor, element, side), w in zip(questions, results, strict=True):
        if isinstance(w, Exception):
            problems.append([f"raised {type(w).__name__}: {w}"])
            continue
        problems.append(witness_problems(w, w.certified, n, minor, element, side, solver, path))
        digest.update(json.dumps(w.to_json(), sort_keys=True).encode())
    return problems, digest.hexdigest()


# -- identity sweep ------------------------------------------------------------

SUITE_ARGS = {"n_max": 5, "size_cap": 4}
# Verified configurations per identity family at n <= 5, minor size <= 4.
SUITE_COUNTS = {
    "centrality": 2078,
    "q-commutation": 2084,
    "muir": 1680,
    "gap-r": 638,
    "gap-one": 436,
    "e0-membership": 309,
}
# The resolved conventions, as tabulated in the paper.
SUITE_CONVENTIONS = {
    "q-commutation": {"col-outside-above": -1, "col-outside-below": 1,
                      "row-outside-above": -1, "row-outside-below": 1},
    "muir": {"removed<added": 1, "removed>added": -1},
    "gap-one-factor-order": ["generator-first"],
    "gap-r-reading": [["same-row", "sorted"]],
}


def suite_problems(report) -> list[str]:
    problems = []
    statuses = {r.status for r in report.results}
    if statuses != {"verified"}:
        problems.append(f"statuses {sorted(statuses)}")
    counts = {name: slot["verified"] for name, slot in report.counts().items()}
    if counts != SUITE_COUNTS:
        problems.append(f"verified counts {counts}")
    if report.conventions != SUITE_CONVENTIONS:
        problems.append(f"conventions {report.conventions}")
    return problems


# -- CLI round trip ------------------------------------------------------------

CLI_N = 3
CLI_CASES = 25
CLI_SHIM = HERE / "cli_shim.py"


@dataclass(frozen=True)
class CliCase:
    rows: tuple
    cols: tuple
    expr: str
    side: str
    strategy: str


def _in_gap(rows: tuple, cols: tuple, k: int, l: int) -> bool:
    """t[k,l] sits in a gap of the minor: its row lies strictly between two
    of the minor's rows and is not one of them, or likewise its column."""
    return (k not in rows and rows[0] < k < rows[-1]) or (l not in cols and cols[0] < l < cols[-1])


def cli_cases(seed: int) -> list[CliCase]:
    """Proper minors at n = 3 against a generator, a product of two generators
    or a homogeneous two-term sum, on either side, by either route.

    Sums are homogeneous because the solver splits an inhomogeneous element
    by multidegree and the composed witness carries no infeasibility list.

    Every case answers within the CLI's default degree cap of 16.  The
    constructive route composes one generator witness per factor.  When both
    factors of a product sit in a gap of the minor, 26 of the 122 such
    questions need normal forms of degree 17 or 18 and exit 6, so those
    products take the solver route, which stays within the cap on every
    question drawn here.
    """
    n = CLI_N
    rng = random.Random(seed)
    labels = range(1, n + 1)
    minors = [(K, L) for m in (1, 2) for K in combinations(labels, m) for L in combinations(labels, m)]
    out = []
    for _ in range(CLI_CASES):
        K, L = rng.choice(minors)
        a, b, c, d = (rng.choice(labels) for _ in range(4))
        kind = rng.choice(("generator", "product", "sum"))
        if kind == "generator":
            expr = f"t[{a},{b}]"
        elif kind == "product":
            expr = f"t[{a},{b}] t[{c},{d}]"
        else:
            c = rng.choice([x for x in labels if x != a])
            d = rng.choice([x for x in labels if x != b])
            expr = f"t[{a},{b}] t[{c},{d}] + q t[{a},{d}] t[{c},{b}]"
        side, strategy = rng.choice(("left", "right")), rng.choice(("solver", "constructive"))
        if kind == "product" and _in_gap(K, L, a, b) and _in_gap(K, L, c, d):
            strategy = "solver"
        out.append(CliCase(K, L, expr, side, strategy))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # cache compiled modules in the checkout, as an installed qmb has them;
    # otherwise every child compiles qmb and the benchmark from source
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# -- the workload object -------------------------------------------------------


@dataclass
class Workload:
    """The calls of one pass, and the gate applied to their results."""

    calls: list[Callable[[], object]]
    gate: Callable[[list], tuple[list[list[str]], str]]
    children: bool = False  # peak memory is that of child processes
    procs: list = field(default_factory=list)  # finished CLI subprocesses


def make(name: str, seed: int, work_dir: Path, trace_dir: Path | None = None) -> Workload:
    """Build the inputs of workload ``name`` from ``seed`` (only the CLI
    workload draws its inputs; the others are exhaustive sweeps).

    ``work_dir`` receives witness files; with ``trace_dir`` the CLI children
    run under the tracing shim and write their records there.
    """
    from qmb.algebra import Element
    from qmb.minors import MinorId

    if name in ("ore-solver", "ore-constructive"):
        from qmb import ore  # looked up per call, so that a tracer's wrappers are used

        solver = name == "ore-solver"
        items = ore_items()
        questions = [(ORE_N, MinorId(it.rows, it.cols), Element.generator(ORE_N, it.k, it.l), it.side)
                     for it in items]
        if solver:
            calls = [lambda q=q: ore.solve_witness(*q) for q in questions]
        else:
            calls = [lambda q=q, it=it: ore.witness_generator_constructive(ORE_N, q[1], it.k, it.l, it.side)
                     for q, it in zip(questions, items)]
        return Workload(calls, lambda results: ore_gate(questions, results, solver, work_dir))

    if name == "identity-sweep":
        from qmb import identities

        def gate(results):
            (report,) = results
            if isinstance(report, Exception):
                return [[f"raised {type(report).__name__}: {report}"]], ""
            text = json.dumps(report.to_json(), sort_keys=True)
            return [suite_problems(report)], hashlib.sha256(text.encode()).hexdigest()

        return Workload([lambda: identities.run_suite(**SUITE_ARGS)], gate)

    if name == "cli-roundtrip":
        return _cli_workload(seed, work_dir, trace_dir)

    raise ValueError(f"unknown workload {name!r}")


def _cli_workload(seed: int, work_dir: Path, trace_dir: Path | None) -> Workload:
    from qmb.exprparse import parse_element
    from qmb.minors import MinorId
    from qmb.ore import witness_from_json

    cases = cli_cases(seed)
    env = child_env()
    outputs: list[subprocess.CompletedProcess] = []

    def run(argv):
        call_id = len(outputs)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "qmb.cli", *argv]
        else:
            cmd = [sys.executable, str(CLI_SHIM), str(trace_dir / f"call{call_id}"), str(call_id), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        outputs.append(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    def cofactor_text(path: Path) -> str:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["cofactor"]

    calls = []
    for i, case in enumerate(cases):
        rows, cols = (",".join(map(str, labels)) for labels in (case.rows, case.cols))
        path = work_dir / f"case{i}.json"
        calls += [
            lambda c=case, p=path, r=rows, k=cols: run(
                ["ore", "--n", str(CLI_N), "--minor-rows", r, "--minor-cols", k, "--elem", c.expr,
                 "--side", c.side, "--strategy", c.strategy, "--out", str(p)]),
            lambda p=path: run(["verify-witness", str(p)]),
            lambda p=path: run(["nf", "--n", str(CLI_N), cofactor_text(p)]),
        ]

    def gate(results):
        digest = hashlib.sha256()
        problems = []
        for i, case in enumerate(cases):
            ore_res, verify_res, nf_res = results[3 * i: 3 * i + 3]
            path = work_dir / f"case{i}.json"
            side = "left-form" if case.side == "left" else "right-form"
            ore_p, verify_p, nf_p = [], [], []
            data = None
            if isinstance(ore_res, Exception):
                ore_p.append(str(ore_res))
            else:
                try:
                    with open(path, encoding="utf-8") as fh:
                        data = json.load(fh)
                    ore_p += witness_problems(
                        witness_from_json(data), data["certified"] is True, CLI_N, MinorId(case.rows, case.cols),
                        parse_element(case.expr, CLI_N), side, case.strategy == "solver",
                        work_dir / f"case{i}.replay.json")
                except Exception as exc:  # an unreadable witness file is a gate miss
                    ore_p.append(f"witness file: {type(exc).__name__}: {exc}")
            if isinstance(verify_res, Exception):
                verify_p.append(str(verify_res))
            else:
                try:
                    report = json.loads(verify_res.stdout)
                except ValueError:
                    report = {}
                if report.get("certified") is not True or (data and report.get("power") != data["power"]):
                    verify_p.append(f"verify-witness reported {verify_res.stdout.strip()!r}")
            if isinstance(nf_res, Exception):
                nf_p.append(str(nf_res))
            elif data is None or nf_res.stdout.strip() != data["cofactor"]:
                nf_p.append("nf does not reproduce the cofactor text")
            problems += [ore_p, verify_p, nf_p]
            if data is not None:
                digest.update(json.dumps(data, sort_keys=True).encode())
            if not verify_p:
                digest.update(json.dumps({**report, "path": None}, sort_keys=True).encode())
            if not nf_p:
                digest.update(nf_res.stdout.encode())
        return problems, digest.hexdigest()

    return Workload(calls, gate, children=True, procs=outputs)
