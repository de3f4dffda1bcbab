"""Command-line entry point.

Batch verbs only; every invocation fixes one algebra size with ``--n``.
Exit codes: 0 success, 2 usage or expression syntax error, 3 precondition
failure or an OS error on a file, 4 no witness within the power bound, 5
check or certificate failure, 6 degree cap, minor-size or matrix-size bound
exceeded.

The ``qmb`` script and ``python -m qmb.cli`` enter through ``run``, which
ends the process as soon as ``main``'s output is flushed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import DegreeCapError, Element, _read_int, commutator
from .exprparse import ExprSyntaxError, parse_element
from .identities import (
    NOT_APPLICABLE,
    VERIFIED,
    check_centrality,
    check_E0_membership,
    check_gap_one,
    check_gap_r,
    check_muir_pair,
    check_qcommutation,
    run_suite,
)
from .minors import MinorId, check_matrix_size, minor_element, quantum_minor
from .ore import (
    LEFT,
    RIGHT,
    CertificateError,
    ChainWitness,
    UnsatWithinBound,
    multi_minor_witness,
    verify_witness_file,
    witness_for_element,
)
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_UNSAT = 4
EXIT_CHECK_FAILED = 5
EXIT_DEGREE_CAP = 6


class UsageError(Exception):
    """A combination of options the verb cannot run with (exit 2)."""


def _ascii_int(text: str, least: int = 0) -> int:
    """An integer option of at least ``least``, read as the expression grammar
    reads its integers (``algebra._read_int``); one past the digit limit is
    refused by its digit count."""
    try:
        value = _read_int(text.strip())
        if value >= least:
            return value
    except DegreeCapError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {'a positive' if least else 'an'} integer, got {text!r}")


def _positive_int(text: str) -> int:
    return _ascii_int(text, 1)


def _labels(text: str) -> tuple[int, ...]:
    """A comma-separated list of integer options."""
    return tuple(_ascii_int(v) for v in text.split(",") if v.strip() != "")


def _emit(data, fmt: str, out_path=None) -> None:
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        text = data if data.endswith("\n") else data + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_element(args, key: str, elem, **fields) -> int:
    """``elem`` as canonical text, or as JSON under ``key`` beside ``n`` and ``fields``."""
    if args.format == "json":
        _emit({"n": args.n, **fields, key: elem.render()}, "json", args.out)
    else:
        _emit(elem.render(), "text", args.out)
    return EXIT_OK


def _cmd_nf(args) -> int:
    return _emit_element(args, "normal_form", parse_element(args.expression, args.n))


def _cmd_minor(args) -> int:
    elem = quantum_minor(args.n, args.rows, args.cols)
    return _emit_element(args, "minor", elem, rows=list(args.rows), cols=list(args.cols))


def _cmd_commutator(args) -> int:
    a = parse_element(args.left, args.n)
    b = parse_element(args.right, args.n)
    return _emit_element(args, "commutator", commutator(a, b))


def _cmd_identity(args) -> int:
    kind = args.kind
    if kind != "muir" and (args.k is None or args.l is None):
        raise UsageError(f"--k and --l are required for {kind} checks")
    if kind == "muir" and args.cols2 is None:
        raise UsageError("--cols2 is required for muir checks")
    # every given label must name a minor or a generator at this n (the checks sort the columns)
    for cols in (args.cols, args.cols2):
        if cols is not None:
            minor_element(args.n, MinorId(args.rows, sorted(cols)))
    if args.k is not None and args.l is not None:
        Element.generator(args.n, args.k, args.l)
    generator_checks = {"centrality": check_centrality, "q-commutation": check_qcommutation,
                        "gap-one": check_gap_one, "gap-r": check_gap_r}
    if kind in generator_checks:
        res = generator_checks[kind](args.n, args.rows, args.cols, args.k, args.l)
    elif kind == "muir":
        res = check_muir_pair(args.n, args.rows, args.cols, args.cols2)[0]
    else:  # membership
        if args.element is None:
            raise UsageError("--element is required for membership checks")
        elem = parse_element(args.element, args.n)
        res = check_E0_membership(
            args.n, args.rows, args.cols, (args.k, args.l),
            [(c, w) for w, c in elem.terms()],
        )
    _emit(res.to_json(), "json", args.out)
    if res.status == VERIFIED:
        return EXIT_OK
    if res.status == NOT_APPLICABLE:
        return EXIT_PRECONDITION
    return EXIT_CHECK_FAILED


def _cmd_suite(args) -> int:
    report = run_suite(
        n_max=args.n,
        size_cap=args.size_cap,
        include_membership=not args.no_membership,
    )
    if args.format == "text":
        _emit("\n".join(report.summary_lines()), "text", args.out)
    else:
        _emit(report.to_json(), "json", args.out)
    return EXIT_OK if report.all_verified() else EXIT_CHECK_FAILED


def _cmd_ore(args) -> int:
    if len(args.minor_rows) != len(args.minor_cols):
        raise UsageError("--minor-rows and --minor-cols must be given the same number of times")
    elem = parse_element(args.elem, args.n)
    side = LEFT if args.side == "left" else RIGHT
    minors = [MinorId(r, c) for r, c in zip(args.minor_rows, args.minor_cols)]
    if len(minors) == 1:
        w = witness_for_element(args.n, minors[0], elem, side, args.strategy, m_max=args.max_power)
    else:
        w = multi_minor_witness(args.n, minors, elem, side, args.strategy, m_max=args.max_power)
    _emit(w.to_json(), "json", args.out)
    return EXIT_OK


def _cmd_verify_witness(args) -> int:
    w = verify_witness_file(args.path)
    power = {"powers": w.powers} if isinstance(w, ChainWitness) else {"power": w.power}
    _emit({"path": args.path, "certified": True, **power, "side": w.side}, "json", None)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, except that ``--help`` lets an error writing stdout through:
    argparse's own writer drops it, so unbuffered help into a full disk would
    exit 0 with nothing written."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmb",
        description="Exact quantum-matrix-algebra workbench: normal forms, minors, "
        "identity sweeps, certified Ore witnesses.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, fmt=None):
        p.add_argument("--n", type=_positive_int, required=True, help="matrix size (fixes the algebra)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default=fmt)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expression")
    common(p, "text")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("minor", help="expand a quantum minor")
    p.add_argument("--rows", type=_labels, required=True)
    p.add_argument("--cols", type=_labels, required=True)
    common(p, "text")
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("commutator", help="normal form of a commutator [a, b]")
    p.add_argument("left")
    p.add_argument("right")
    common(p, "text")
    p.set_defaults(func=_cmd_commutator)

    # options in full only: an abbreviation such as --r would read as --rows
    p = sub.add_parser("identity", help="check one identity configuration", allow_abbrev=False)
    p.add_argument("--kind", required=True,
                   choices=("centrality", "q-commutation", "muir", "gap-one", "gap-r", "membership"))
    p.add_argument("--rows", type=_labels, required=True)
    p.add_argument("--cols", type=_labels, required=True)
    p.add_argument("--cols2", type=_labels, default=None, help="second column set (muir)")
    p.add_argument("--k", type=_ascii_int, default=None)
    p.add_argument("--l", type=_ascii_int, default=None)
    p.add_argument("--element", default=None, help="element expression (membership)")
    common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("suite", help="sweep all identity configurations up to caps")
    p.add_argument("--n", type=_positive_int, default=4, help="largest matrix size to sweep")
    p.add_argument("--size-cap", type=_positive_int, default=3, help="largest minor size")
    p.add_argument("--no-membership", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("ore", help="compute a certified Ore witness")
    p.add_argument("--minor-rows", type=_labels, action="append", required=True)
    p.add_argument("--minor-cols", type=_labels, action="append", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--max-power", type=_positive_int, default=None,
                   help="highest power of the returned witness, on every strategy "
                        "(default: scan up to the degree cap)")
    p.add_argument("--strategy", choices=("solver", "constructive", "both"), default="solver")
    common(p)
    p.set_defaults(func=_cmd_ore)

    p = sub.add_parser("verify-witness", help="re-check a witness file bit-exactly")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify_witness)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "n" in args:
            check_matrix_size(args.n)
        code = args.func(args)
        # a buffered stdout meets a full disk or a closed pipe here, not at exit
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"qmb: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExprSyntaxError as exc:
        print(f"qmb: syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsatWithinBound as exc:
        print(f"qmb: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except CertificateError as exc:
        print(f"qmb: certificate failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DegreeCapError as exc:
        print(f"qmb: {exc}", file=sys.stderr)
        return EXIT_DEGREE_CAP
    except (ValueError, OSError) as exc:
        print(f"qmb: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> None:
    """Run ``main`` on the command line and end the process with its status.

    Every object dies with the process, so the interpreter's teardown, which
    frees them one by one, is skipped.  ``main`` has flushed stdout, except
    on argparse's own exits (a bad option, ``--help``), which leave it
    through ``SystemExit``; stdout is flushed here then, and an error doing
    so exits 3 as in ``main``.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
        try:
            sys.stdout.flush()
        except OSError as err:
            print(f"qmb: {err}", file=sys.stderr)
            code = EXIT_PRECONDITION
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
