"""Command-line surface: classify, covers, order, segment, verify, fuzz, hasse."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import classify, cover_table
from .errors import (
    ForeignElementError,
    OrderCapError,
    PreconditionError,
    RingSpecError,
    TableValidationError,
    VerificationError,
)
from .fuzz import FAMILIES, FuzzConfig, fuzz, structural_specs
from .order import build_order, hasse_dot, initial_segment
from .rings import DEFAULT_ORDER_CAP, realize, spec_from_json
from .theorems import THEOREM_IDS, run_suite, run_theorem

# The variable can only lower the cap: at n = 8192 the tables a ring
# retains pass the 1 GB budget of one `verify`.
CAP_ENV_VAR = "STARORDER_ORDER_CAP"

# The reader of stdout went away (e.g. `| head -1`): the code a shell reports
# for a process killed by SIGPIPE, 128 + 13, and never 1 ("a check failed").
EXIT_BROKEN_PIPE = 141

_INPUT_ERRORS = (
    RingSpecError,
    TableValidationError,
    ForeignElementError,
    PreconditionError,
)


class _InputError(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def _emit(payload: dict | list) -> None:
    print(json.dumps(payload, indent=2))


def _resolve_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _InputError("order-cap", f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if not 1 <= cap <= DEFAULT_ORDER_CAP:
        raise _InputError("order-cap", f"{CAP_ENV_VAR} must be in 1..{DEFAULT_ORDER_CAP}, got {cap}")
    return cap


def _load_ring(source: str):
    text = source.strip()
    if not text.startswith("{"):
        path = Path(source)
        if not path.is_file():
            raise _InputError("spec-source", f"no such spec file: {source}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError("spec-source", f"cannot read spec file {source}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError("spec-json", str(exc))
    except RecursionError:
        raise _InputError("spec-json", "JSON nests too deeply to parse")
    return realize(spec_from_json(obj), _resolve_cap())


def _flag_marks(report) -> list[str]:
    lines = []
    for name, value in report.flags().items():
        mark = "yes" if value else "no"
        extra = ""
        if not value and name in report.witnesses:
            extra = f"  (witness {list(report.witnesses[name])})"
        lines.append(f"{name}: {mark}{extra}")
    return lines


def _cmd_classify(args) -> int:
    ring = _load_ring(args.spec)
    report = classify(ring)
    if args.pretty:
        print(f"{report.label} (order {report.order})")
        for line in _flag_marks(report):
            print("  " + line)
    else:
        _emit(report.to_json_dict())
    return 0


def _cmd_covers(args) -> int:
    ring = _load_ring(args.spec)
    table = cover_table(ring)
    if args.pretty:
        print(f"{table.label} central covers")
        for x, c in enumerate(table.cover):
            print(f"  {ring.name_of(x)} -> {ring.name_of(c)}")
    else:
        _emit(table.to_json_dict())
    return 0


def _cmd_order(args) -> int:
    ring = _load_ring(args.spec)
    structure = build_order(ring)
    if args.pretty:
        print(f"{structure.label} Conrad relation")
        diag = structure.diagnostics
        for f in fields(diag):
            check = getattr(diag, f.name)
            state = "ok" if check.holds else f"FAIL at {list(check.witness)}"
            print(f"  {f.name}: {state}")
    else:
        _emit(structure.to_json_dict())
    return 0 if structure.diagnostics.all_pass else 1


def _cmd_segment(args) -> int:
    ring = _load_ring(args.spec)
    seg = initial_segment(ring, ring.check(args.top))
    if args.pretty:
        print(f"{seg.label} segment [0, {seg.top}] = {list(seg.elements)}")
        print(f"  orthocomplemented: {seg.orthocomplemented}")
        print(f"  orthomodular: {seg.orthomodular}")
        print(f"  locality: {seg.locality}")
    else:
        _emit(seg.to_json_dict())
    return 0 if (seg.orthocomplemented and seg.orthomodular and seg.locality) else 1


def _cmd_verify(args) -> int:
    ring = _load_ring(args.spec)
    if args.suite is not None:
        verdicts = [run_theorem(ring, args.suite)]
    else:
        verdicts = run_suite(ring)
    if args.pretty:
        for v in verdicts:
            tail = ""
            if v.status == "skipped":
                tail = f"  ({v.skip_reason})"
            elif v.status == "fail":
                tail = f"  (witness {list(v.witness)})"
            print(f"{v.theorem}: {v.status}{tail}")
    else:
        _emit([v.to_json_dict() for v in verdicts])
    return 1 if any(v.status == "fail" for v in verdicts) else 0


def _cmd_fuzz(args) -> int:
    families = tuple(sorted({f.strip() for f in args.families.split(",") if f.strip()}))
    budget = args.budget
    cap = _resolve_cap()
    if budget is None:
        if "random-table" in families:
            raise _InputError(
                "fuzz-budget", "--budget is required when the random-table family is selected"
            )
        probe = FuzzConfig(args.max_order, families or ("modular",), args.seed, 1)
        budget = max(1, len(structural_specs(probe, cap)))
    config = FuzzConfig(args.max_order, families, args.seed, budget)
    report = fuzz(config, cap)
    if args.pretty:
        counts = report.verdict_counts
        print(
            f"rings: {report.rings_checked}  pass: {counts['pass']}  "
            f"fail: {counts['fail']}  skipped: {counts['skipped']}  "
            f"red alerts: {len(report.red_alerts)}"
        )
    else:
        _emit(report.to_json_dict())
    return 1 if report.failures else 0


def _cmd_hasse(args) -> int:
    ring = _load_ring(args.spec)
    structure = build_order(ring)
    if not structure.diagnostics.all_pass:
        _emit(structure.to_json_dict())
        return 1
    dot = hasse_dot(ring)
    if args.out:
        try:
            Path(args.out).write_text(dot)
        except OSError as exc:
            raise _InputError("output", f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(dot)
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 2 with one JSON line; subcommand parsers share the class.
    def error(self, message):
        raise _InputError("usage", message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starorder",
        description="Finite *-ring toolkit: classification, Conrad order, "
        "orthomodularity checks, theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_spec(p):
        p.add_argument("spec", help="ring spec: inline JSON or a path to a JSON file")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    with_spec(sub.add_parser("classify", help="classification report")).set_defaults(
        func=_cmd_classify
    )
    with_spec(sub.add_parser("covers", help="central cover table")).set_defaults(
        func=_cmd_covers
    )
    with_spec(sub.add_parser("order", help="Conrad relation and diagnostics")).set_defaults(
        func=_cmd_order
    )
    seg = with_spec(sub.add_parser("segment", help="initial segment [0, m]"))
    seg.add_argument("--top", type=int, required=True, metavar="M")
    seg.set_defaults(func=_cmd_segment)
    ver = with_spec(sub.add_parser("verify", help="run the theorem suite"))
    ver.add_argument(
        "--suite", choices=THEOREM_IDS, metavar="THEOREM", help="run one theorem id only"
    )
    ver.set_defaults(func=_cmd_verify)
    fz = sub.add_parser("fuzz", help="seeded search over ring families")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--max-order", type=int, default=16)
    fz.add_argument(
        "--families",
        default="modular,product",
        help=f"comma-separated subset of {','.join(FAMILIES)}",
    )
    fz.add_argument("--budget", type=int, default=None, help="number of rings")
    fz.add_argument("--pretty", action="store_true")
    fz.set_defaults(func=_cmd_fuzz)
    hs = with_spec(sub.add_parser("hasse", help="Hasse diagram in DOT format"))
    hs.add_argument("--out", metavar="PATH", help="write DOT here instead of stdout")
    hs.set_defaults(func=_cmd_hasse)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader. Point stdout at devnull so the
        # interpreter's flush at exit does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _InputError as exc:
        print(json.dumps({"error": exc.kind, "detail": exc.detail}), file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        kind = {
            TableValidationError: "invalid-tables",
            OrderCapError: "order-cap",
            ForeignElementError: "foreign-element",
            PreconditionError: "precondition",
        }.get(type(exc), "ring-spec")
        print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
        return 2
    except (VerificationError, MemoryError) as exc:
        # An internal fault, not a failed check: exit 3, not 1.
        detail = str(exc) or type(exc).__name__
        print(json.dumps({"error": "internal", "detail": detail}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
