"""Command-line interface: analyze, kitaev build, oracle verify, canonicalize.

Exit codes: 0 success, 2 validation errors (machine-readable error object
on stdout), 3 oracle verdict failure, 4 a broken internal invariant (a bug:
the error object names the stage whose check failed).  Reports embed the
tool version and the convention flags so golden files are self-describing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .errors import InternalInvariant, QuditStabError, json_object
from .kitaev import (
    SurfaceGraph,
    apply_shift,
    apply_twist,
    build_model,
    charge_configuration,
    shift_spec_from_json_dict,
)
from .oracle import DEFAULT_BOUND, verify_report
from .stabilizer import (
    CharacterMap,
    StabilizerGroup,
    StabilizerReport,
    analyze,
    canonical_conjugation,
)

CONVENTIONS = {
    "normal_form": "X-before-Z per qudit, phases as exponents of zeta",
    "module_vector": "Z exponents first, then X exponents",
    "charge_transport": "S^Z(t: s1->s2) adds +e at s1 and -e at s2",
    "face_side": "B_f applies Z where f lies on the right of the arrow",
}


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        _emit_text(obj)


def _emit_text(obj: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(obj):
        val = obj[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _emit_text(val, indent + 1)
        else:
            print(f"{pad}{key}: {val}")


def _wrap_report(payload: dict) -> dict:
    return {"tool_version": __version__, "conventions": CONVENTIONS, **payload}


def _error_exit(kind: str, detail: str, fmt: str) -> int:
    _emit({"error": {"type": kind, "detail": detail}}, fmt)
    return 2


def _guard(fn):
    """Map library and request-schema failures to exit code 2, broken invariants to 4."""

    def wrapper(args) -> int:
        try:
            return fn(args)
        except InternalInvariant as exc:
            obj = {"error": {"type": "InternalInvariant", "stage": exc.stage, "detail": exc.detail}}
            _emit(obj, args.format)
            return 4
        except QuditStabError as exc:
            return _error_exit(type(exc).__name__, str(exc), args.format)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return _error_exit("InvalidRequest", str(exc), args.format)
        except RecursionError:  # input nested past the recursion limit, in json.load or in a reader
            return _error_exit("InvalidRequest", "input nests too deeply", args.format)

    return wrapper


@_guard
def cmd_analyze(args) -> int:
    group = StabilizerGroup.from_json_dict(_load_json(args.input))
    report = analyze(group)
    _emit(_wrap_report(report.to_json_dict()), args.format)
    return 0


@_guard
def cmd_canonicalize(args) -> int:
    group = StabilizerGroup.from_json_dict(_load_json(args.input))
    conj = canonical_conjugation(group)
    payload = {
        "symplectic_map": [list(r) for r in conj.symplectic_map.entries],
        "generator_images": {
            "z": [p.to_json_dict() for p in conj.automorphism.z_images],
            "x": [p.to_json_dict() for p in conj.automorphism.x_images],
        },
        "phase_fix": conj.phase_fix.to_json_dict(),
        "conjugated_generators": [conj.apply(g).to_json_dict() for g in group.generators],
    }
    _emit(_wrap_report(payload), args.format)
    return 0


@_guard
def cmd_oracle_verify(args) -> int:
    req = json_object(_load_json(args.input), "request")
    group = StabilizerGroup.from_json_dict(req)
    report = StabilizerReport.from_json_dict(req["report"], group.d, group.n)
    verdict = verify_report(group, report, bound=args.bound)
    _emit(_wrap_report(verdict.to_json_dict()), args.format)
    return 0 if verdict.passed else 3


@_guard
def cmd_kitaev_build(args) -> int:
    graph = SurfaceGraph.from_json_dict(_load_json(args.graph))
    model = build_model(graph, args.d)
    group = model.stabilizer
    if args.shift or args.twist:
        source, pairs = shift_spec_from_json_dict(_load_json(args.shift or args.twist))
        fn = apply_shift if args.shift else apply_twist
        group = fn(model, source, pairs)
    report = analyze(group)
    payload = {
        "genus": graph.genus,
        "euler": graph.euler_characteristic,
        "n": model.n,
        "edge_order": [str(e.id) for e in graph.edges],
        "report": report.to_json_dict(),
    }
    if args.character:
        chi = CharacterMap.from_json_dict(_load_json(args.character))
        payload["charges"] = charge_configuration(model, chi).to_json_dict()
    if args.verify:
        verdict = verify_report(group, report, bound=args.bound)
        payload["oracle"] = verdict.to_json_dict()
        _emit(_wrap_report(payload), args.format)
        return 0 if verdict.passed else 3
    _emit(_wrap_report(payload), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditstab",
        description="Exact qudit stabiliser analysis over Z/dZ for arbitrary d.",
    )
    parser.add_argument("--version", action="version", version=f"quditstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="analyse a stabiliser group from JSON")
    p.add_argument("--input", default="-", help="JSON file with {d, n, generators}; - for stdin")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("canonicalize", help="conjugate a free group onto <Z_1..Z_k>")
    p.add_argument("--input", default="-")
    add_common(p)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("oracle", help="oracle subcommands")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    ov = osub.add_parser("verify", help="verify an analysis report by brute force")
    ov.add_argument("--input", default="-", help="JSON with {d, n, generators, report}")
    ov.add_argument("--bound", type=int, default=None,
                    help=f"state-space bound (default {DEFAULT_BOUND})")
    add_common(ov)
    ov.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("kitaev", help="kitaev subcommands")
    ksub = p.add_subparsers(dest="kitaev_command", required=True)
    kb = ksub.add_parser("build", help="build and analyse a surface model")
    kb.add_argument("--graph", required=True, help="surface graph JSON file")
    kb.add_argument("--d", type=int, required=True)
    group = kb.add_mutually_exclusive_group()
    group.add_argument("--shift", help="shift spec JSON file")
    group.add_argument("--twist", help="twist spec JSON file")
    kb.add_argument("--verify", action="store_true", help="run the brute-force oracle")
    kb.add_argument("--bound", type=int, default=None)
    kb.add_argument(
        "--character",
        help="JSON file {values: [...]} over the plain model's generators; emits charges",
    )
    add_common(kb)
    kb.set_defaults(func=cmd_kitaev_build)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
