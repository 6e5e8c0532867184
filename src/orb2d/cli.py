"""Command-line front end.

Exit codes: 0 ok, 2 parse error, 3 precondition violation, 4 internal
consistency failure (a check of the program's own result failed: a
theorem_check violation in catalog generation, a Smith form, a group order,
or a search-produced cover witness).
"""
from __future__ import annotations

import argparse
import json
import sys

from .catalog import CatalogBounds, catalog_records
from .classify import classify
from .cover import degree_schedule, manifold_cover_search
from .group import (
    InternalInconsistencyError,
    abelianization,
    presentation_of_closed,
    render_presentation,
)
from .reduce import reduce_to_closed
from .signature import (
    PreconditionError,
    Signature,
    SignatureSyntaxError,
    SignatureValueError,
    format_signature,
    orbifold_euler,
    parse_signature,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4


def _rational(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _trace_records(trace) -> list[dict]:
    return [
        {
            "step_kind": step.kind.value,
            "relationship": step.relationship.value,
            "signature": format_signature(step.result),
            "euler": _rational(orbifold_euler(step.result)),
        }
        for step in trace.steps
    ]


def _cmd_classify(sig: Signature, fmt: str) -> int:
    print(classify(sig).to_json())
    return 0


def _cmd_euler(sig: Signature, fmt: str) -> int:
    chi = _rational(orbifold_euler(sig))
    if fmt == "json":
        print(json.dumps({"sig": format_signature(sig), "euler": chi}))
    else:
        print(chi)
    return 0


def _cmd_reduce(sig: Signature, fmt: str) -> int:
    trace = reduce_to_closed(sig)
    records = _trace_records(trace)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "start": format_signature(sig),
                    "start_euler": _rational(orbifold_euler(sig)),
                    "steps": records,
                    "final": format_signature(trace.final),
                }
            )
        )
    else:
        print(f"start {format_signature(sig)} euler={_rational(orbifold_euler(sig))}")
        for record in records:
            print(
                f"{record['step_kind']} {record['relationship']} "
                f"{record['signature']} euler={record['euler']}"
            )
    return 0


def _reduced_with_note(sig: Signature, fmt: str) -> Signature:
    trace = reduce_to_closed(sig)
    if trace.steps and fmt != "json":
        print(
            f"# reduced {format_signature(sig)} -> {format_signature(trace.final)} "
            f"({len(trace.steps)} steps)"
        )
    return trace.final


def _cmd_pi1(sig: Signature, fmt: str) -> int:
    reduced = _reduced_with_note(sig, fmt)
    presentation = presentation_of_closed(reduced)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "sig": format_signature(sig),
                    "reduced": format_signature(reduced),
                    "presentation": render_presentation(presentation),
                }
            )
        )
    else:
        print(render_presentation(presentation))
    return 0


def _cmd_abel(sig: Signature, fmt: str) -> int:
    reduced = _reduced_with_note(sig, fmt)
    invariants = abelianization(presentation_of_closed(reduced))
    if fmt == "json":
        print(
            json.dumps(
                {
                    "sig": format_signature(sig),
                    "reduced": format_signature(reduced),
                    "free_rank": invariants.free_rank,
                    "torsion": list(invariants.torsion),
                }
            )
        )
    else:
        parts = []
        if invariants.free_rank:
            parts.append(f"Z^{invariants.free_rank}")
        parts.extend(f"Z/{d}" for d in invariants.torsion)
        print(" + ".join(parts) if parts else "0")
    return 0


def _cmd_cover(sig: Signature, fmt: str, max_degree: int) -> int:
    reduced = _reduced_with_note(sig, fmt)
    witness = manifold_cover_search(reduced, max_degree)
    schedule = degree_schedule(reduced, max_degree)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "sig": format_signature(sig),
                    "reduced": format_signature(reduced),
                    "witness": witness.to_record() if witness else None,
                    "degrees_tried": schedule,
                }
            )
        )
    elif witness is not None:
        print(json.dumps(witness.to_record()))
    else:
        print("none")
        if schedule:
            print("tried degrees: " + ", ".join(map(str, schedule)))
        else:
            print(f"no feasible degrees <= {max_degree}")
    return 0


def _cmd_catalog(args) -> int:
    bounds = CatalogBounds(
        max_genus=args.max_genus,
        max_cones=args.max_cones,
        max_order=args.max_order,
        max_boundary=args.max_boundary,
        max_corners_per_circle=args.max_corners,
        max_punctures=args.max_punctures,
        orientable_only=args.orientable_only,
    )
    records, summary = catalog_records(bounds)
    lines = [json.dumps(r, separators=(", ", ": ")) for r in records]
    if args.out and args.out != "-":
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    print(
        "total={total} good={good} bad={bad} finite={finite} infinite={infinite}".format(
            **summary
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orb2d", description="Classify finite-type 2-orbifold signatures."
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default=None, help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "euler", "pi1", "abel", "reduce"):
        cmd = sub.add_parser(name)
        cmd.add_argument("signature")
    cover = sub.add_parser("cover")
    cover.add_argument("signature")
    cover.add_argument("--max-degree", type=int, default=12)
    catalog = sub.add_parser("catalog")
    catalog.add_argument("--max-genus", type=int, default=0)
    catalog.add_argument("--max-cones", type=int, default=0)
    catalog.add_argument("--max-order", type=int, default=2)
    catalog.add_argument("--max-boundary", type=int, default=0)
    catalog.add_argument("--max-corners", type=int, default=0)
    catalog.add_argument("--max-punctures", type=int, default=0)
    catalog.add_argument("--orientable-only", action="store_true")
    catalog.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fmt = args.format or ("json" if args.command == "catalog" else "text")
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        sig = parse_signature(args.signature)
        if args.command == "classify":
            return _cmd_classify(sig, fmt)
        if args.command == "euler":
            return _cmd_euler(sig, fmt)
        if args.command == "reduce":
            return _cmd_reduce(sig, fmt)
        if args.command == "pi1":
            return _cmd_pi1(sig, fmt)
        if args.command == "abel":
            return _cmd_abel(sig, fmt)
        if args.command == "cover":
            return _cmd_cover(sig, fmt, args.max_degree)
        raise AssertionError(args.command)
    except (SignatureSyntaxError, SignatureValueError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
