"""Command-line front end.

Each handler in :data:`COMMANDS` maps a signature to its JSON record and its
text lines, as ``_catalog`` does its summary; :func:`main` prints one of
them, so a failing command prints nothing on stdout.

Exit codes: 0 ok, 2 parse error or bad argument (a ``catalog --out`` that
cannot be opened among them), 3 precondition violation, 4 internal
consistency failure (a check of the program's own result failed: a
theorem_check violation in catalog generation, a Smith form, a group order,
or a search-produced cover witness), 141 stdout closed by its reader.

The presentations, the cover search and the reduction pipeline are
imported by the commands that use them, so ``classify``, ``euler`` and
``catalog`` load none of them, and ``reduce`` and ``cover`` do not load
``group``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .catalog import CatalogBounds, catalog_records
from .classify import classify
from .signature import (
    InternalInconsistencyError,
    PreconditionError,
    SignatureSyntaxError,
    SignatureValueError,
    format_rational,
    format_signature,
    orbifold_euler,
    parse_signature,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4
# What a shell reports for a process that SIGPIPE ended: 128 + 13.
EXIT_CLOSED_STDOUT = 141

# A short text can spell a large count. The work and output of reduce, pi1,
# abel and cover grow with genus + punctures, so they refuse a larger sum; the
# cone orders are bounded in pi1 and abel by group.MAX_RELATOR_LETTERS, and
# abel's cone count by group.MAX_LIVE_COLUMNS.
MAX_GENUS_PLUS_PUNCTURES = 100_000


def _fields_line(record) -> str:
    """The record's fields as ``name=value`` in record order, with JSON scalars."""
    return " ".join(f"{k}={v if isinstance(v, str) else json.dumps(v)}" for k, v in record.items())


def _classify(sig, args):
    record = classify(sig).to_record()
    return record, [_fields_line(record)]


def _euler(sig, args):
    chi = format_rational(orbifold_euler(sig))
    return {"sig": format_signature(sig), "euler": chi}, [chi]


def _reduce_bounded(sig):
    if sig.genus + sig.punctures > MAX_GENUS_PLUS_PUNCTURES:
        raise PreconditionError(f"genus + punctures must be at most {MAX_GENUS_PLUS_PUNCTURES}")
    from .reduce import reduce_to_closed

    return reduce_to_closed(sig)


def _reduce(sig, args):
    trace = _reduce_bounded(sig)
    record = {
        "start": format_signature(sig),
        "start_euler": format_rational(orbifold_euler(sig)),
        "steps": [
            {
                "step_kind": step.kind.value,
                "relationship": step.relationship.value,
                "signature": format_signature(step.result),
                "euler": format_rational(orbifold_euler(step.result)),
            }
            for step in trace.steps
        ],
        "final": format_signature(trace.final),
    }
    lines = [f"start {record['start']} euler={record['start_euler']}"]
    lines.extend(
        f"{s['step_kind']} {s['relationship']} {s['signature']} euler={s['euler']}"
        for s in record["steps"]
    )
    return record, lines


def _reduced(sig):
    """The closed form of ``sig``, its JSON record and the text note on it."""
    trace = _reduce_bounded(sig)
    record = {"sig": format_signature(sig), "reduced": format_signature(trace.final)}
    note = f"# reduced {record['sig']} -> {record['reduced']} ({len(trace.steps)} steps)"
    return trace.final, record, [note] if trace.steps else []


def _pi1(sig, args):
    from .group import presentation_of_closed, render_presentation

    reduced, record, lines = _reduced(sig)
    record["presentation"] = render_presentation(presentation_of_closed(reduced))
    return record, lines + [record["presentation"]]


def _abel(sig, args):
    from .group import abelianization, presentation_of_closed

    reduced, record, lines = _reduced(sig)
    invariants = abelianization(presentation_of_closed(reduced))
    record["free_rank"] = invariants.free_rank
    record["torsion"] = list(invariants.torsion)
    parts = [f"Z^{invariants.free_rank}"] if invariants.free_rank else []
    parts.extend(f"Z/{d}" for d in invariants.torsion)
    return record, lines + [" + ".join(parts) if parts else "0"]


def _cover(sig, args):
    from .cover import _first_witness, degree_schedule

    reduced, record, lines = _reduced(sig)
    schedule = degree_schedule(reduced, args.max_degree)
    witness = _first_witness(reduced, schedule)
    record["witness"] = witness.to_record() if witness else None
    record["degrees_tried"] = schedule
    if witness is not None:
        lines.append(json.dumps(record["witness"]))
    elif schedule:
        lines += ["none", "tried degrees: " + ", ".join(map(str, schedule))]
    else:
        lines += ["none", f"no feasible degrees <= {args.max_degree}"]
    return record, lines


COMMANDS = {
    "classify": _classify,
    "euler": _euler,
    "pi1": _pi1,
    "abel": _abel,
    "reduce": _reduce,
    "cover": _cover,
}


def _catalog(args):
    """Write the records; return the summary's record and text line, or None if --out fails to open."""
    bounds = CatalogBounds(*(getattr(args, field) for field in CatalogBounds._fields))
    to_file = args.out and args.out != "-"
    # Opened before the enumeration, so a path that cannot be written costs
    # no work (exit 2, as for a bad argument); mode "a" keeps a file's bytes
    # until the records are built, so a failed theorem check leaves them.
    try:
        out = open(args.out, "a") if to_file else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        print(f"cannot open --out {args.out!r}: {err.strerror}", file=sys.stderr)
        return None
    with out as stream:
        lines, summary = catalog_records(bounds)
        if to_file and os.path.isfile(args.out):
            stream.truncate(0)  # as "w" would; a device or a pipe cannot be truncated
        stream.writelines(lines)
    return summary, [_fields_line(summary)]


def _bound(text: str) -> int:
    """A catalog bound: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid bound {text!r}: give an integer of at least 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # --format goes before or after the subcommand. It has no default, so a
    # subcommand without it keeps the earlier value; main reads "text" if neither.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS, help="output format"
    )
    # Options are given in full: a prefix would change meaning as options are added.
    parser = argparse.ArgumentParser(
        prog="orb2d",
        description="Classify finite-type 2-orbifold signatures.",
        parents=[fmt],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[fmt], allow_abbrev=False).add_argument("signature")
    sub.choices["cover"].add_argument("--max-degree", type=int, default=12)
    # Each catalog bound's dest is its CatalogBounds field, which states the default.
    catalog = sub.add_parser("catalog", parents=[fmt], allow_abbrev=False)
    catalog.set_defaults(**CatalogBounds()._asdict())
    catalog.add_argument("--max-genus", type=_bound)
    catalog.add_argument("--max-cones", type=_bound)
    catalog.add_argument("--max-order", type=_bound)
    catalog.add_argument("--max-boundary", type=_bound)
    catalog.add_argument("--max-corners", type=_bound, dest="max_corners_per_circle", metavar="MAX_CORNERS")
    catalog.add_argument("--max-punctures", type=_bound)
    catalog.add_argument("--orientable-only", action="store_true")
    catalog.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command != "catalog":
            output = COMMANDS[args.command](parse_signature(args.signature), args)
        elif (output := _catalog(args)) is None:
            return EXIT_PARSE
        record, lines = output
        # classify printed JSON before --format existed, so only an
        # explicit --format text gives its text line.
        fmt = getattr(args, "format", "json" if args.command == "classify" else "text")
        print(json.dumps(record) if fmt == "json" else "\n".join(lines))
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
    except (SignatureSyntaxError, SignatureValueError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Python flushes stdout
        # again at exit; pointing it at devnull keeps that flush quiet, as
        # the SIGPIPE note in the Python docs does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return 0


if __name__ == "__main__":
    sys.exit(main())
