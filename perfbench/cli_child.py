"""Run the orb2d command line in this process, as the ``orb2d`` script does.

    python3 perfbench/cli_child.py [--trace-out FILE] <orb2d arguments>

With ``--trace-out`` the layer functions are wrapped first and their
counters are written to FILE as JSON when the command returns.
"""
import json
import sys

import orb2d.cli


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        return orb2d.cli.main(argv)
    from tracer import Tracer  # only here, so an untraced round imports what the script does

    tracer = Tracer()
    tracer.install()
    try:
        code = orb2d.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_out, "w") as handle:
        json.dump(tracer.totals, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
