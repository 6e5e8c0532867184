"""Each command's time grows linearly along each size axis of its input.

A case runs ``cli.main`` in process on a text of size k and of size 4k, in
the order k, 4k, k, 4k, k, and keeps the least time of each size. The time
is the process's CPU time, which other processes on the machine do not add
to. Each 4k run sits between two k runs, so a change in the machine's speed
during a case reaches both sides of the ratio. A run is one call, or as
many calls as make a run at size k take at least 50 ms. k is set so that
one call takes about that where the input allows it; genus plus punctures
is capped at 100,000 wherever a signature is reduced. A linear path reads a
ratio of about 4 and a quadratic one about 16, so the test asks for less
than 8.

Left out:
- ``abel``: its Smith form is cubic in the cone count, which is capped at
  ``group.MAX_LIVE_COLUMNS`` = 128.
- ``cover``: it is a search, exponential in the degree.
- The digits of one integer: converting a decimal string is superlinear in
  its length, which the interpreter caps at 4,300 digits.
- Distinct cone orders: χ's denominator is the lcm of the orders, so its
  digits grow with the count and so does the output (a ratio of 8.0 at
  2,000 distinct orders).
"""
import gc
import io
import math
import time
from contextlib import redirect_stdout

import pytest

from orb2d.cli import main
from orb2d.signature import _boundary_part, _cone_part


# name: (k, the argv of size n)
CASES = {
    "classify-cones": (100_000, lambda n: ["classify", "O;g=0;cones=" + ",".join(["7"] * n)]),
    "classify-corners": (72_000, lambda n: ["classify", "O;g=0;bdry=r(" + ",".join(["2,3"] * (n // 2)) + ")"]),
    "classify-mirror-circles": (14_000, lambda n: ["classify", "O;g=0;bdry=" + ",".join(["r(2,3)"] * n)]),
    "classify-manifold-circles": (56_000, lambda n: ["classify", "O;g=0;bdry=" + ",".join(["m"] * n)]),
    "reduce-mirror-circles": (7_000, lambda n: ["reduce", "N;g=1;bdry=" + ",".join(["r(2,3)"] * n)]),
    "reduce-corners": (26_000, lambda n: ["reduce", "O;g=0;bdry=r(" + ",".join(["2,3"] * n) + ")"]),
    "reduce-punctures": (24_000, lambda n: ["reduce", f"N;g=1;pun={n}"]),
    "pi1-cones": (34_000, lambda n: ["pi1", "O;g=0;cones=" + ",".join(["7"] * n)]),
    "pi1-genus": (25_000, lambda n: ["pi1", f"O;g={n}"]),
    "euler-cones": (100_000, lambda n: ["euler", "O;g=0;cones=" + ",".join(["7"] * n)]),
}


def _cold_main(argv):
    # Each call starts with empty part memos. Otherwise every run after the
    # first reads χ and the text back, and a superlinear build goes unseen.
    _cone_part.cache_clear()
    _boundary_part.cache_clear()
    return main(argv)


def _time(argv, calls=1):
    # The cyclic collector is off while timing, as in timeit: a full pass
    # scans every object in the process, so its cost is set by what the rest
    # of the test session holds, not by the command.
    sink = io.StringIO()
    gc.disable()
    try:
        start = time.process_time()
        with redirect_stdout(sink):
            codes = {_cold_main(argv) for _ in range(calls)}
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    assert codes == {0}, sink.getvalue()
    return elapsed


@pytest.mark.parametrize("case", list(CASES))
def test_linear_time(case):
    k, argv = CASES[case]
    texts = {k: argv(k), 4 * k: argv(4 * k)}
    calls, first = 1, _time(texts[k])
    while first < 0.05:
        calls = math.ceil(calls * 0.05 / first)
        first = _time(texts[k], calls)
    best = {k: first, 4 * k: float("inf")}
    for n in (4 * k, k, 4 * k, k):
        best[n] = min(best[n], _time(texts[n], calls))
    small, large = best[k], best[4 * k]
    assert large / small < 8, f"{case}: {small:.4f} s for {calls} calls at k={k}, {large:.4f} s at 4k"
