"""The benchmark's workloads.

Each workload runs whole rounds of the same operations, one caller with
no think time (a closed loop).  A workload has ``slots`` distinct rounds,
which a run repeats in turn.  ``run_round`` times one round, then checks
every output against :mod:`checks` outside the timed region, and returns a
:class:`Round`.  Passing a :class:`tracer.Tracer` wraps the program's
layer functions for the duration of the timed region only, so the checks'
own calls into orb2d are never counted.

- ``catalog``: the ``orb2d catalog`` command in a child process.
- ``requests``: a seeded stream of signature texts through the library.
- ``cover_certify``: cover searches that must find a minimal witness.
- ``cover_refute``: searches at degrees where theory rules out a witness.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from itertools import combinations_with_replacement, product
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import orb2d
import orb2d.cover

import checks
from checks import Orbifold, require

HERE = Path(__file__).resolve().parent


class Round(NamedTuple):
    wall: float                # seconds for the round's operations
    ops: int                   # operations attempted
    failed: int                # operations that failed
    latencies: array | None    # seconds, one per operation, in the round's order
    rss_kb: int | None         # peak RSS of the child that ran the round
    rungs: dict[str, float]    # cover rung id -> seconds


# -- catalog ---------------------------------------------------------------

# Orientable and non-orientable surfaces up to genus 1, up to two
# punctures, up to two boundary circles (manifold, or mirror with up to two
# corners) and up to two cones, orders 2..4: 7,020 records, 0.3-0.4 s a
# round here, so that a run repeats it fifty times or more.
CATALOG_BOUNDS = {
    "max_genus": 1,
    "max_cones": 2,
    "max_order": 4,
    "max_boundary": 2,
    "max_corners": 2,
    "max_punctures": 2,
}


class Catalog:
    """``orb2d catalog`` as a child process writing its records to a file.

    The first round's file is checked record by record; later rounds must
    produce the same bytes.
    """

    name = "catalog"
    warmup = False
    slots = 1

    def __init__(self, root: Path, bounds: dict = CATALOG_BOUNDS):
        self.root = root
        self.bounds = bounds
        self.expected_total = checks.catalog_size(**bounds)
        self.out_dir = root / ".perfbench"
        self.digest: str | None = None

    def run_round(self, tracer=None, slot: int = 0) -> Round:
        self.out_dir.mkdir(exist_ok=True)
        records = self.out_dir / "catalog.jsonl"
        summary = self.out_dir / "catalog.stdout"
        trace_file = self.out_dir / "catalog.trace.json"
        command = [sys.executable, str(HERE / "cli_child.py")]
        if tracer is not None:
            command += ["--trace-out", str(trace_file)]
        command += ["catalog", "--out", str(records)]
        for key, value in self.bounds.items():
            command += ["--" + key.replace("_", "-"), str(value)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(summary, "wb") as stdout:
            start = perf_counter()
            child = subprocess.Popen(command, cwd=self.root, env=env, stdout=stdout)
            _, status, usage = os.wait4(child.pid, 0)
            wall = perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        require(child.returncode == 0, f"orb2d catalog exited with {child.returncode}")
        if tracer is not None:
            tracer.add(json.loads(trace_file.read_text()))
        self._check(records.read_bytes(), summary.read_text())
        return Round(wall, self.expected_total, 0, array("d", [wall]), usage.ru_maxrss, {})

    def _check(self, data: bytes, summary: str) -> None:
        digest = hashlib.sha256(data + summary.encode()).hexdigest()
        if self.digest is not None:
            require(digest == self.digest, "catalog output differs from the checked first round")
            return
        lines = data.decode().splitlines()
        require(len(lines) == self.expected_total,
                f"catalog has {len(lines)} records, the count says {self.expected_total}")
        tallies = {"total": 0, "good": 0, "bad": 0, "finite": 0, "infinite": 0}
        previous = ""
        for line in lines:
            record = json.loads(line)
            text = record["sig"]
            require(text > previous, f"catalog not in canonical-text order at {text}")
            previous = text
            sig = orb2d.parse_signature(text)
            require(orb2d.format_signature(sig) == text, f"{text} does not round-trip")
            o = checks.from_signature(sig)
            self._check_bounds(o, text)
            checks.check_record(record, o)
            tallies["total"] += 1
            tallies["good" if record["good"] else "bad"] += 1
            tallies["finite" if record["finite"] else "infinite"] += 1
        expected = "total={total} good={good} bad={bad} finite={finite} infinite={infinite}"
        require(summary.strip() == expected.format(**tallies), f"catalog summary {summary!r}")
        self.digest = digest

    def _check_bounds(self, o: Orbifold, text: str) -> None:
        b = self.bounds
        orders = list(o.cones) + [n for c in o.mirrors for n in c]
        require(
            o.genus <= b["max_genus"]
            and o.punctures <= b["max_punctures"]
            and len(o.cones) <= b["max_cones"]
            and o.manifold_circles + len(o.mirrors) <= b["max_boundary"]
            and all(len(c) <= b["max_corners"] for c in o.mirrors)
            and all(2 <= n <= b["max_order"] for n in orders),
            f"{text} is outside the catalog bounds",
        )


# -- requests --------------------------------------------------------------

# The acceptance suite's populations, as tests/test_acceptance.py defines
# them: SUITE_BOUNDS with corner orders up to SUITE_CORNER_ORDER (criteria 2
# and 7; 521,640 signatures) and CONE_BOUNDS (criterion 3, the
# abelianization criterion; 378 closed signatures).
SUITE_POPULATION = dict(max_genus=2, max_cones=4, max_order=6, max_boundary=2, max_corners=3,
                        max_punctures=2, max_corner_order=4)
CONE_POPULATION = dict(max_genus=2, max_cones=4, max_order=6, orientable_only=True)

# Distinct batches a run cycles through.  Each is checked in full the first
# time it runs; its later repetitions must give the same answers, so that
# checking does not take longer than the timed rounds.
BATCHES = 8

# Requests per round, by kind.  The proportions are an assumption, not
# measured traffic: nothing records how orb2d is used.  Most requests
# classify; each other command gets an equal share, and 2% of the texts
# are malformed.
REQUEST_MIX = {
    "classify": 975,
    "malformed": 24,
    "overlong": 1,
    "euler": 50,
    "reduce": 50,
    "pi1": 50,
    "abel": 50,
}

# An integer past Python's 4,300-digit int-string limit.  The parser's
# int() raises a bare ValueError on it, not a parse error, so the request
# fails every time until the parser maps it to SignatureValueError.
OVERLONG_TEXT = "O;g=0;cones=" + "7" * 5000
INT_LIMIT_MESSAGE = "for integer string conversion"


class Request(NamedTuple):
    kind: str                  # classify, euler, reduce, pi1 or abel
    text: str
    orbifold: Orbifold | None  # None: malformed, must raise a parse error


class Population:
    """Every signature within catalog-style bounds, as ``orb2d catalog``
    enumerates them, built from independent parts: the surface, the
    punctures, the multiset of boundary circles and the multiset of cone
    orders.  The signatures are exactly the product of the parts, so one
    uniform draw per part is a uniform draw of a signature."""

    def __init__(self, max_genus, max_cones, max_order, max_boundary=0, max_corners=0,
                 max_punctures=0, orientable_only=False, max_corner_order=None):
        corner_orders = range(2, (max_order if max_corner_order is None else max_corner_order) + 1)
        self.surfaces = [(True, g) for g in range(max_genus + 1)]
        if not orientable_only:
            self.surfaces += [(False, g) for g in range(1, max_genus + 1)]
        self.punctures = range(max_punctures + 1)
        # None stands for a manifold circle, a tuple for a mirror circle's
        # corners, one per rotation class.
        circles = [None] + sorted({checks.min_rotation(c) for n in range(max_corners + 1)
                                   for c in product(corner_orders, repeat=n)})
        self.boundaries = [b for n in range(max_boundary + 1)
                           for b in combinations_with_replacement(circles, n)]
        self.cone_sets = [c for n in range(max_cones + 1)
                          for c in combinations_with_replacement(range(2, max_order + 1), n)]

    def __len__(self) -> int:
        return len(self.surfaces) * len(self.punctures) * len(self.boundaries) * len(self.cone_sets)

    def __iter__(self):
        for orientable, genus in self.surfaces:
            for punctures in self.punctures:
                for boundary in self.boundaries:
                    for cones in self.cone_sets:
                        yield self._orbifold(orientable, genus, punctures, boundary, cones)

    def sample(self, rng: random.Random) -> Orbifold:
        orientable, genus = rng.choice(self.surfaces)
        return self._orbifold(orientable, genus, rng.choice(self.punctures),
                              rng.choice(self.boundaries), rng.choice(self.cone_sets))

    @staticmethod
    def _orbifold(orientable, genus, punctures, boundary, cones) -> Orbifold:
        mirrors = tuple(c for c in boundary if c is not None)
        return Orbifold(orientable, genus, punctures, len(boundary) - len(mirrors), mirrors, cones)


def _fields(o: Orbifold, rng: random.Random) -> dict[str, str]:
    """Field texts spelled non-canonically: unsorted cones and circles,
    corners rotated, an explicit ``pun=0`` now and then."""
    fields = {"g": str(o.genus)}
    if o.punctures or rng.random() < 0.1:
        fields["pun"] = str(o.punctures)
    if o.cones:
        cones = list(o.cones)
        rng.shuffle(cones)
        fields["cones"] = ",".join(map(str, cones))
    circles = ["m"] * o.manifold_circles
    for corners in o.mirrors:
        turn = rng.randrange(len(corners)) if corners else 0
        circles.append("r(" + ",".join(map(str, corners[turn:] + corners[:turn])) + ")")
    if circles:
        rng.shuffle(circles)
        fields["bdry"] = ",".join(circles)
    return fields


def _join(orient: str, fields: list[tuple[str, str]], rng: random.Random) -> str:
    """Fields in the given order, with blanks around some punctuation."""
    text = orient + "".join(f";{name}={value}" for name, value in fields)
    out = []
    for ch in text:
        if ch in ";=,()" and rng.random() < 0.15:
            out.append(rng.choice((" ", "  ", "\t")) + ch + " ")
        else:
            out.append(ch)
    return "".join(out)


def spell(o: Orbifold, rng: random.Random) -> str:
    fields = list(_fields(o, rng).items())
    rng.shuffle(fields)
    return _join("O" if o.orientable else "N", fields, rng)


def malformed(o: Orbifold, rng: random.Random) -> str:
    """A text for ``o`` with one fault, which must be refused with a parse error."""
    fields = _fields(o, rng)
    orient = "O" if o.orientable else "N"
    fault = rng.randrange(9)
    if fault == 0:
        del fields["g"]
    elif fault == 1:
        orient = rng.choice("XZo")
    elif fault == 2:
        fields["h"] = "1"
    elif fault == 3:
        fields["g"] += f";g={o.genus + 1}"
    elif fault == 4:
        fields["cones"] = ",".join(map(str, o.cones + (rng.randint(0, 1),)))
    elif fault == 5:
        orient, fields["g"] = "N", "0"
    elif fault == 6:
        fields["bdry"] = "r(" + ",".join(str(rng.randint(2, 12)) for _ in range(2))
    elif fault == 7:
        fields["cones"] = ""
    items = list(fields.items())
    rng.shuffle(items)
    text = _join(orient, items, rng)
    return text + ";" if fault == 8 else text


def _execute(kind: str, text: str):
    sig = orb2d.parse_signature(text)
    if kind == "classify":
        return orb2d.classify(sig).to_json()
    if kind == "euler":
        return orb2d.orbifold_euler(sig)
    trace = orb2d.reduce_to_closed(sig)
    if kind == "reduce":
        return trace
    presentation = orb2d.presentation_of_closed(trace.final)
    if kind == "pi1":
        return presentation
    return orb2d.abelianization(presentation)


def _answer(outcome):
    """An outcome in a form that compares equal across repetitions."""
    if isinstance(outcome, Exception):
        return type(outcome), outcome.args
    return outcome


class Requests:
    """A seeded stream of requests: ``BATCHES`` batches of the same mix, one
    per round, in turn.

    Well-formed texts are non-canonical spellings of signatures drawn
    uniformly from the acceptance suite: ``abel`` requests from its
    abelianization population, the others from its bounded population.
    """

    name = "requests"
    warmup = True

    def __init__(self, seed: int, mix: dict = REQUEST_MIX, batches: int = BATCHES):
        rng = random.Random(seed)
        suite, cones = Population(**SUITE_POPULATION), Population(**CONE_POPULATION)
        self.batches = [self._batch(rng, mix, suite, cones) for _ in range(batches)]
        self.slots = batches
        # slot -> (answers, operations failed), once the batch has been checked
        self.answers: dict[int, tuple[list, int]] = {}

    @staticmethod
    def _batch(rng, mix, suite, cones) -> list[Request]:
        batch = [Request("classify", OVERLONG_TEXT, None)] * mix["overlong"]
        batch += [Request("classify", malformed(suite.sample(rng), rng), None)
                  for _ in range(mix["malformed"])]
        for kind in ("classify", "euler", "reduce", "pi1", "abel"):
            population = cones if kind == "abel" else suite
            for _ in range(mix[kind]):
                o = population.sample(rng)
                batch.append(Request(kind, spell(o, rng), o))
        rng.shuffle(batch)
        return batch

    def run_round(self, tracer=None, slot: int = 0) -> Round:
        batch = self.batches[slot]
        outcomes, latencies = [], array("d")
        if tracer is not None:
            tracer.install()
        try:
            round_start = perf_counter()
            for request in batch:
                start = perf_counter()
                try:
                    outcome = _execute(request.kind, request.text)
                except Exception as err:  # judged by the checks below
                    # Drop the traceback: it refers back to this frame, and
                    # the cycle would keep every round's outcomes alive
                    # until a full garbage collection.
                    outcome = err.with_traceback(None)
                latencies.append(perf_counter() - start)
                outcomes.append(outcome)
            wall = perf_counter() - round_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        answers = [_answer(out) for out in outcomes]
        if slot not in self.answers:
            failed = sum(self._check(r, out) for r, out in zip(batch, outcomes))
            self.answers[slot] = (answers, failed)
        require(answers == self.answers[slot][0], f"batch {slot} answered otherwise than when checked")
        return Round(wall, len(batch), self.answers[slot][1], latencies, None, {})

    @staticmethod
    def _check(request: Request, outcome) -> bool:
        """Check one outcome; True when the operation failed."""
        parse_errors = (orb2d.SignatureSyntaxError, orb2d.SignatureValueError)
        if request.text == OVERLONG_TEXT:
            # Only the known fault counts as a failure; any other outcome
            # but a parse error is a wrong answer.
            if type(outcome) is ValueError and INT_LIMIT_MESSAGE in str(outcome):
                return True
            require(isinstance(outcome, parse_errors), f"overlong integer gave {outcome!r}")
            return False
        if request.orbifold is None:
            require(isinstance(outcome, parse_errors),
                    f"{request.text!r} gave {outcome!r}, not a parse error")
            return False
        require(not isinstance(outcome, Exception), f"{request.text!r} raised {outcome!r}")
        o = request.orbifold
        if request.kind == "classify":
            checks.check_record(json.loads(outcome), o)
        elif request.kind == "euler":
            require(outcome == checks.euler(o), f"euler({request.text!r}) = {outcome}")
        elif request.kind == "reduce":
            checks.check_trace(outcome, o)
        elif request.kind == "pi1":
            checks.check_presentation(outcome, checks.reduced(o))
        else:
            checks.check_abelianization(outcome, checks.reduced(o))
        return False


# -- cover -----------------------------------------------------------------

def _orbifold(text: str) -> Orbifold:
    fields = dict(f.split("=") for f in text.split(";")[1:])
    cones = tuple(int(p) for p in fields["cones"].split(",")) if "cones" in fields else ()
    return Orbifold(text[0] == "O", int(fields["g"]), cones=cones)


def rung_id(kind: str, o: Orbifold, degree: int | None = None) -> str:
    name = f"{kind}_g{o.genus}" + "".join(f"_{p}" for p in o.cones)
    return name if degree is None else f"{name}_at{degree}"


# Closed orientable cone-only signatures whose minimal manifold cover has
# the least degree that Riemann-Hurwitz and the cone orders allow: the
# acceptance list, a torus with a cone, triangle groups found in 1-5 ms
# (so that the median rung is one of them), and four found in 15-100 ms.
CERTIFY_LADDER = (
    "O;g=0;cones=2,2,2,2",
    "O;g=0;cones=3,3,3",
    "O;g=0;cones=2,4,4",
    "O;g=0;cones=2,3,6",
    "O;g=0;cones=2,2,3",
    "O;g=1",
    "O;g=1;cones=2",
    "O;g=0;cones=2,5,5",
    "O;g=0;cones=3,3,4",
    "O;g=0;cones=2,3,4",
    "O;g=0;cones=3,4,4",
    "O;g=0;cones=3,3,7",
    "O;g=0;cones=4,5,5",
    "O;g=0;cones=2,3,10",
    "O;g=0;cones=2,3,12",
    "O;g=0;cones=2,5,6",
    "O;g=0;cones=2,7,7",
    "O;g=0;cones=2,4,10",
    "O;g=0;cones=3,6,9",
    "O;g=0;cones=2,9,9",
    "O;g=0;cones=3,3,8",
    "O;g=0;cones=2,3,14",
    "O;g=0;cones=2,6,8",
    "O;g=0;cones=2,4,5",
    "O;g=0;cones=2,6,10",
)

# (signature, degree) pairs where no witness can exist: the bad teardrop
# and spindle, and degrees where n * chi is not an even integer, so not the
# Euler characteristic of a closed orientable surface.  The searches take
# from 0.1 ms to about 0.9 s; a round takes about 1 s, so that a run holds
# twenty rounds or more.
REFUTE_LADDER = (
    ("O;g=0;cones=3", 3),
    ("O;g=0;cones=2,3", 6),
    ("O;g=0;cones=2,6,6", 6),
    ("O;g=0;cones=2,2,2,3", 6),
    ("O;g=0;cones=2,3,8", 8),
    ("O;g=1;cones=6", 6),
    ("O;g=1;cones=2", 6),
    ("O;g=0;cones=2,5,5", 10),
)


class CoverCertify:
    """``manifold_cover_search`` up to the least allowed degree, which must
    return a witness of exactly that degree."""

    name = "cover_certify"
    warmup = True
    slots = 1

    def __init__(self, ladder=CERTIFY_LADDER):
        self.rungs = []
        for text in ladder:
            o = _orbifold(text)
            degree = checks.first_allowed_degree(o, 64)
            require(degree is not None, f"{text}: no allowed degree up to 64")
            self.rungs.append((rung_id("certify", o), orb2d.parse_signature(text), o, degree))

    def run_round(self, tracer=None, slot: int = 0) -> Round:
        witnesses, times = [], {}
        if tracer is not None:
            tracer.install()
        try:
            for rung, sig, _, degree in self.rungs:
                start = perf_counter()
                witnesses.append(orb2d.manifold_cover_search(sig, degree))
                times[rung] = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        for (rung, _, o, degree), w in zip(self.rungs, witnesses):
            require(w is not None and w.degree == degree, f"{rung}: witness {w}")
            checks.check_witness(w, o)
        return Round(sum(times.values()), len(self.rungs), 0, array("d", times.values()), None, times)


class CoverRefute:
    """``search_at_degree`` where theory rules out a witness; must exhaust."""

    name = "cover_refute"
    warmup = False
    slots = 1

    def __init__(self, ladder=REFUTE_LADDER):
        self.rungs = []
        for text, degree in ladder:
            o = _orbifold(text)
            require(checks.degree_forbidden(o, degree), f"{text}@{degree} is not ruled out")
            self.rungs.append((rung_id("refute", o, degree), orb2d.parse_signature(text), degree))

    def run_round(self, tracer=None, slot: int = 0) -> Round:
        results, times = [], {}
        if tracer is not None:
            tracer.install()
        try:
            for rung, sig, degree in self.rungs:
                start = perf_counter()
                results.append(orb2d.cover.search_at_degree(sig, degree))
                times[rung] = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        for (rung, _, _), w in zip(self.rungs, results):
            require(w is None, f"{rung}: found a witness theory rules out")
        return Round(sum(times.values()), len(self.rungs), 0, array("d", times.values()), None, times)


def make(name: str, root: Path, seed: int):
    if name == "catalog":
        return Catalog(root)
    if name == "requests":
        return Requests(seed)
    if name == "cover_certify":
        return CoverCertify()
    if name == "cover_refute":
        return CoverRefute()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("catalog", "requests", "cover_certify", "cover_refute")


def all_rung_ids() -> list[str]:
    certify = [rung_id("certify", _orbifold(t)) for t in CERTIFY_LADDER]
    refute = [rung_id("refute", _orbifold(t), n) for t, n in REFUTE_LADDER]
    return certify + refute
