"""Self-tests of the benchmark: its checks on known cases, and every workload
at a tiny size.  They take seconds.

    python3 perfbench/selftest.py
"""
import ast
import io
import json
import random
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

import run

run.import_program()

import orb2d  # noqa: E402
from orb2d.catalog import CatalogBounds, enumerate_signatures  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure, Orbifold  # noqa: E402
from tracer import Tracer  # noqa: E402


def classify_record(text: str) -> dict:
    return json.loads(orb2d.classify(orb2d.parse_signature(text)).to_json())


class KnownCases(unittest.TestCase):
    def test_235_has_order_60(self):
        o = Orbifold(True, 0, cones=(2, 3, 5))
        self.assertEqual(checks.classification_record(o)["order"], 60)
        checks.check_record(classify_record("O;g=0;cones=5,3,2"), o)

    def test_mirror_disk_235_has_order_120(self):
        o = Orbifold(True, 0, mirrors=((2, 3, 5),))
        self.assertEqual(checks.classification_record(o)["order"], 120)
        checks.check_record(classify_record("O;g=0;bdry=r(3,5,2)"), o)

    def test_2222_abelianizes_to_three_z2(self):
        o = Orbifold(True, 0, cones=(2, 2, 2, 2))
        self.assertEqual(checks.elementary_divisors(o.cones), [2, 2, 2])
        sig = orb2d.parse_signature("O;g=0;cones=2,2,2,2")
        inv = orb2d.abelianization(orb2d.presentation_of_closed(sig))
        self.assertEqual((inv.free_rank, inv.torsion), (0, (2, 2, 2)))
        checks.check_abelianization(inv, o)

    def test_teardrop_and_spindle_have_no_cover(self):
        for text in ("O;g=0;cones=3", "O;g=0;cones=2,3"):
            o = workloads._orbifold(text)
            self.assertTrue(all(checks.degree_forbidden(o, n) for n in range(1, 121)))
            self.assertIsNone(checks.first_allowed_degree(o, 120))
            self.assertIsNone(orb2d.manifold_cover_search(orb2d.parse_signature(text), 12))

    def test_bad_list(self):
        bad = ["O;g=0;cones=7", "O;g=0;cones=2,3", "O;g=0;bdry=r(4)", "O;g=0;bdry=r(2,5)"]
        good = ["O;g=0;cones=3,3", "O;g=0;bdry=r(3,3)", "O;g=0;pun=1;cones=5", "N;g=1;cones=3",
                "O;g=0;bdry=r(2,3,5)", "O;g=0;bdry=m;cones=2"]
        for text in bad + good:
            o = checks.from_signature(orb2d.parse_signature(text))
            self.assertEqual(checks.is_bad(o), text in bad, text)
            checks.check_record(classify_record(text), o)

    def test_reduction_trace(self):
        for text in ("N;g=2;pun=1;cones=2,3;bdry=m,r(2,3)", "O;g=1;pun=2", "O;g=0;bdry=r()"):
            sig = orb2d.parse_signature(text)
            checks.check_trace(orb2d.reduce_to_closed(sig), checks.from_signature(sig))

    def test_wrong_answers_are_caught(self):
        o = Orbifold(True, 0, cones=(2, 3, 7))
        record = checks.classification_record(o)
        for field, wrong in (("good", False), ("euler", "1/42"), ("geometry", "spherical"),
                             ("order", 1)):
            with self.assertRaises(CheckFailure):
                checks.check_record(dict(record, **{field: wrong}), o)
        with self.assertRaises(CheckFailure):
            checks.check_abelianization(orb2d.AbelianInvariants(0, (2, 4)), o._replace(cones=(2, 2, 2, 2)))
        sig = orb2d.parse_signature("O;g=0;cones=2,3,6")
        witness = orb2d.manifold_cover_search(sig, 6)
        checks.check_witness(witness, checks.from_signature(sig))
        x = witness.cone_images
        tampered = witness.__class__(witness.degree, (), (x[1], x[0], x[2]), witness.cover_euler,
                                     witness.cover_genus)
        with self.assertRaises(CheckFailure):
            checks.check_witness(tampered, checks.from_signature(sig))

    def test_catalog_size_matches_enumeration(self):
        for b in (
            dict(max_genus=1, max_cones=2, max_order=4, max_boundary=2, max_corners=3, max_punctures=1),
            dict(max_genus=0, max_cones=3, max_order=5, max_boundary=1, max_corners=4, max_punctures=0,
                 orientable_only=True),
        ):
            bounds = CatalogBounds(**{("max_corners_per_circle" if k == "max_corners" else k): v
                                      for k, v in b.items()})
            self.assertEqual(sum(1 for _ in enumerate_signatures(bounds)), checks.catalog_size(**b))

    def test_population_is_the_catalog_enumeration(self):
        for b in (
            dict(max_genus=1, max_cones=2, max_order=4, max_boundary=2, max_corners=2, max_punctures=1,
                 max_corner_order=3),
            dict(max_genus=2, max_cones=3, max_order=5, orientable_only=True),
        ):
            corner_order = b.pop("max_corner_order", None)
            bounds = CatalogBounds(**{("max_corners_per_circle" if k == "max_corners" else k): v
                                      for k, v in b.items()})
            expected = {orb2d.format_signature(s) for s in enumerate_signatures(bounds, corner_order)}
            population = workloads.Population(**b, max_corner_order=corner_order)
            self.assertEqual(len(population), len(expected))
            self.assertEqual({checks.canonical_text(o) for o in population}, expected)
        self.assertEqual(len(workloads.Population(**workloads.SUITE_POPULATION)), 521_640)
        self.assertEqual(len(workloads.Population(**workloads.CONE_POPULATION)), 378)

    def test_populations_match_the_acceptance_suite(self):
        tree = ast.parse((run.ROOT / "tests" / "test_acceptance.py").read_text())
        found = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, ast.Call):
                    value = {k.arg: ast.literal_eval(k.value) for k in value.keywords}
                else:
                    value = ast.literal_eval(value)
                found[node.targets[0].id] = value
        suite = dict(found["SUITE_BOUNDS"], max_corner_order=found["SUITE_CORNER_ORDER"])
        suite["max_corners"] = suite.pop("max_corners_per_circle")
        self.assertEqual(suite, workloads.SUITE_POPULATION)
        self.assertEqual(found["CONE_BOUNDS"], workloads.CONE_POPULATION)

    def test_overlong_integer_is_the_only_accepted_failure(self):
        request = workloads.Request("classify", workloads.OVERLONG_TEXT, None)
        outcome = None
        try:
            orb2d.parse_signature(workloads.OVERLONG_TEXT)
        except Exception as err:
            outcome = err
        self.assertTrue(workloads.Requests._check(request, outcome))
        for other in (ValueError("another fault"), orb2d.PreconditionError("x"), None):
            with self.assertRaises(CheckFailure):
                workloads.Requests._check(request, other)

    def test_malformed_texts_raise_parse_errors(self):
        rng, suite = random.Random(7), workloads.Population(**workloads.SUITE_POPULATION)
        for _ in range(300):
            text = workloads.malformed(suite.sample(rng), rng)
            with self.assertRaises((orb2d.SignatureSyntaxError, orb2d.SignatureValueError), msg=text):
                orb2d.parse_signature(text)

    def test_spelling_parses_to_the_canonical_signature(self):
        rng, suite = random.Random(3), workloads.Population(**workloads.SUITE_POPULATION)
        for _ in range(300):
            o = suite.sample(rng)
            sig = orb2d.parse_signature(workloads.spell(o, rng))
            self.assertEqual(orb2d.format_signature(sig), checks.canonical_text(o))


TINY_CATALOG = dict(max_genus=1, max_cones=2, max_order=3, max_boundary=1, max_corners=2,
                    max_punctures=1)
TINY_MIX = dict(classify=30, malformed=9, overlong=1, euler=4, reduce=4, pi1=4, abel=5)


def calls(tracer: Tracer, prefix: str) -> float:
    return sum(v for k, v in tracer.totals.items() if k.startswith(prefix) and k.endswith(".calls"))


class TinyWorkloads(unittest.TestCase):
    def test_catalog(self):
        catalog = workloads.Catalog(run.ROOT, TINY_CATALOG)
        tracer = Tracer()
        plain, traced = catalog.run_round(), catalog.run_round(tracer)
        self.assertEqual(plain.ops, checks.catalog_size(**TINY_CATALOG))
        self.assertEqual((traced.ops, traced.failed), (plain.ops, 0))
        self.assertEqual(tracer.totals["catalog.enumerate_signatures.yielded"], plain.ops)
        self.assertEqual(tracer.totals["classify.theorem_check.calls"], plain.ops)
        self.assertEqual(calls(tracer, "signature.parse_signature"), 0)
        self.assertEqual(calls(tracer, "cover."), 0)
        self.assertEqual(calls(tracer, "group.smith_normal_form"), 0)

    def test_requests(self):
        requests = workloads.Requests(5, TINY_MIX, batches=2)
        tracer = Tracer()
        plain, traced = requests.run_round(), requests.run_round(tracer)
        self.assertEqual((plain.ops, plain.failed), (sum(TINY_MIX.values()), 1))
        self.assertEqual((traced.ops, traced.failed), (plain.ops, 1))
        self.assertNotEqual(requests.batches[0], requests.batches[1])
        self.assertEqual(requests.run_round(slot=1).failed, 1)
        self.assertEqual(tracer.totals["signature.parse_signature.calls"], plain.ops)
        self.assertEqual(calls(tracer, "cover."), 0)
        self.assertGreater(tracer.totals["group.smith_normal_form.calls"], 0)
        for module in ("orb2d", "orb2d.classify", "orb2d.signature"):
            for name in ("classify", "parse_signature", "orbifold_euler"):
                value = getattr(sys.modules[module], name, None)
                self.assertFalse(hasattr(value, "__wrapped__"), f"{module}.{name} still wrapped")

    def test_requests_repetitions_must_answer_as_checked(self):
        requests = workloads.Requests(5, TINY_MIX, batches=1)
        requests.run_round()
        answers, failed = requests.answers[0]
        i = next(i for i, r in enumerate(requests.batches[0]) if r.kind == "euler")
        answers[i] += 1
        with self.assertRaises(CheckFailure):
            requests.run_round()

    def test_cover_certify(self):
        certify = workloads.CoverCertify(workloads.CERTIFY_LADDER[:6])
        tracer = Tracer()
        plain = certify.run_round()
        certify.run_round(tracer)
        self.assertEqual(len(plain.rungs), 6)
        self.assertEqual(tracer.totals["cover.search_at_degree.found"], 6)
        self.assertEqual(calls(tracer, "group.smith_normal_form"), 0)

    def test_cover_refute(self):
        refute = workloads.CoverRefute(workloads.REFUTE_LADDER[:2])
        tracer = Tracer()
        plain = refute.run_round()
        refute.run_round(tracer)
        self.assertEqual(len(plain.rungs), 2)
        self.assertEqual(tracer.totals["cover.search_at_degree.calls"], 2)
        self.assertNotIn("cover.search_at_degree.found", tracer.totals)


class Harness(unittest.TestCase):
    def test_rounds_take_medians_at_the_reference_speed(self):
        rounds = run.Rounds()
        for wall, latencies, scale in ((3.0, [1.0, 2.0, 0.5], 1.0), (5.0, [4.0, 0.5, 0.5], 0.5),
                                       (2.0, [1.5, 0.8, 0.2], 2.0)):
            rounds.add(workloads.Round(wall, 3, 0, latencies, None, {"r": wall / 2}), scale)
        self.assertEqual(len(rounds.rounds), 3)
        self.assertEqual(rounds.walls, [3.0, 2.5, 4.0])
        self.assertEqual(rounds.round_s(), 3.0)
        self.assertEqual(rounds.p50s, [1.0, 0.25, 1.6])  # nearest rank: the 2nd of 3
        self.assertEqual(rounds.p99s, [2.0, 2.0, 3.0])   # the 3rd of 3
        self.assertEqual(rounds.rung_s("r"), 1.5)
        self.assertEqual(rounds.rung_s("absent"), 0.0)

    def test_probes_scale_by_the_mean_of_the_probes_around(self):
        probes = run.Probes()
        probes.times = [0.010]
        real_probe = run.speed_probe
        run.speed_probe = lambda: 0.020
        try:
            scale = probes.scale()
        finally:
            run.speed_probe = real_probe
        self.assertEqual(probes.times, [0.010, 0.020])
        self.assertAlmostEqual(scale, run.REFERENCE_PROBE_S / 0.015)

    def test_benchmark_json_lists_the_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_main_prints_result_last(self):
        for trace, names in (("0", run.END_TO_END), ("1", run.per_layer_units())):
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.main(["--workload", "requests", "--seconds", "0.05", "--trace", trace])
            result = json.loads(out.getvalue().splitlines()[-1])
            self.assertEqual(code, 0)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(names))

    def test_refuses_to_run_without_the_program(self):
        bare = run.ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "requests",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
