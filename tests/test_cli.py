import json

import pytest

from orb2d.catalog import CatalogBounds, catalog_records, circle_types, enumerate_signatures
from orb2d.cli import EXIT_INCONSISTENT, EXIT_PARSE, EXIT_PRECONDITION, main
from orb2d.signature import MANIFOLD, MIRROR, format_signature, parse_signature


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogModule:
    def test_circle_types_necklace_dedup(self):
        types = circle_types(2, 3)
        assert types[0].kind is MANIFOLD
        corner_sets = [c.corners for c in types if c.kind is MIRROR]
        assert (2, 3) in corner_sets and (3, 2) not in corner_sets

    def test_enumeration_yields_canonical_unique(self):
        bounds = CatalogBounds(
            max_genus=1,
            max_cones=2,
            max_order=3,
            max_boundary=2,
            max_corners_per_circle=2,
            max_punctures=1,
        )
        seen = set()
        for sig in enumerate_signatures(bounds):
            text = format_signature(sig)
            assert parse_signature(text) == sig  # already canonical
            assert text not in seen
            seen.add(text)
        assert "N;g=1;pun=1;cones=2,3;bdry=m,r(2,3)" in seen

    def test_example_catalog_counts(self):
        # Closed orientable genus 0, up to two cones of order at most 3.
        records, summary = catalog_records(CatalogBounds(max_cones=2, max_order=3, orientable_only=True))
        assert summary == {"total": 6, "good": 3, "bad": 3, "finite": 6, "infinite": 0}
        bad = {r["sig"] for r in records if not r["good"]}
        assert bad == {"O;g=0;cones=2", "O;g=0;cones=3", "O;g=0;cones=2,3"}
        assert [r["sig"] for r in records] == sorted(r["sig"] for r in records)

    def test_records_match_direct_classification(self):
        from orb2d.classify import classify

        records, _ = catalog_records(CatalogBounds(max_genus=1, max_cones=1, max_order=3))
        for record in records:
            assert record == classify(parse_signature(record["sig"])).to_record()


class TestCliCommands:
    def test_classify_json_record(self, capsys):
        code, out, _ = run(capsys, "classify", "O;g=0;cones=2,3,7")
        record = json.loads(out)
        assert code == 0
        assert list(record) == ["sig", "euler", "good", "finite", "order", "geometry"]
        assert record["euler"] == "-1/42" and record["geometry"] == "hyperbolic"
        assert record["order"] is None

    def test_euler_text_and_json(self, capsys):
        code, out, _ = run(capsys, "euler", "O;g=0;cones=2,3,5")
        assert code == 0 and out.strip() == "1/30"
        code, out, _ = run(capsys, "--format", "json", "euler", "O;g=1")
        assert json.loads(out) == {"sig": "O;g=1", "euler": "0/1"}

    def test_reduce_json_trace(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "reduce", "N;g=1;bdry=r(4)")
        payload = json.loads(out)
        assert code == 0
        assert payload["start"] == "N;g=1;bdry=r(4)"
        assert payload["final"] == "O;g=1;cones=4,4"
        assert [s["step_kind"] for s in payload["steps"]] == [
            "OrientationDouble",
            "MirrorDouble",
        ]
        assert payload["steps"][-1]["relationship"] == "TwoSheetedOrbifoldCover"
        assert payload["steps"][-1]["euler"] == "-3/2"

    def test_pi1_reduces_first(self, capsys):
        code, out, _ = run(capsys, "pi1", "O;g=0;pun=1;cones=3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# reduced O;g=0;pun=1;cones=3 -> O;g=0;cones=3,3")
        assert lines[1] == "<x1,x2 | x1^3, x2^3, x1 x2>"

    def test_abel_text(self, capsys):
        assert run(capsys, "abel", "O;g=1")[1].strip() == "Z^2"
        assert run(capsys, "abel", "O;g=0")[1].strip() == "0"
        assert run(capsys, "abel", "O;g=0;cones=2,2,2,2")[1].strip() == "Z/2 + Z/2 + Z/2"

    def test_cover_witness_output(self, capsys):
        code, out, _ = run(capsys, "cover", "O;g=0;cones=2,2,2,2")
        record = json.loads(out)
        assert code == 0
        assert list(record) == ["degree", "handles", "cones", "cover_euler", "cover_genus"]
        assert record["degree"] == 2 and record["cones"] == [[[0, 1]]] * 4

    def test_cover_none_with_schedule(self, capsys, monkeypatch):
        # Feasible degrees that all fail are rare, so stub the search to
        # pin down the reporting format on that path.
        import orb2d.cli as cli

        monkeypatch.setattr(cli, "manifold_cover_search", lambda s, n: None)
        code, out, _ = run(capsys, "cover", "O;g=0;cones=2,2,2,2", "--max-degree", "4")
        assert code == 0
        assert out.splitlines() == ["none", "tried degrees: 2, 4"]

    def test_cover_no_feasible_degrees(self, capsys):
        code, out, _ = run(capsys, "cover", "O;g=0;cones=5")
        assert code == 0
        assert out.splitlines() == ["none", "no feasible degrees <= 12"]

    def test_cover_json_for_bounded_input_reduces(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cover", "O;g=0;pun=1;cones=2,2")
        payload = json.loads(out)
        assert payload["reduced"] == "O;g=0;cones=2,2,2,2"
        assert payload["witness"]["degree"] == 2
        assert payload["degrees_tried"] == [2, 4, 6, 8, 10, 12]

    def test_catalog_stdout(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--max-cones", "2", "--max-order", "3", "--orientable-only"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 7  # 6 records plus the summary
        assert lines[-1] == "total=6 good=3 bad=3 finite=6 infinite=0"
        assert json.loads(lines[0])["sig"] == "O;g=0"

    def test_catalog_out_file(self, capsys, tmp_path):
        target = tmp_path / "catalog.jsonl"
        code, out, _ = run(
            capsys,
            "catalog",
            "--max-cones",
            "2",
            "--max-order",
            "3",
            "--orientable-only",
            "--out",
            str(target),
        )
        assert code == 0
        assert out.strip() == "total=6 good=3 bad=3 finite=6 infinite=0"
        lines = target.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert parse_signature(record["sig"])  # round-trips

    def test_catalog_deterministic(self, capsys):
        argv = ["catalog", "--max-genus", "1", "--max-cones", "2", "--max-punctures", "1"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestCliErrors:
    @pytest.mark.parametrize(
        "text", ["O;g=x", "Q;g=0", "O;cones=2", "O;g=0;cones=1", "N;g=0"]
    )
    def test_parse_errors_exit_2(self, capsys, text):
        code, out, err = run(capsys, "classify", text)
        assert code == EXIT_PARSE and not out and err.startswith("parse error:")

    def test_precondition_exit_3(self, capsys):
        # A cover search with a nonsensical bound violates a precondition.
        code, _, err = run(capsys, "cover", "O;g=1", "--max-degree", "0")
        assert code == EXIT_PRECONDITION and err.startswith("precondition violated:")

    def test_invalid_witness_exit_4(self, capsys, monkeypatch):
        import orb2d.cover as cover

        monkeypatch.setattr(cover, "verify_witness", lambda s, w: cover.VerifyResult(False, "stub"))
        code, out, err = run(capsys, "cover", "O;g=0;cones=2,4,4")
        assert code == EXIT_INCONSISTENT and not out
        assert err.startswith("internal consistency failure:") and "Traceback" not in err
