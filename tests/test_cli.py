import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orb2d
from orb2d.catalog import CatalogBounds, catalog_records, circle_types, enumerate_signatures
from orb2d.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_INCONSISTENT,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
)
from orb2d.signature import MANIFOLD, MIRROR, PreconditionError, format_signature, parse_signature


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

    @pytest.mark.parametrize("field", [*CatalogBounds._fields[:-1], "max_corner_order"])
    def test_negative_bound_is_refused(self, field):
        # The library states the rule that the command line's options check.
        def texts(value):
            if field == "max_corner_order":  # enumerate_signatures' own bound
                bounds = CatalogBounds(max_boundary=1, max_corners_per_circle=2, max_order=3)
                return [format_signature(s) for s in enumerate_signatures(bounds, value)]
            return [json.loads(line)["sig"] for line in catalog_records(CatalogBounds(**{field: value}))[0]]

        with pytest.raises(PreconditionError, match=f"{field} must be at least 0, not -1"):
            texts(-1)
        assert texts(0)[0] == "O;g=0"  # a bound of 0 is allowed

    def test_example_catalog_counts(self):
        # Closed orientable genus 0, up to two cones of order at most 3.
        lines, summary = catalog_records(CatalogBounds(max_cones=2, max_order=3, orientable_only=True))
        records = [json.loads(line) for line in lines]
        assert summary == {"total": 6, "good": 3, "bad": 3, "finite": 6, "infinite": 0}
        bad = {r["sig"] for r in records if not r["good"]}
        assert bad == {"O;g=0;cones=2", "O;g=0;cones=3", "O;g=0;cones=2,3"}
        assert [r["sig"] for r in records] == sorted(r["sig"] for r in records)

    def test_records_match_direct_classification(self):
        from orb2d.classify import classify

        lines, _ = catalog_records(CatalogBounds(max_genus=1, max_cones=1, max_order=3))
        for record in map(json.loads, lines):
            assert record == classify(parse_signature(record["sig"])).to_record()


class TestCliCommands:
    def test_classify_json_record(self, capsys):
        code, out, _ = run(capsys, "classify", "O;g=0;cones=2,3,7")
        record = json.loads(out)
        assert code == 0
        assert list(record) == ["sig", "euler", "good", "finite", "order", "geometry"]
        assert record["euler"] == "-1/42" and record["geometry"] == "hyperbolic"
        assert record["order"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "O;g=0;cones=2,3"],
            ["--format", "json", "classify", "O;g=0;cones=2,3"],
            ["classify", "O;g=0;cones=2,3", "--format", "json"],
        ],
        ids=["bare", "json-before-command", "json-after-command"],
    )
    def test_classify_prints_json_unless_text_is_asked_for(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (
            '{"sig": "O;g=0;cones=2,3", "euler": "5/6", "good": false, "finite": true,'
            ' "order": 1, "geometry": "bad_no_geometry"}\n'
        )

    @pytest.mark.parametrize(
        "argv,line",
        [
            (
                ["--format", "text", "classify", "O;g=0;cones=2,3,7"],
                "sig=O;g=0;cones=2,3,7 euler=-1/42 good=true finite=false order=null geometry=hyperbolic",
            ),
            (
                ["classify", "O;g=0;cones=2,3", "--format", "text"],
                "sig=O;g=0;cones=2,3 euler=5/6 good=false finite=true order=1 geometry=bad_no_geometry",
            ),
        ],
        ids=["before-command", "after-command"],
    )
    def test_classify_explicit_text(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == line + "\n"

    def test_euler_text_and_json(self, capsys):
        code, out, _ = run(capsys, "euler", "O;g=0;cones=2,3,5")
        assert code == 0 and out.strip() == "1/30"
        code, out, _ = run(capsys, "--format", "json", "euler", "O;g=1")
        assert json.loads(out) == {"sig": "O;g=1", "euler": "0/1"}
        code, out, _ = run(capsys, "euler", "O;g=1", "--format", "json")
        assert code == 0 and json.loads(out) == {"sig": "O;g=1", "euler": "0/1"}

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

    def test_abel_large_genus_and_many_cones(self, capsys):
        # Its closed form has genus 6,295 and 16 cones; the whole relation
        # matrix would be 17 x 12,606.
        code, out, _ = run(capsys, "abel", "N;g=27;cones=29,29,18,7;pun=3122")
        assert code == 0
        assert out.splitlines()[-1] == "Z^12590 + Z/29 + Z/29 + Z/29 + Z/29 + Z/3654 + Z/3654 + Z/3654"

    def test_cover_witness_output(self, capsys):
        code, out, _ = run(capsys, "cover", "O;g=0;cones=2,2,2,2")
        record = json.loads(out)
        assert code == 0
        assert list(record) == ["degree", "handles", "cones", "cover_euler", "cover_genus"]
        assert record["degree"] == 2 and record["cones"] == [[[0, 1]]] * 4

    def test_cover_none_with_schedule(self, capsys, monkeypatch):
        # Feasible degrees that all fail are rare, so stub the search to
        # pin down the reporting format on that path.
        import orb2d.cover as cover

        monkeypatch.setattr(cover, "search_at_degree", lambda s, n: None)
        code, out, _ = run(capsys, "cover", "O;g=0;cones=2,2,2,2", "--max-degree", "4")
        assert code == 0
        assert out.splitlines() == ["none", "tried degrees: 2, 4"]

    def test_cover_lists_the_schedule_once(self, capsys, monkeypatch):
        import orb2d.cover as cover

        calls = []
        schedule = cover.degree_schedule

        def counted(sig, max_degree):
            calls.append(max_degree)
            return schedule(sig, max_degree)

        monkeypatch.setattr(cover, "degree_schedule", counted)
        code, out, _ = run(capsys, "cover", "O;g=0;cones=2,3,7", "--max-degree", "84")
        assert code == 0 and json.loads(out)["degree"] == 84
        assert calls == [84]

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

    @pytest.mark.parametrize("fmt", [[], ["--format", "text"], ["--format", "json"]])
    def test_catalog_summary_follows_the_format(self, capsys, fmt):
        # The records are JSON Lines in every form; only the summary follows --format.
        argv = ["catalog", "--max-cones", "2", "--max-order", "3", "--orientable-only"]
        code, out, _ = run(capsys, *fmt, *argv)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 7
        assert [json.loads(line)["sig"] for line in lines[:2]] == ["O;g=0", "O;g=0;cones=2"]
        summary = {"total": 6, "good": 3, "bad": 3, "finite": 6, "infinite": 0}
        if fmt[-1:] == ["json"]:
            assert json.loads(lines[-1]) == summary
        else:
            assert lines[-1] == "total=6 good=3 bad=3 finite=6 infinite=0"

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

    def test_catalog_out_replaces_an_existing_file(self, capsys, tmp_path):
        target = tmp_path / "catalog.jsonl"
        target.write_text("old line\n" * 100)
        argv = ["catalog", "--max-cones", "2", "--max-order", "3", "--orientable-only"]
        for _ in range(2):
            assert run(capsys, *argv, "--out", str(target))[0] == 0
            assert target.read_text() == "".join(
                line + "\n" for line in run(capsys, *argv)[1].splitlines()[:-1]
            )

    def test_catalog_out_to_a_device(self, capsys):
        # A device cannot be truncated; it is written to as it is.
        assert run(capsys, "catalog", "--out", os.devnull) == (
            0,
            "total=1 good=1 bad=0 finite=1 infinite=0\n",
            "",
        )

    def test_catalog_deterministic(self, capsys):
        argv = ["catalog", "--max-genus", "1", "--max-cones", "2", "--max-punctures", "1"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestCatalogOptions:
    # The options set CatalogBounds fields by name and take their defaults
    # from CatalogBounds; the summary line is the name=value join of the
    # summary catalog_records returns.
    SUMMARY = {"total": 9, "good": 8, "bad": 1, "finite": 3, "infinite": 6}
    LINE = " ".join(f"{k}={v}" for k, v in SUMMARY.items()) + "\n"

    @pytest.fixture
    def calls(self, monkeypatch):
        import orb2d.cli as cli

        calls = []

        def catalog_records(bounds):
            calls.append(bounds)
            return [], self.SUMMARY

        monkeypatch.setattr(cli, "catalog_records", catalog_records)
        return calls

    def test_bare_catalog_passes_default_bounds(self, capsys, calls):
        assert run(capsys, "catalog") == (0, self.LINE, "")
        assert calls == [CatalogBounds()]

    def test_every_option_sets_its_field(self, capsys, calls):
        argv = ["--max-genus", "1", "--max-cones", "2", "--max-order", "3", "--max-boundary", "4"]
        argv += ["--max-corners", "5", "--max-punctures", "6", "--orientable-only"]
        assert run(capsys, "catalog", *argv) == (0, self.LINE, "")
        assert calls == [
            CatalogBounds(
                max_genus=1,
                max_cones=2,
                max_order=3,
                max_boundary=4,
                max_corners_per_circle=5,
                max_punctures=6,
                orientable_only=True,
            )
        ]

    @pytest.mark.parametrize(
        "argv",
        [["catalog", "--max-corner", "1"], ["catalog", "--orientable"], ["--form", "json", "catalog"]],
    )
    def test_option_prefixes_exit_2(self, capsys, calls, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2 and calls == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "option", ["--max-genus", "--max-cones", "--max-order", "--max-boundary", "--max-corners", "--max-punctures"]
    )
    def test_negative_bound_exits_2(self, capsys, calls, option):
        assert run(capsys, "catalog", option, "0") == (0, self.LINE, "")
        calls.clear()
        with pytest.raises(SystemExit) as exit_info:
            main(["catalog", option, "-1"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and calls == [] and captured.out == ""
        assert captured.err.endswith(f"argument {option}: invalid bound '-1': give an integer of at least 0\n")

    @pytest.mark.parametrize(
        "reason, target",
        [("No such file or directory", "missing/catalog.jsonl"), ("Is a directory", ".")],
    )
    def test_out_that_cannot_be_opened_exits_2(self, capsys, calls, tmp_path, reason, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "catalog", "--out", path)
        assert (code, out, calls) == (EXIT_PARSE, "", [])  # refused before enumerating
        assert err == f"cannot open --out {path!r}: {reason}\n"


class TestCliProcess:
    """The command line in a fresh process, which imports only what the
    command does: a deferred import that is missing fails here, not in the
    in-process tests, whose session has every module loaded."""

    ENV = dict(os.environ, PYTHONPATH=str(Path(orb2d.__file__).resolve().parents[1]))

    def start(self, argv, **kwargs):
        command = [sys.executable, "-m", "orb2d.cli", *argv]
        return subprocess.Popen(command, env=self.ENV, stderr=subprocess.PIPE, **kwargs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "N;g=1;bdry=r(4)"],
            ["euler", "N;g=1;bdry=r(4)"],
            ["reduce", "N;g=1;bdry=r(4)"],
            ["pi1", "N;g=1;bdry=r(4)"],
            ["abel", "N;g=1;bdry=r(4)"],
            ["cover", "O;g=0;cones=2,3,6"],
            ["catalog", "--max-cones", "2", "--max-order", "3", "--orientable-only"],
        ],
    )
    def test_command_matches_in_process_main(self, capsys, argv):
        proc = self.start(argv, stdout=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == run(capsys, *argv)

    @pytest.mark.parametrize(
        "argv, read_first_line",
        [
            (["classify", "O;g=0;cones=2,3,7"], False),
            # Megabytes of records, so the reader closes while the writer waits.
            (["catalog", "--max-genus", "2", "--max-cones", "3", "--max-order", "5",
              "--max-boundary", "2", "--max-corners", "2"], True),
        ],
    )
    def test_closed_stdout_exits_141_quietly(self, argv, read_first_line):
        proc = self.start(argv, stdout=subprocess.PIPE)
        if read_first_line:  # as `| head -n 1` does
            assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (EXIT_CLOSED_STDOUT, b"")


class TestCliErrors:
    @pytest.mark.parametrize(
        "text", ["O;g=x", "Q;g=0", "O;cones=2", "O;g=0;cones=1", "N;g=0", "O;g=\u00b2"]
    )
    def test_parse_errors_exit_2(self, capsys, text):
        code, out, err = run(capsys, "classify", text)
        assert code == EXIT_PARSE and not out and err.startswith("parse error:")

    def test_precondition_exit_3(self, capsys):
        # A cover search with a nonsensical bound violates a precondition.
        code, _, err = run(capsys, "cover", "O;g=1", "--max-degree", "0")
        assert code == EXIT_PRECONDITION and err.startswith("precondition violated:")
        # An input that is reduced first still prints nothing on stdout.
        code, out, err = run(capsys, "cover", "O;g=0;pun=1;cones=2,2", "--max-degree", "0")
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:")

    def test_max_degree_ceiling_exit_3(self, capsys):
        code, out, err = run(capsys, "cover", "O;g=1", "--max-degree", "1000000000000")
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["O;g=10000000", "O;g=0;pun=10000000"])
    @pytest.mark.parametrize("command", ["reduce", "pi1", "abel", "cover"])
    def test_size_ceiling_exit_3(self, capsys, command, text):
        code, out, err = run(capsys, command, text)
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err

    def test_size_ceiling_counts_genus_plus_punctures(self, capsys):
        assert run(capsys, "reduce", "N;g=1;pun=99999;bdry=r(),m")[0] == 0
        assert run(capsys, "reduce", "N;g=1;pun=100000;bdry=r(),m")[0] == EXIT_PRECONDITION
        # classify and euler take constant time in both counts.
        assert run(capsys, "classify", "O;g=10000000;pun=10000000")[0] == 0
        assert run(capsys, "euler", "O;g=10000000;pun=10000000")[0] == 0

    def test_invalid_witness_exit_4(self, capsys, monkeypatch):
        import orb2d.cover as cover

        monkeypatch.setattr(cover, "verify_witness", lambda s, w: cover.VerifyResult(False, "stub"))
        code, out, err = run(capsys, "cover", "O;g=0;cones=2,4,4")
        assert code == EXIT_INCONSISTENT and not out
        assert err.startswith("internal consistency failure:") and "Traceback" not in err

    @pytest.fixture
    def all_bad(self, monkeypatch):
        # The package attribute orb2d.classify is the function, not the module.
        module = sys.modules["orb2d.classify"]
        classify = module.classify
        monkeypatch.setattr(module, "classify", lambda s: classify(s)._replace(good=False))
        return ["catalog", "--max-genus", "1", "--max-cones", "2", "--max-order", "3", "--orientable-only"]

    def test_theorem_check_failure_exit_4(self, capsys, all_bad):
        code, out, err = run(capsys, *all_bad)
        assert (code, out) == (EXIT_INCONSISTENT, "")
        assert err == (
            "internal consistency failure: theorem check failed for O;g=1: a:infinite-implies-good\n"
        )

    def test_theorem_check_failure_keeps_the_out_file(self, capsys, all_bad, tmp_path):
        target = tmp_path / "catalog.jsonl"
        target.write_bytes(b'{"sig": "O;g=0"}\n')
        code, out, _ = run(capsys, *all_bad, "--out", str(target))
        assert (code, out) == (EXIT_INCONSISTENT, "")
        assert target.read_bytes() == b'{"sig": "O;g=0"}\n'

    @pytest.mark.parametrize(
        "text",
        ["O;g=0;cones=2,10000000", pytest.param("O;g=0;cones=" + "9" * 4000, id="4000-digit-cone")],
    )
    @pytest.mark.parametrize("command", ["pi1", "abel"])
    def test_relator_letter_ceiling_exit_3(self, capsys, command, text):
        code, out, err = run(capsys, command, text)
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter prints integers of any length",
    )
    @pytest.mark.parametrize("command", ["classify", "euler", "reduce"])
    def test_unprintable_euler_exit_3(self, capsys, command):
        # chi = 1/p + 1/q, whose denominator has about 8,000 digits.
        code, out, err = run(capsys, command, f"O;g=0;cones={'9' * 4000},{'9' * 3999}8")
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter prints integers of any length",
    )
    @pytest.mark.parametrize("text", ["O;g=0;cones=2,2,", "N;g=1;cones="])
    def test_unprintable_group_order_exit_3(self, capsys, text):
        # chi = 1/n still prints, but the order 2n has 4,301 digits.
        code, out, err = run(capsys, "classify", text + "9" * 4300)
        assert code == EXIT_PRECONDITION and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err


# Texts over the signature grammar: token soup (grammar tokens, spaces and
# integers), and fields with well-formed or soup values after an
# orientation, so that some texts parse and reach each command. An integer
# token is never followed by another, which would spell a larger integer.
# Integers are small, where answers vary, or up to 10**12 (13 digits, far
# below the 4,300 that int() reads), and are spelled in ASCII digits or in
# the decimal digits of another script, which the grammar reads alike.
_ZEROS = ["\u0660", "\u0966", "\uff10", "\U0001d7ce"]  # Arabic-Indic, Devanagari, fullwidth, bold
_INT = st.builds(
    lambda n, zero: str(n) if zero is None else "".join(chr(ord(zero) + int(d)) for d in str(n)),
    st.one_of(st.integers(0, 40), st.integers(0, 10**12)),
    st.one_of(st.none(), st.sampled_from(_ZEROS)),
)
_GRAMMAR = ["O", "N", ";", "g=", "pun=", "cones=", "bdry=", "m", "r(", ")", ",", " "]
_TOKENS = st.tuples(st.sampled_from(_GRAMMAR), st.one_of(st.just(""), _INT)).map("".join)
_SOUP = st.lists(_TOKENS, max_size=10).map("".join)
_CIRCLE = st.one_of(st.just("m"), st.lists(_INT, max_size=3).map(lambda c: f"r({','.join(c)})"))
_FIELD = st.one_of(
    _INT.map("pun={}".format),
    st.lists(_INT, min_size=1, max_size=3).map(lambda c: "cones=" + ",".join(c)),
    st.lists(_CIRCLE, min_size=1, max_size=2).map(lambda b: "bdry=" + ",".join(b)),
    st.builds("{}={}".format, st.sampled_from(["g", "pun", "cones", "bdry"]), _SOUP),
)
_TEXTS = st.one_of(
    _SOUP,
    st.builds(
        lambda head, g, fields: ";".join([head, "g=" + g, *fields]),
        st.sampled_from(["O", "N"]),
        _INT,
        st.lists(_FIELD, max_size=3, unique_by=lambda field: field.split("=")[0]),
    ),
)


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        text=_TEXTS,
        command=st.sampled_from(["classify", "euler", "reduce", "pi1", "abel"]),
        as_json=st.booleans(),
    )
    def test_defined_outcome(self, text, command, as_json):
        argv = (["--format", "json"] if as_json else []) + [command, text]
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        # Every count a short text can spell is bounded or refused; cover,
        # whose search has no budget yet, is not drawn.
        assert time.process_time() - start < 2, argv
        assert code in (0, EXIT_PARSE, EXIT_PRECONDITION)
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == ""
