import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bruhat_atlas import cli, galois, serialize
from bruhat_atlas.cli import USAGE, corpus_preset, main, parse_args
from bruhat_atlas.atlas import build_atlas, siegel_case
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import InputError
from bruhat_atlas.serialize import case_to_dict, emit_dot, hasse_edges, parse_case
from conftest import DIGESTS, LADDER, benchmark_workloads, from_word
from reference import atlas_files, atlas_json, atlas_to_dict


A2 = {"group": {"factors": [{"type": "A", "rank": 2}]}}


class TestPresets:
    def test_siegel(self):
        case = corpus_preset("siegel:3")
        assert case.spec.factors == (("C", 3),)
        assert case.mu.pairings == (0, 0, 1)

    def test_siegel_genus_one_uses_a1(self):
        case = corpus_preset("siegel:1")
        assert case.spec.factors == (("A", 1),)
        assert case.mu.pairings == (1,)

    def test_hilbert(self):
        case = corpus_preset("hilbert:3")
        assert case.spec.factors == (("A", 1),) * 3
        assert case.phi.perm == (1, 2, 0)
        assert case.mu.pairings == (1, 1, 1)

    def test_gu_inert(self):
        case = corpus_preset("gu:2,1:inert")
        assert case.spec.factors == (("A", 2),)
        assert case.phi.perm == (1, 0)
        assert case.mu.pairings == (1, 0)

    def test_gu_split(self):
        case = corpus_preset("gu:3,1:split")
        assert case.spec.factors == (("A", 3),)
        assert case.phi.perm == (0, 1, 2)
        assert case.mu.pairings == (1, 0, 0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "options",
        [{}, {"element_bound": 100}, {"minuscule_check": False},
         {"element_bound": 100, "minuscule_check": False}],
        ids=["defaults", "bound", "no-minuscule-check", "both"],
    )
    def test_siegel_preset_is_siegel_case(self, g, options):
        assert corpus_preset(f"siegel:{g}", **options) == siegel_case(g, **options)

    @pytest.mark.parametrize("preset", LADDER)
    def test_preset_round_trips_through_its_case_echo(self, preset):
        # atlas.json echoes the case as case_to_dict writes it
        case = corpus_preset(preset)
        assert parse_case(case_to_dict(case)) == case

    @pytest.mark.parametrize(
        "bad",
        [
            "siegel", "siegel:0", "siegel:x", "hilbert:-1", "gu:2,1", "gu:a,b:inert", "nope:1",
            # a number is ASCII decimal digits only, though int() takes more
            "hilbert:1_0", "siegel:\u0663", "siegel:+3", "siegel: 3", "gu:1_0,1:inert",
            "gu:4,3,1:inert",
        ],
    )
    def test_bad_presets(self, bad, capsys):
        with pytest.raises(InputError):
            corpus_preset(bad)
        # the CLI refuses it in one line, exit 2
        assert main(["corpus", bad]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestCaseRoundTrip:
    def test_mu_case(self):
        case = corpus_preset("siegel:2")
        assert parse_case(case_to_dict(case)) == case

    def test_j_case(self):
        doc = {
            "group": {"factors": [{"type": "A", "rank": 2}]},
            "frobenius": {"permutation": [1, 0]},
            "J": [1],
        }
        case = parse_case(doc)
        assert case.J == frozenset({1})
        assert parse_case(case_to_dict(case)) == case

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {},
            {"group": {"factors": [{"type": "A"}]}, "J": []},
            {"group": {"factors": [{"type": "A", "rank": 2}]}},
            {
                "group": {"factors": [{"type": "A", "rank": 2}]},
                "mu": {"pairings": [0, 1]},
                "J": [0],
            },
            {"group": {"factors": [{"type": "A", "rank": 2}]}, "frobenius": {}, "J": []},
        ],
    )
    def test_invalid_documents(self, doc):
        with pytest.raises(InputError):
            parse_case(doc)


class TestSerialization:
    def test_json_words_reparse_to_canonical_elements(self):
        # equal elements of one group are identical
        atlas = build_atlas(siegel_case(3))
        doc = atlas_to_dict(atlas)
        group = atlas.group
        for s_doc, s in zip(doc["strata"], atlas.strata):
            assert from_word(group, s_doc["rep"], atlas.J) is s.rep
            for f_doc, w in zip(s_doc["eo_fiber"], s.eo_fiber):
                assert from_word(group, f_doc["word"], atlas.J) is w
                assert f_doc["length"] == w.length

    def test_dot_is_transitive_reduction(self):
        atlas = build_atlas(siegel_case(3))
        edges = hasse_edges(atlas)
        # the Siegel poset is a chain, so exactly n-1 covering edges
        assert len(edges) == len(atlas.strata) - 1
        dot = emit_dot(atlas)
        assert dot.count("->") == len(edges)
        assert dot.startswith("digraph")

    @pytest.mark.parametrize("preset", ["siegel:3", "gu:4,3:inert", "hilbert:6"])
    def test_atlas_json_is_written_one_stratum_at_a_time(self, preset, tmp_path, monkeypatch):
        # the command line's files record every write they are given
        writes = {}

        def recording_open(path, mode="r"):
            file = open(path, mode)
            write, calls = file.write, writes.setdefault(os.path.basename(path), [])
            file.write = lambda text: calls.append(text) or write(text)
            return file

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        assert main(["--out", str(tmp_path), "corpus", preset]) == 0
        atlas = build_atlas(corpus_preset(preset))
        files = atlas_files(atlas)
        for name in ("atlas.json", "table.txt"):
            assert (tmp_path / name).read_text() == "".join(writes[name]) == files[name]
        # each stratum reaches atlas.json as one write, from the comma before
        # it on, and its table row as another: the header's, then one a row
        entries = [text for text in writes["atlas.json"] if '"id": ' in text]
        assert len(entries) == len(atlas.strata)
        for text in entries:
            assert text.lstrip(",").startswith('\n    {\n      "id": ')
            assert text.count('"id": ') == 1
        assert writes["table.txt"] == files["table.txt"].splitlines(keepends=True)
        assert len(writes["table.txt"]) == 1 + len(atlas.strata)

    def test_table_shape(self):
        atlas = build_atlas(siegel_case(2))
        lines = atlas_files(atlas)["table.txt"].splitlines()
        assert lines[0].split() == ["id", "rep", "dim", "codim", "#EO", "single-EO", "closure"]
        assert len(lines) == 1 + len(atlas.strata)


class TestMain:
    def test_corpus_siegel(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--verify", "corpus", "siegel:2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 strata" in out and "moduli dim 3" in out
        assert out.count("[PASS]") == 10 and "[FAIL]" not in out
        doc = json.loads((tmp_path / "atlas.json").read_text())
        assert doc["J"] == [0] and doc["K"] == [0]
        assert [s["dim"] for s in doc["strata"]] == [0, 2, 3]
        assert (tmp_path / "hasse.dot").exists()
        assert (tmp_path / "table.txt").exists()

    def test_atlas_from_casefile(self, tmp_path, capsys):
        casefile = tmp_path / "case.json"
        casefile.write_text(json.dumps(case_to_dict(corpus_preset("gu:2,1:inert"))))
        rc = main(["--out", str(tmp_path / "o"), "verify", str(casefile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mu-ordinary False" in out and "degree 2" in out

    def test_bad_frobenius_exits_2(self, tmp_path, capsys):
        casefile = tmp_path / "case.json"
        casefile.write_text(
            json.dumps(
                {
                    "group": {"factors": [{"type": "C", "rank": 2}]},
                    "frobenius": {"permutation": [1, 0]},
                    "J": [0],
                }
            )
        )
        rc = main(["--out", str(tmp_path / "o"), "atlas", str(casefile)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "atlas", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--out", str(tmp_path), "atlas", str(bad)]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe{",  # a UTF-16 byte-order mark and an odd byte count
            b"[" * 100_000,  # nesting past the recursion limit
            b'{"J": [' + b"9" * 5000 + b"]}",  # past the integer digit limit
        ],
        ids=["undecodable", "deeply-nested", "long-integer"],
    )
    def test_unreadable_json_exits_2_with_one_line(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert main(["--out", str(tmp_path / "o"), "atlas", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_case_file_in_utf16_or_utf32(self, tmp_path, capsys, encoding):
        casefile = tmp_path / "case.json"
        casefile.write_bytes(json.dumps(case_to_dict(corpus_preset("siegel:2"))).encode(encoding))
        assert main(["--out", str(tmp_path / "o"), "atlas", str(casefile)]) == 0
        assert "3 strata" in capsys.readouterr().out

    def test_out_naming_a_file_exits_2_before_the_build(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "taken"
        target.write_text("")
        monkeypatch.setattr(cli.atlas_mod, "build_atlas", lambda case: pytest.fail("built"))
        assert main(["--out", str(target), "corpus", "siegel:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {target}: ") and err.count("\n") == 1

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        out_dir = tmp_path / "taken" / "sub"
        assert main(["--out", str(out_dir), "corpus", "siegel:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out_dir}: ") and err.count("\n") == 1

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        # the directory exists, but a directory stands where atlas.json goes
        (tmp_path / "atlas.json").mkdir()
        assert main(["--out", str(tmp_path), "corpus", "siegel:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {tmp_path}: ") and err.count("\n") == 1

    def test_bound_exceeded_exits_3(self, tmp_path, capsys):
        # |^J W| = 8 for siegel:3: a bound of 8 builds, one below it does not
        assert main(["--out", str(tmp_path), "--bound", "8", "corpus", "siegel:3"]) == 0
        capsys.readouterr()
        rc = main(["--out", str(tmp_path), "--bound", "7", "corpus", "siegel:3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: enumeration of 8 elements exceeds element bound 7\n"
        )

    def test_internal_invariant_exits_4(self, tmp_path, monkeypatch, capsys):
        parabolic = WeylGroup.parabolic
        monkeypatch.setattr(
            WeylGroup, "parabolic",
            lambda self, S: (parabolic(self, S)[0] + 1, parabolic(self, S)[1]),
        )
        rc = main(["--out", str(tmp_path), "corpus", "siegel:3"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: internal invariant failed: ")
        assert err.count("\n") == 1

    def test_bound_limits_materialized_elements(self, tmp_path):
        # |W(C7)| = 645,120: the atlas fits in the bound, the oracle does not
        args = ["--out", str(tmp_path), "--bound", "10000"]
        assert main([*args, "corpus", "siegel:7"]) == 0
        assert main([*args, "--verify", "corpus", "siegel:7"]) == 3

    def test_enumeration_past_the_bound_is_refused_before_it_grows(self, tmp_path, capsys):
        # |^J W| = 2^30 for hilbert:30: refused by its closed-form count
        args = ["--out", str(tmp_path), "--bound", "1000", "corpus", "hilbert:30"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1073741824" in err

    def test_verify_refuses_a_group_past_the_bound_before_sizing_it(self, tmp_path):
        # |W(A20)| = 21! > sys.maxsize, while the atlas interns 21 elements:
        # the oracle must refuse it by its order, not try to index all of it
        args = ["--out", str(tmp_path), "--verify", "corpus", "gu:20,1:inert"]
        assert main(args) == 3

    def test_verify_refuses_a_group_whose_roots_do_not_fit_a_byte(self, tmp_path, capsys):
        # |W(C12)| is about 1.96e12, under this bound, but its 288 roots do not
        # fit the oracle's byte keys: refused before the oracle builds a key
        args = ["--out", str(tmp_path), "--bound", "10000000000000", "--verify"]
        assert main([*args, "corpus", "siegel:12"]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("C12: 13 strata")
        assert captured.err == "error: the oracle's keys hold 288 > 256 roots\n"

    @pytest.mark.parametrize("bound", ["abc", True, 0])
    def test_bad_element_bound_exits_2(self, tmp_path, bound):
        doc = {**case_to_dict(corpus_preset("siegel:2")), "options": {"element_bound": bound}}
        with pytest.raises(InputError, match="element_bound"):
            parse_case(doc)
        casefile = tmp_path / "case.json"
        casefile.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "o"), "atlas", str(casefile)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {**A2, "J": 5},
            {**A2, "mu": {"pairings": 3}},
            {**A2, "mu": {"pairings": ["x", 1]}},
            {**A2, "J": [0], "options": [1]},
            {**A2, "J": [0], "frobenius": {"permutation": 5}},
            [1, 2],
            {"group": {"factors": [{"type": "A", "rank": True}]}, "J": []},
            {"group": {"factors": {"type": "A", "rank": 2}}, "J": []},
            {**A2, "J": [True]},
            {**A2, "J": [0], "options": {"minuscule_check": "no"}},
        ],
        ids=[
            "J-int", "pairings-int", "pairings-str", "options-list",
            "permutation-int", "top-level-list", "rank-bool", "factors-dict",
            "J-bool", "minuscule-check-str",
        ],
    )
    @pytest.mark.parametrize("bound", [[], ["--bound", "100"]], ids=["plain", "bound"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, doc, bound):
        casefile = tmp_path / "case.json"
        casefile.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path / "o"), *bound, "atlas", str(casefile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_hasse_diagram_reduced_once_per_case(self, tmp_path, monkeypatch):
        calls = []
        covers = galois._covers
        monkeypatch.setattr(galois, "_covers", lambda below: calls.append(1) or covers(below))
        assert main(["--out", str(tmp_path), "corpus", "gu:4,3:inert"]) == 0
        assert len(calls) == 1
        edges = json.loads((tmp_path / "atlas.json").read_text())["poset_edges"]
        dot = (tmp_path / "hasse.dot").read_text()
        assert [f"  n{a} -> n{b};" for a, b in edges] == [
            line for line in dot.splitlines() if "->" in line
        ]

    @pytest.mark.parametrize("preset", ["siegel:3", "gu:4,3:inert", "hilbert:6"])
    def test_closures_are_formed_only_as_they_are_written(self, tmp_path, monkeypatch, preset):
        # the build forms no closure; a run forms each stratum's exactly once,
        # in id order, for atlas.json and table.txt together.  A closure is
        # the labels that its mask's binary digits select, and the top digit
        # is its own stratum's
        calls = []
        compress = serialize.compress
        monkeypatch.setattr(
            serialize,
            "compress",
            lambda data, digits: calls.append(len(digits) - 1) or compress(data, digits),
        )
        n = len(build_atlas(corpus_preset(preset)).strata)
        assert calls == []
        assert main(["--out", str(tmp_path), "corpus", preset]) == 0
        assert calls == list(range(n))

    def test_broken_closure_order_fails_verification(self, tmp_path, monkeypatch, capsys):
        # a many-strata shape with one bit of the built order cleared
        build = cli.atlas_mod.build_atlas

        def build_broken(case):
            built = build(case)
            below = list(built.orbit_poset.below)
            b = len(below) - 1
            below[b] &= ~(1 << 1)  # orbit 1 no longer below the top
            built.orbit_poset.below = tuple(below)
            return built

        monkeypatch.setattr(cli.atlas_mod, "build_atlas", build_broken)
        doc = {
            "group": {"factors": [{"type": "B", "rank": 3}, {"type": "A", "rank": 2}]},
            "frobenius": {"permutation": [0, 1, 2, 4, 3]},
            "J": [],
        }
        assert cli._run_case(parse_case(doc), tmp_path, verify=True) == 1
        out = capsys.readouterr().out
        assert "192 strata" in out
        # the top's down-set is the closure written for it, so the maximal
        # stratum check sees the cleared bit too
        assert [line for line in out.splitlines() if "[FAIL]" in line] == [
            "[FAIL] closure_order (B3 x A2 J=[] K=[]) counterexample: orbits 1 <= 191",
            "[FAIL] maximal_stratum (B3 x A2 J=[] K=[]) counterexample: "
            "x=[0, 1, 0, 2, 1, 0, 2, 1, 2, 3, 4, 3]",
        ]

    def test_trivial_signature_either_side(self, tmp_path):
        texts = []
        for preset in ("gu:0,3:inert", "gu:3,0:inert"):
            out = tmp_path / preset.replace(":", "_")
            assert main(["--out", str(out), "corpus", preset]) == 0
            texts.append((out / "atlas.json").read_text())
        assert texts[0] == texts[1]
        assert len(json.loads(texts[0])["strata"]) == 1

    def test_no_minuscule_check_flag(self, tmp_path, capsys):
        casefile = tmp_path / "case.json"
        casefile.write_text(
            json.dumps(
                {
                    "group": {"factors": [{"type": "C", "rank": 2}]},
                    "mu": {"pairings": [1, 0]},
                }
            )
        )
        assert main(["--out", str(tmp_path / "o"), "atlas", str(casefile)]) == 2
        capsys.readouterr()
        rc = main(
            ["--out", str(tmp_path / "o"), "--no-minuscule-check", "atlas", str(casefile)]
        )
        assert rc == 0

    def test_siegel_subcommand(self, capsys):
        rc = main(["siegel", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "genus 2: 3 strata" in out
        assert "total order reversed by a-number: True" in out

    def test_siegel_honors_bound(self, capsys):
        assert main(["--bound", "5", "siegel", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # |^J W| = 16 is refused by its closed form before anything is grown
        assert captured.err == "error: enumeration of 16 elements exceeds element bound 5\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["atlas", "case.json"],
            ["corpus", "siegel:9999999999999999999999"],
            ["siegel", "9999999999999999999999"],
            ["corpus", "hilbert:99999999999999999999"],
            ["corpus", "gu:99999999999999999999,1:inert"],
        ],
        ids=["case-file", "siegel-preset", "siegel", "hilbert-preset", "gu-preset"],
    )
    def test_rank_past_the_bound_is_refused_before_it_is_built(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # the identity and the simple reflections alone exceed the bound, and
        # a list of the rank's size would overflow; a bad bound is still exit 2
        monkeypatch.chdir(tmp_path)
        huge = {"type": "A", "rank": 99999999999999999999}
        Path("case.json").write_text(json.dumps({"group": {"factors": [huge]}, "J": []}))
        start = time.perf_counter()
        assert main(["--out", "o", *command]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: rank ") and err.count("\n") == 1
        assert "past element bound 1000000" in err
        assert main(["--out", "o", "--bound", "0", *command]) == 2
        assert capsys.readouterr().err == (
            "error: options.element_bound must be an integer >= 1, got 0\n"
        )

    @pytest.mark.parametrize("command", [["corpus", "siegel:2"], ["siegel", "2"]])
    def test_nonpositive_bound_exits_2(self, tmp_path, capsys, command):
        for bound in (["--bound", "0"], ["--bound=0"]):
            assert main(["--out", str(tmp_path), *bound, *command]) == 2
            assert capsys.readouterr().err == (
                "error: options.element_bound must be an integer >= 1, got 0\n"
            )

    def test_siegel_verify_passes(self, capsys):
        assert main(["--verify", "siegel", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:7] == [
            "genus 3: 4 strata",
            "  a   dim  rep",
            "  0     6  210212",
            "  1     5  212",
            "  2     3  2",
            "  3     0  e",
            "total order reversed by a-number: True",
        ]
        assert len(lines) == 17
        assert all(line.startswith("[PASS] ") for line in lines[7:])

    def test_siegel_verify_catches_broken_closure_order(self, monkeypatch, capsys):
        # the order is broken after the build's Siegel check has accepted it
        build = cli.atlas_mod.build_atlas

        def build_broken(case):
            built = build(case)
            below = list(built.orbit_poset.below)
            below[-1] &= ~(1 << 1)  # orbit 1 no longer below the top
            built.orbit_poset.below = tuple(below)
            return built

        monkeypatch.setattr(cli.atlas_mod, "build_atlas", build_broken)
        assert main(["--verify", "siegel", "3"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "[FAIL]" in line] == [
            "[FAIL] closure_order (C3 J=[0, 1] K=[0, 1]) counterexample: orbits 1 <= 3",
            "[FAIL] maximal_stratum (C3 J=[0, 1] K=[0, 1]) counterexample: x=[2, 1, 0, 2, 1, 2]",
        ]

    def test_siegel_bad_genus(self, capsys):
        assert main(["siegel", "0"]) == 2
        assert capsys.readouterr().err == "error: genus must be >= 1, got 0\n"
        # a genus is ASCII decimal digits only, though int() takes more
        for bad in ["1_0", "\u0663", "+3", "-3", " 3", "x"]:
            assert main(["siegel", bad]) == 2
            assert capsys.readouterr().err == f"error: bad genus {bad!r}\n"

    def test_parser_requires_command(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr() == ("", "error: missing command\n")


class TestUsage:
    """The fixed grammar [--out DIR] [--verify] [--no-minuscule-check]
    [--bound N] COMMAND ARG: every usage error exits 2 with one line."""

    @pytest.mark.parametrize("bad", ["1_000", "\u0663", "+5", "x", "-5", " 5", ""])
    @pytest.mark.parametrize("form", ["split", "joined"])
    def test_bad_bound_exits_2_in_one_line(self, tmp_path, capsys, bad, form):
        # a bound is ASCII decimal digits only, like the preset numbers
        bound = ["--bound", bad] if form == "split" else [f"--bound={bad}"]
        assert main(["--out", str(tmp_path), *bound, "corpus", "siegel:3"]) == 2
        assert capsys.readouterr() == ("", f"error: bad bound {bad!r}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--verify"], "missing command"),
            (["frob", "x"], "unknown command 'frob'"),
            (["Corpus", "siegel:2"], "unknown command 'Corpus'"),
            (["corpus"], "corpus takes one PRESET after the options"),
            (["atlas", "a.json", "b.json"], "atlas takes one CASEFILE after the options"),
            (["--frobenius", "corpus", "siegel:2"], "unknown option '--frobenius'"),
            (["-v", "corpus", "siegel:2"], "unknown option '-v'"),
            (["--", "corpus", "siegel:2"], "unknown option '--'"),
            # argparse took unique prefixes; options are spelled in full
            (["--ver", "corpus", "siegel:2"], "unknown option '--ver'"),
            (["--no-min", "corpus", "siegel:2"], "unknown option '--no-min'"),
            (["--bo", "8", "corpus", "siegel:2"], "unknown option '--bo'"),
            (["--out"], "option --out needs a value"),
            (["--verify", "--bound"], "option --bound needs a value"),
            (["--verify=yes", "corpus", "siegel:2"], "option --verify takes no value"),
            (["corpus", "siegel:2", "--verify"], "corpus takes one PRESET after the options"),
            (["corpus", "--verify", "siegel:2"], "corpus takes one PRESET after the options"),
            (["siegel", "--bound=3"], "siegel takes one G after the options"),
        ],
    )
    def test_usage_errors_exit_2_in_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(["--out", str(out), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["--help"],
            ["--verify", "--help"],
            ["--help", "corpus", "siegel:2"],
            ["corpus", "-h"],
            ["siegel", "--help"],
        ],
    )
    def test_help_prints_the_usage(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(["--out", str(out), *argv]) == 0
        assert capsys.readouterr() == (USAGE + "\n", "")
        assert USAGE.startswith("usage: bruhat-atlas [--out DIR] [--verify] ")
        assert not out.exists()

    def test_options_take_their_value_joined_or_split(self, tmp_path, capsys):
        # |^J W| = 8 for siegel:3: a bound of 8 builds, 7 does not
        assert main([f"--out={tmp_path / 'a'}", "--bound=8", "corpus", "siegel:3"]) == 0
        assert main(["--out", str(tmp_path / "b"), "--bound", "8", "corpus", "siegel:3"]) == 0
        for name in ("atlas.json", "hasse.dot", "table.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        capsys.readouterr()
        assert main([f"--out={tmp_path / 'c'}", "--bound=7", "corpus", "siegel:3"]) == 3
        # the last of a repeated option wins, as it did under argparse
        assert parse_args(["--out", "x", "--out=y", "siegel", "2"])[2] == "y"


@pytest.mark.parametrize("preset", LADDER)
def test_ladder_outputs_match_recorded_digests(preset, tmp_path):
    assert main(["--out", str(tmp_path), "corpus", preset]) == 0
    for name, digest in DIGESTS[preset].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_many_strata_outputs_match_recorded_digests(tmp_path):
    # one seed's twelve documents, each recorded under the hash of its bytes
    workloads = benchmark_workloads()
    docs = workloads.many_strata_docs(611)
    assert len(docs) == 12
    for name, doc in docs:
        data = workloads.doc_bytes(doc)
        expected = DIGESTS["doc:" + hashlib.sha256(data).hexdigest()]
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        out = tmp_path / name
        assert main(["--out", str(out), "atlas", str(path)]) == 0, name
        for file, digest in expected.items():
            assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest, (
                name,
                file,
            )


# the whole stdout of --verify, summary line and every check line in order
VERIFY_STDOUT = {
    "gu:3,3:inert": """\
A5: 4 strata, moduli dim 9, mu-ordinary True, degree 1
[PASS] double_representatives (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] fiber_partition (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] dimensions (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] howlett_lengths (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] closure_order (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] maximal_stratum (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] single_fiber_criterion (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] orbit_order_antisymmetry (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] parabolic_types (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
[PASS] frobenius_orbits (A5 J=[0, 1, 3, 4] K=[0, 1, 3, 4])
""",
    "siegel:3": """\
C3: 4 strata, moduli dim 6, mu-ordinary True, degree 1
[PASS] double_representatives (C3 J=[0, 1] K=[0, 1])
[PASS] fiber_partition (C3 J=[0, 1] K=[0, 1])
[PASS] dimensions (C3 J=[0, 1] K=[0, 1])
[PASS] howlett_lengths (C3 J=[0, 1] K=[0, 1])
[PASS] closure_order (C3 J=[0, 1] K=[0, 1])
[PASS] maximal_stratum (C3 J=[0, 1] K=[0, 1])
[PASS] single_fiber_criterion (C3 J=[0, 1] K=[0, 1])
[PASS] orbit_order_antisymmetry (C3 J=[0, 1] K=[0, 1])
[PASS] parabolic_types (C3 J=[0, 1] K=[0, 1])
[PASS] frobenius_orbits (C3 J=[0, 1] K=[0, 1])
""",
}


@pytest.mark.parametrize("preset", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(preset, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--verify", "corpus", preset]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT[preset]


SRC = str(Path(__file__).resolve().parents[1] / "src")

# modules whose import a build-only process must not pay for
_HEAVY_IMPORTS = (
    "dataclasses",
    "inspect",
    "bruhat_atlas.oracle",
    "argparse",
    "gettext",
    "pathlib",
    "json",
)


def _loaded_after_main(out, *args) -> dict:
    """Which of ``_HEAVY_IMPORTS`` a fresh ``python -S`` process holds in
    ``sys.modules`` after running ``main`` on ``args``."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from bruhat_atlas.cli import main;"
        "code = main(sys.argv[2:]);"
        f"print(repr({{m: m in sys.modules for m in {_HEAVY_IMPORTS!r}}}));"
        "raise SystemExit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, SRC, "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_a_build_only_process_imports_neither_dataclasses_nor_the_oracle(tmp_path):
    loaded = _loaded_after_main(tmp_path, "corpus", "siegel:2")
    assert loaded == dict.fromkeys(_HEAVY_IMPORTS, False)


def test_verify_loads_the_oracle(tmp_path):
    loaded = _loaded_after_main(tmp_path, "--verify", "corpus", "siegel:2")
    assert loaded["bruhat_atlas.oracle"]


def test_only_a_run_that_reads_a_case_file_loads_json(tmp_path):
    # atlas.json's header is laid out without json; only _load_doc parses
    case = tmp_path / "case.json"
    case.write_text(json.dumps(case_to_dict(corpus_preset("siegel:2"))))
    assert not _loaded_after_main(tmp_path, "siegel", "3")["json"]
    assert not _loaded_after_main(tmp_path, "--verify", "corpus", "siegel:2")["json"]
    assert _loaded_after_main(tmp_path, "atlas", str(case))["json"]
    assert _loaded_after_main(tmp_path, "verify", str(case))["json"]


def _entry_env(unbuffered: bool = False) -> dict:
    """The environment of a ``python -S -m bruhat_atlas`` process: this
    checkout's sources, and stdout block-buffered unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _entry(*args, stdout=subprocess.PIPE, unbuffered: bool = False):
    """One ``python -S -m bruhat_atlas`` process on ``args``."""
    return subprocess.run(
        [sys.executable, "-S", "-m", "bruhat_atlas", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_entry_env(unbuffered),
        text=True,
        timeout=120,
    )


class TestProcessEntry:
    """``cli.run`` ends the process with ``os._exit`` once ``main`` returns:
    what the process prints, writes and exits with is what ``main`` gives."""

    @pytest.mark.parametrize("preset", sorted(VERIFY_STDOUT))
    def test_entry_prints_and_writes_what_main_does(self, preset, tmp_path, capsys):
        # stdout is a block-buffered pipe, so a missing flush would lose lines
        done = _entry("--out", str(tmp_path / "entry"), "--verify", "corpus", preset)
        assert (done.returncode, done.stdout, done.stderr) == (0, VERIFY_STDOUT[preset], "")
        assert main(["--out", str(tmp_path / "main"), "--verify", "corpus", preset]) == 0
        assert capsys.readouterr().out == VERIFY_STDOUT[preset]
        for name in ("atlas.json", "hasse.dot", "table.txt"):
            entry = (tmp_path / "entry" / name).read_bytes()
            assert entry == (tmp_path / "main" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "args, code",
        [(["corpus", "nope:1"], 2), (["corpus", "hilbert:30"], 3)],
    )
    def test_entry_exits_with_mains_error_code_in_one_line(self, args, code, tmp_path):
        done = _entry("--out", str(tmp_path), *args)
        assert done.returncode == code
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize("code", [1, 4])
    def test_entry_exits_with_the_code_main_returns(self, code):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from bruhat_atlas import cli;"
            f"cli.main = lambda argv=None: {code};"
            "cli.run()"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script, SRC],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, "", "")

    def test_an_exception_from_main_keeps_its_traceback(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from bruhat_atlas import cli;"
            "cli.main = lambda argv=None: 1 // 0;"
            "cli.run()"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script, SRC],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("Traceback")
        assert done.stderr.splitlines()[-1] == "ZeroDivisionError: integer division or modulo by zero"

    def test_the_script_and_python_m_share_the_entry(self):
        pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
        assert 'bruhat-atlas = "bruhat_atlas.cli:run"' in pyproject.splitlines()
        main_py = (Path(SRC) / "bruhat_atlas" / "__main__.py").read_text()
        assert "run()" in main_py and "main(" not in main_py

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize(
        "args", [["corpus", "siegel:2"], ["--verify", "siegel", "3"]]
    )
    def test_a_full_stdout_exits_2_in_one_line(self, args, unbuffered, tmp_path):
        # unbuffered, the first print fails; block-buffered, its flush does
        with open("/dev/full", "w") as full:
            done = _entry("--out", str(tmp_path), *args, stdout=full, unbuffered=unbuffered)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: cannot write to stdout: [Errno 28] No space left on device"
        ]

    def test_a_closed_pipe_exits_2_in_one_line(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the process starts: every write fails
        try:
            done = _entry("--out", str(tmp_path), "corpus", "siegel:2", stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: cannot write to stdout: [Errno 32] Broken pipe"]


def test_main_leaves_no_resource_open(tmp_path):
    # the entry skips the teardown, where an unclosed file would have been
    # reported; here a process runs main, collects and exits as usual, so a
    # ResourceWarning still shows on its stderr
    casefile = tmp_path / "case.json"
    casefile.write_text(json.dumps(case_to_dict(corpus_preset("gu:2,1:inert"))))
    script = (
        "import gc, sys; sys.path.insert(0, sys.argv[1]);"
        "from bruhat_atlas.cli import main;"
        "out = sys.argv[2];"
        "assert main(['--out', out, 'corpus', 'siegel:2']) == 0;"
        "assert main(['--out', out, 'atlas', sys.argv[3]]) == 0;"
        "assert main(['--out', out, '--verify', 'corpus', 'siegel:3']) == 0;"
        "gc.collect()"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-X", "dev", "-W", "error", "-c", script,
         SRC, str(tmp_path / "out"), str(casefile)],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args", [["corpus", "siegel:2"], ["--verify", "siegel", "3"]]
)
def test_an_in_process_main_on_a_full_stdout_exits_2_in_one_line(args, tmp_path):
    # this process exits as usual, through the interpreter's exit flush of
    # stdout, which must find nothing left to write
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from bruhat_atlas.cli import main;"
        "sys.exit(main(sys.argv[2:]))"
    )
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-S", "-X", "dev", "-W", "error", "-c", script,
             SRC, "--out", str(tmp_path), *args],
            stdout=full, stderr=subprocess.PIPE, env=_entry_env(),
            text=True, timeout=120,
        )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: cannot write to stdout: [Errno 28] No space left on device"
    ]
