"""Command line behaviour: outputs, exit codes, determinism."""

import json

import pytest

from nfaindex import (
    Nfa,
    cfs_order,
    gen_fixture,
    max_colex_relation,
    parse_nfa,
    relation_to_json_dict,
)
from nfaindex.cli import _build_parser, main
from nfaindex.colex import MAX_DENSE_STATES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_relation(tmp_path, nfa, pairs, n=None):
    path = tmp_path / "rel.json"
    names = [[nfa.names[u], nfa.names[v]] for (u, v) in pairs]
    path.write_text(json.dumps({"n": n if n is not None else nfa.n_states,
                                "pairs": names}))
    return str(path)


class TestAnalyze:
    def test_json_fields(self, capsys):
        code, out, err = run(capsys, "analyze", "--fixture", "sep:10")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert list(data) == ["n_states", "classes_R", "classes_FS", "width_R",
                              "width_FS", "superset_holds", "quasi_wheeler",
                              "max_order_exists"]
        assert data["classes_R"] == 10 and data["width_R"] == 6
        assert data["classes_FS"] == 5 and data["width_FS"] == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "wheeler3",
                           "--format", "text")
        assert code == 0
        assert "max_order_exists: false" in out

    def test_compare_is_an_alias(self, capsys):
        _, out_a, _ = run(capsys, "analyze", "--fixture", "fig2")
        _, out_c, _ = run(capsys, "compare", "--fixture", "fig2")
        assert out_a == out_c

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "a.nfa"
        path.write_text(gen_fixture("fig2").serialize())
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["n_states"] == 7

    def test_oracle_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "--fixture", "wheeler3", "--oracle")
        assert code == 0

    def test_missing_file_is_io_error(self, capsys):
        code, out, err = run(capsys, "analyze", "missing.nfa")
        assert code == 2 and out == "" and "i/o error" in err

    def test_unknown_fixture(self, capsys):
        code, out, err = run(capsys, "analyze", "--fixture", "fig9")
        assert code == 1 and out == "" and "error" in err

    def test_bad_sep_size(self, capsys):
        code, _, err = run(capsys, "analyze", "--fixture", "sep:x")
        assert code == 1

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1

    def test_parse_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.nfa"
        path.write_text("trans a b c\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and "line 1" in err

    def test_non_utf8_automaton_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.nfa"
        path.write_bytes(b"initial a\ntrans a \xff b\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "UTF-8" in err


class TestRelationsCommands:
    def test_maxrel_matches_library(self, capsys):
        nfa = gen_fixture("wheeler3")
        code, out, _ = run(capsys, "maxrel", "--fixture", "wheeler3")
        assert code == 0
        assert out == json.dumps(relation_to_json_dict(
            max_colex_relation(nfa), nfa.names), indent=2) + "\n"

    def test_cfs_json(self, capsys):
        nfa = gen_fixture("fig2")
        code, out, _ = run(capsys, "cfs", "--fixture", "fig2")
        assert code == 0
        rel, _ = cfs_order(nfa)
        assert out == json.dumps(relation_to_json_dict(rel, nfa.names), indent=2) + "\n"

    def test_cfs_dot_colors_blocks(self, capsys):
        code, out, _ = run(capsys, "cfs", "--fixture", "fig2", "--format", "dot")
        assert code == 0
        colors = {line.split("fillcolor=")[1] for line in out.splitlines()
                  if "fillcolor=" in line}
        assert len(colors) == 4

    def test_width_of_max_relation(self, capsys):
        code, out, _ = run(capsys, "width", "--fixture", "sep:8",
                           "--rel", "maxrel")
        assert code == 0
        data = json.loads(out)
        assert data["width"] == 4
        assert len(data["antichain"]) == 4 and len(data["chains"]) == 4
        flat = sorted(x for c in data["chains"] for x in c)
        assert flat == sorted(f"u{i}" for i in range(1, 9))

    def test_width_default_is_cfs(self, capsys):
        code, out, _ = run(capsys, "width", "--fixture", "sep:8")
        assert json.loads(out)["width"] == 1


class TestQuotient:
    def test_text_round_trip(self, capsys):
        code, out, _ = run(capsys, "quotient", "--fixture", "fig2")
        assert code == 0
        q = parse_nfa(out)
        assert q.n_states == 4 and len(q.transitions) == 6

    def test_json_blocks(self, capsys):
        code, out, _ = run(capsys, "quotient", "--fixture", "fig2",
                           "--format", "json")
        data = json.loads(out)
        assert data["blocks"] == [["u0"], ["u1", "u2"], ["u3", "u4"], ["u5", "u6"]]
        assert "initial u0" in data["quotient"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "quotient", "--fixture", "fig2",
                           "--format", "dot")
        assert code == 0 and out.startswith("digraph")


    def test_above_the_dense_limit_quotient_works_and_maxrel_refuses(
            self, capsys, tmp_path):
        # Partition refinement has no dense storage, so a path one state
        # beyond the limit still gets its (discrete) quotient.
        n = MAX_DENSE_STATES + 1
        path = tmp_path / "path.nfa"
        path.write_text(Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)]).serialize())
        code, out, err = run(capsys, "maxrel", str(path))
        assert code == 1 and out == ""
        assert err == (f"error: the maximum co-lex relation is stored densely "
                       f"and is limited to {MAX_DENSE_STATES} states, got {n}\n")
        code, out, err = run(capsys, "quotient", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert len(json.loads(out)["blocks"]) == n


class TestCheck:
    def test_valid_wheeler_order(self, capsys, tmp_path):
        nfa = gen_fixture("wheeler3")
        rel = write_relation(tmp_path, nfa, [(0, 1), (0, 2), (1, 2)])
        code, out, _ = run(capsys, "check", "--fixture", "wheeler3",
                           "--relation", rel, "--kind", "wheeler-order")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_verdict_exits_4(self, capsys, tmp_path):
        nfa = gen_fixture("wheeler3")
        rel = write_relation(tmp_path, nfa, [(1, 0), (1, 2), (0, 2)])
        code, out, _ = run(capsys, "check", "--fixture", "wheeler3",
                           "--relation", rel, "--kind", "wheeler-order")
        assert code == 4
        data = json.loads(out)
        assert data["valid"] is False and data["violation"]["rule"]

    def test_preorder_kinds(self, capsys, tmp_path):
        nfa = gen_fixture("wheeler3")
        merged = write_relation(tmp_path, nfa, [(0, 1), (0, 2), (1, 2), (2, 1)])
        code, _, _ = run(capsys, "check", "--fixture", "wheeler3",
                         "--relation", merged, "--kind", "wheeler-preorder")
        assert code == 0
        strict = write_relation(tmp_path, nfa, [(0, 1), (0, 2), (1, 2)])
        code, _, _ = run(capsys, "check", "--fixture", "wheeler3",
                         "--relation", strict, "--kind", "wheeler-preorder")
        assert code == 4

    def test_colex_kinds(self, capsys, tmp_path):
        nfa = gen_fixture("wheeler3")
        maxrel = write_relation(tmp_path, nfa, [(0, 1), (0, 2), (1, 2), (2, 1)])
        code, _, _ = run(capsys, "check", "--fixture", "wheeler3",
                         "--relation", maxrel, "--kind", "colex-relation")
        assert code == 0
        code, _, _ = run(capsys, "check", "--fixture", "wheeler3",
                         "--relation", maxrel, "--kind", "colex-order")
        assert code == 4  # not antisymmetric

    def test_malformed_relation_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "check", "--fixture", "wheeler3",
                             "--relation", str(path), "--kind", "wheeler-order")
        assert code == 1 and out == ""

    def test_wrong_size_relation(self, capsys, tmp_path):
        nfa = gen_fixture("wheeler3")
        rel = write_relation(tmp_path, nfa, [(0, 1)], n=7)
        code, _, err = run(capsys, "check", "--fixture", "wheeler3",
                           "--relation", rel, "--kind", "colex-relation")
        assert code == 1

    def test_unknown_state_name(self, capsys, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"n": 3, "pairs": [["u1", "zz"]]}))
        code, _, _ = run(capsys, "check", "--fixture", "wheeler3",
                         "--relation", str(path), "--kind", "colex-relation")
        assert code == 1

    @pytest.mark.parametrize("text", [
        '{"n": 3, "pairs": 5}',
        '{"n": 3, "pairs": "u1u2"}',
        '{"n": 3, "pairs": [[["u1"], "u2"]]}',
        '{"n": 3, "pairs": [["u1", 2]]}',
    ])
    def test_mistyped_pairs_are_input_errors(self, capsys, tmp_path, text):
        path = tmp_path / "rel.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--fixture", "wheeler3",
                             "--relation", str(path), "--kind", "colex-relation")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_utf8_relation_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "rel.json"
        path.write_bytes(b"\xff")
        code, out, err = run(capsys, "check", "--fixture", "wheeler3",
                             "--relation", str(path), "--kind", "colex-relation")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "UTF-8" in err


class TestZeroTransitions:
    """A file holding only its initial state, through every command."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "one.nfa"
        path.write_text("initial q\n")
        return str(path)

    REPORT = {"n_states": 1, "classes_R": 1, "classes_FS": 1, "width_R": 1,
              "width_FS": 1, "superset_holds": True, "quasi_wheeler": True,
              "max_order_exists": True}
    DOT = ('digraph nfa {{\n  rankdir=LR;\n  node [shape=circle];\n'
           '  __start [shape=point];\n  n0 [label="q"{}];\n  __start -> n0;\n}}\n')

    @pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--oracle"]])
    def test_analyze_json(self, capsys, path, extra):
        code, out, err = run(capsys, "analyze", path, *extra)
        assert (code, err) == (0, "")
        assert out == json.dumps(self.REPORT, indent=2) + "\n"

    def test_analyze_text(self, capsys, path):
        code, out, _ = run(capsys, "analyze", path, "--format", "text")
        assert code == 0
        assert out == "".join(f"{k}: {json.dumps(v)}\n" for k, v in self.REPORT.items())

    @pytest.mark.parametrize("argv", [["cfs"], ["maxrel"]])
    def test_relations(self, capsys, path, argv):
        code, out, _ = run(capsys, *argv, path)
        assert code == 0
        assert out == '{\n  "n": 1,\n  "pairs": []\n}\n'

    def test_cfs_dot(self, capsys, path):
        code, out, _ = run(capsys, "cfs", path, "--format", "dot")
        assert code == 0
        assert out == self.DOT.format(', style=filled, fillcolor="#a6cee3"')

    @pytest.mark.parametrize("fmt,expected", [
        ("text", "initial q\n"),
        ("json", json.dumps({"blocks": [["q"]], "quotient": "initial q\n"},
                            indent=2) + "\n"),
        ("dot", DOT.format("")),
    ])
    def test_quotient(self, capsys, path, fmt, expected):
        code, out, _ = run(capsys, "quotient", path, "--format", fmt)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("rel", ["cfs", "maxrel"])
    def test_width(self, capsys, path, rel):
        code, out, _ = run(capsys, "width", path, "--rel", rel)
        assert code == 0
        assert json.loads(out) == {"width": 1, "antichain": ["q"], "chains": [["q"]]}

    @pytest.mark.parametrize("kind", ["colex-relation", "colex-order",
                                      "wheeler-order", "wheeler-preorder"])
    def test_check(self, capsys, path, tmp_path, kind):
        rel = tmp_path / "rel.json"
        rel.write_text('{"n": 1, "pairs": []}')
        code, out, _ = run(capsys, "check", path, "--relation", str(rel), "--kind", kind)
        assert code == 0
        assert json.loads(out) == {"kind": kind, "valid": True, "violation": None}


class TestParserReuse:
    def test_one_parser_per_process_gives_the_same_results(self, capsys, tmp_path):
        nfa = gen_fixture("fig2")
        rel = write_relation(tmp_path, nfa, max_colex_relation(nfa).pairs())
        calls = [
            ["maxrel", "--fixture", "fig2"],
            ["width", "--fixture", "fig2", "--rel", "bogus"],
            ["check", "--fixture", "fig2", "--relation", rel, "--kind", "colex-order"],
            ["width", "--fixture", "sep:7"],
            ["maxrel", "--fixture", "wheeler3"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 4, 0, 0]


class TestGen:
    def test_fixture_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "--fixture", "fig2")
        assert code == 0
        assert parse_nfa(out) == gen_fixture("fig2")

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--random", "--states", "8",
                         "--alphabet", "3", "--density", "0.3", "--seed", "5")
        _, out2, _ = run(capsys, "gen", "--random", "--states", "8",
                         "--alphabet", "3", "--density", "0.3", "--seed", "5")
        assert out1 == out2

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "gen", "--fixture", "wheeler3",
                           "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_requires_a_source(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.nfa"
        code, out, _ = run(capsys, "gen", "--fixture", "wheeler3",
                           "-o", str(target))
        assert code == 0 and out == ""
        assert parse_nfa(target.read_text()) == gen_fixture("wheeler3")


class TestSweep:
    EXPECTED = (
        "n,classes_R,classes_FS,width_R,width_FS,quasi_wheeler\n"
        "5,5,5,1,1,true\n"
        "6,6,5,2,1,true\n"
        "7,7,5,3,1,true\n"
        "8,8,5,4,1,true\n"
    )

    def test_family_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "sep",
                           "--from", "5", "--to", "8")
        assert code == 0 and out == self.EXPECTED

    def test_family_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "sep",
                           "--from", "5", "--to", "7", "--format", "json")
        rows = json.loads(out)
        assert [r["n_states"] for r in rows] == [5, 6, 7]
        assert all(r["superset_holds"] for r in rows)

    def test_family_needs_bounds(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "sep")
        assert code == 1

    def test_family_bad_lower_bound(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "sep",
                           "--from", "4", "--to", "6")
        assert code == 1

    def test_reversed_bounds(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "sep",
                         "--from", "8", "--to", "6")
        assert code == 1

    def test_random_with_oracle(self, capsys):
        code, out, _ = run(capsys, "sweep", "--random", "--count", "6",
                           "--states", "5", "--alphabet", "2",
                           "--density", "0.4", "--seed", "1", "--oracle")
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_mutually_exclusive_modes(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "sep", "--random",
                         "--from", "5", "--to", "6")
        assert code == 1


class TestUsageErrors:
    def test_bad_choice_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--fixture", "fig2", "--format", "yaml"])
        assert err.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1
