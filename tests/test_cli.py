"""Command line behaviour: outputs, exit codes, determinism."""

import json
import random
import re

import pytest

from nfaindex import (
    InternalInvariantViolation,
    Nfa,
    QuotientMap,
    build_quotient,
    cfs_order,
    coarsest_fs_partition,
    gen_fixture,
    gen_random,
    gen_separation_family,
    max_colex_relation,
    parse_nfa,
    relation_to_json_dict,
    to_dot,
    width,
)
from nfaindex import cli, colex, relations
from nfaindex.automaton import MAX_RANDOM_CANDIDATES, MAX_SEPARATION_STATES
from nfaindex.cli import _build_parser, main
from nfaindex.relations import (
    MAX_DENSE_STATES,
    Relation,
    relation_from_json_dict,
    relation_from_plain_json,
    relation_to_json_text,
)


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

    @pytest.mark.parametrize("fixture", ["fig2", "sep:8", "wheeler3"])
    def test_oracle_checks_the_relation_from_the_quotient(self, capsys, monkeypatch, fixture):
        # The relation analyze prints is derived from the quotient's order
        # when the partition merges states: the oracle compares that one too.
        seen = []

        def wrong(nfa):
            seen.append(nfa.n_states)
            return Relation(nfa.n_states)

        monkeypatch.setattr(cli, "max_colex_relation_from_quotient", wrong)
        code, out, err = run(capsys, "analyze", "--fixture", fixture, "--oracle")
        assert code == 3 and out == ""
        assert err == ("internal invariant violation: maximum co-lex relation "
                       "from the quotient disagrees with exhaustive search\n")
        assert len(seen) == 1

    def test_oracle_skips_the_quotient_route_of_a_discrete_partition(
            self, capsys, monkeypatch, tmp_path):
        def never(nfa):
            raise AssertionError("quotient route on a discrete partition")

        monkeypatch.setattr(cli, "max_colex_relation_from_quotient", never)
        path = tmp_path / "path.nfa"
        path.write_text(Nfa(6, 0, [(i, "a", i + 1) for i in range(5)]).serialize())
        code, out, err = run(capsys, "analyze", str(path), "--oracle")
        assert code == 0 and err == ""
        assert json.loads(out)["classes_FS"] == 6

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

    @pytest.mark.parametrize("rel", ["maxrel", "cfs"])
    def test_width_checks_transitivity_once(self, capsys, products, rel):
        code, out, _ = run(capsys, "width", "--fixture", "fig2", "--rel", rel)
        assert code == 0
        # max_colex_relation's own check, on fig2 or on its 4-state quotient,
        # whose width is taken before it is spliced into the blocks
        assert products == ([7] if rel == "maxrel" else [4])
        fig2 = gen_fixture("fig2")
        measured = max_colex_relation(fig2) if rel == "maxrel" else cfs_order(fig2)[0]
        assert json.loads(out) == width(measured).to_json_dict(fig2.names)


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

    def test_json_skips_the_pure_python_encoder(self, capsys, tmp_path, monkeypatch):
        # json.dumps(..., indent=2) runs json.encoder._make_iterencode; the
        # quotient's JSON is laid out directly and must never reach it.
        cases = []
        for text in (comb_text(4, 30), "initial s\ntrans s a x\ntrans s a y\ntrans s b x+y\n",
                     Nfa(50, 0, [(i, "a", i + 1) for i in range(49)]).serialize()):
            path = tmp_path / f"{len(cases)}.nfa"
            path.write_text(text)
            nfa = parse_nfa(text)
            qm = build_quotient(nfa, coarsest_fs_partition(nfa))
            expected = json.dumps({"blocks": qm.partition.blocks_by_name(nfa.names),
                                   "quotient": qm.quotient.serialize()}, indent=2) + "\n"
            cases.append((str(path), expected))

        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")
        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        for path, expected in cases:
            assert run(capsys, "quotient", path, "--format", "json") == (0, expected, "")


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


def comb_text(k, length):
    """k chains of ``length`` states off s0 with one label pattern; the
    coarsest forward-stable partition has length + 1 blocks."""
    lines = ["initial s0"]
    for i in range(k):
        prev = "s0"
        for j in range(length):
            lines.append(f"trans {prev} {'ab'[j % 2]} c{i}_{j}")
            prev = f"c{i}_{j}"
    return "\n".join(lines) + "\n"


class TestDenseLimit:
    """Every n*n relation built from input is refused above the limit,
    before anything dense is allocated."""

    @pytest.fixture(scope="class")
    def comb_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("comb") / "comb.nfa"
        path.write_text(comb_text(30, 3000))
        return str(path)

    def test_forward_stable_order(self, capsys, comb_path, no_dense_allocation):
        # cfs prints the lifted preorder's n*n pairs; width --rel cfs does
        # not go through cfs_order and is limited by the quotient's size.
        code, out, err = run(capsys, "cfs", comb_path)
        assert code == 1 and out == ""
        assert err == (f"error: the forward-stable preorder is stored densely "
                       f"and is limited to {MAX_DENSE_STATES} states, got 90001\n")

    def test_analyze(self, capsys, comb_path, no_dense_allocation):
        # The quotient route refines the partition before any relation is
        # built: the limit is checked first.
        code, out, err = run(capsys, "analyze", comb_path)
        assert code == 1 and out == ""
        assert err == (f"error: the maximum co-lex relation is stored densely "
                       f"and is limited to {MAX_DENSE_STATES} states, got 90001\n")

    def test_width_of_forward_stable_order_is_taken_on_the_quotient(
            self, capsys, tmp_path):
        # 50 chains of 100 states: 5001 states, a 101-state quotient whose
        # order lists the depths entered by a, then those entered by b.
        path = tmp_path / "comb.nfa"
        path.write_text(comb_text(50, 100))
        code, out, err = run(capsys, "width", str(path), "--rel", "cfs")
        assert code == 0 and err == ""
        depths = [*range(0, 100, 2), *range(1, 100, 2)]
        assert json.loads(out) == {
            "width": 1,
            "antichain": ["c0_99"],
            "chains": [["s0"] + [f"c{i}_{j}" for j in depths for i in range(50)]],
        }

    def test_width_of_forward_stable_order_above_the_limit(
            self, capsys, tmp_path, no_dense_relation):
        # A unary path has a discrete partition: its quotient is as large.
        n = MAX_DENSE_STATES + 1
        path = tmp_path / "path.nfa"
        path.write_text(Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)]).serialize())
        code, out, err = run(capsys, "width", str(path), "--rel", "cfs")
        assert code == 1 and out == ""
        assert err == (f"error: the co-lex order of the forward-stable quotient is "
                       f"stored densely and is limited to {MAX_DENSE_STATES} states, "
                       f"got {n}\n")

    def test_partition_dot_needs_no_dense_storage(self, capsys, tmp_path):
        # Two chains of 3000 states: 6001 states, a 3001-state quotient.
        path = tmp_path / "comb.nfa"
        path.write_text(comb_text(2, 3000))
        code, out, err = run(capsys, "cfs", str(path), "--format", "dot")
        assert code == 0 and err == ""
        nfa = parse_nfa(path.read_text())
        assert nfa.n_states > MAX_DENSE_STATES
        assert out == to_dot(nfa, coarsest_fs_partition(nfa))

    def test_relation_file(self, capsys, tmp_path, comb_path, no_dense_allocation,
                           monkeypatch):
        # The limit comes before the relation file is opened: a valid, a
        # malformed and a missing file all give its error.
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy, raising=False)
        (tmp_path / "rel.json").write_text('{"n": 90001, "pairs": []}')
        (tmp_path / "bad.json").write_text("{not json")
        for name in ("rel.json", "bad.json", "missing.json"):
            rel = str(tmp_path / name)
            code, out, err = run(capsys, "check", comb_path, "--relation", rel,
                                 "--kind", "colex-relation")
            assert code == 1 and out == ""
            assert err == (f"error: the relation is stored densely "
                           f"and is limited to {MAX_DENSE_STATES} states, got 90001\n")
            assert opened == [comb_path]
            opened.clear()


def mutated(rng, doc):
    """``doc`` with one byte flipped, deleted or inserted."""
    data = bytearray(doc.encode("utf-8"))
    i = rng.randrange(len(data) + 1)
    op = rng.randrange(3) if i < len(data) else 2
    if op == 0:
        data[i] = rng.choice(b'"\\[]{},: \nstq019')
    elif op == 1:
        del data[i]
    else:
        data.insert(i, rng.choice(b'"\\[]{},: \nstq019'))
    return bytes(data)


class TestPlainRelationReader:
    """check reads the two plain relation layouts without json; any other
    text goes through json as before, with the same output."""

    # Short names, names of 8, 9 and 10 bytes, non-ASCII ones, a name that is
    # a prefix of another, and names that JSON escapes.
    NAMES = ["s", "s1", "s12", "t", "abcdefgh", "abcdefghi", "abcdefghij", "\u00e9",
             "\u00e9\u00e9\u00e9\u00e9", "\u00e9\u00e9\u00e9\u00e9x", 'x"y', "a\\b", "t1", "\u20ac",
             "\\u0074"]

    @pytest.fixture(scope="class")
    def nfa_path(self, tmp_path_factory):
        nfa = Nfa(len(self.NAMES), 0, [(0, "ab"[i % 2], i) for i in range(1, len(self.NAMES))],
                  names=self.NAMES)
        path = tmp_path_factory.mktemp("plain") / "star.nfa"
        path.write_text(nfa.serialize(), encoding="utf-8")
        return str(path)

    def documents(self, rng):
        n = len(self.NAMES)
        unescaped = [nm for nm in self.NAMES if nm.isalnum()]
        short = [nm for nm in unescaped if len(nm.encode()) <= 8]
        for r in range(12):
            pool = (self.NAMES, short, unescaped)[r % 3]
            pairs = [[rng.choice(pool), rng.choice(pool)] for _ in range(rng.randrange(1, 30))]
            obj = {"n": n, "pairs": pairs}
            plain = [json.dumps(obj), json.dumps(obj, ensure_ascii=False),
                     json.dumps(obj, indent=2), json.dumps(obj, indent=2, ensure_ascii=False)]
            for doc in plain:
                yield doc
                yield doc + "\n"
                yield doc.replace("\n", "\r\n")
                yield doc + "\n\n"
                yield " " + doc
                yield doc.replace(", ", ",  ", 1)
                yield doc.replace('"t', '"\\u0074')
                yield re.sub(r'(\[\s*"[^"]*)"', '\\1\0"', doc, count=1)  # a raw NUL
                for _ in range(4):
                    yield mutated(rng, doc)
            yield json.dumps({"n": n, "pairs": pairs + pairs[:2]})
            yield json.dumps({"n": n + 1, "pairs": pairs})
            yield json.dumps({"n": n, "pairs": []})
            yield json.dumps({"n": n, "pairs": []}, indent=2) + "\n"
            yield json.dumps({"pairs": pairs, "n": n})
            yield json.dumps({"n": n, "pairs": pairs + [["s", "nosuch"]]})
            yield json.dumps({"n": n, "pairs": pairs + [["s", "s123456789"]]})

    def test_same_relation_or_the_json_path(self, capsys, tmp_path, nfa_path, monkeypatch):
        with open(nfa_path, encoding="utf-8") as fh:
            nfa = parse_nfa(fh.read())
        rng = random.Random(3)
        read_plain = 0
        for k, doc in enumerate(self.documents(rng)):
            path = tmp_path / f"rel{k}.json"
            path.write_bytes(doc if isinstance(doc, bytes) else doc.encode("utf-8"))
            argv = ["check", nfa_path, "--relation", str(path), "--kind", "colex-relation"]
            got = run(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "relation_from_plain_json", lambda text, nfa: None)
                assert run(capsys, *argv) == got, doc
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            rel = relation_from_plain_json(text, nfa)
            if rel is not None:
                read_plain += 1
                assert rel == relation_from_json_dict(json.loads(text), nfa), doc
        assert read_plain >= 25

    @pytest.mark.parametrize("source", ["trie", "random"])
    def test_program_output_skips_json(self, capsys, tmp_path, monkeypatch, source):
        if source == "trie":
            words = {"".join(random.Random(i).choices("ab", k=1 + i % 7)) for i in range(300)}
            prefixes = sorted({w[:k] for w in words for k in range(1, len(w) + 1)})
            node = {"": "t0", **{p: f"t{i + 1}" for i, p in enumerate(prefixes)}}
            text = "initial t0\n" + "".join(f"trans {node[p[:-1]]} {p[-1]} {node[p]}\n"
                                            for p in prefixes)
        else:
            text = gen_random(60, 2, 0.05, 4).serialize()
        path = tmp_path / "a.nfa"
        path.write_text(text)
        nfa = parse_nfa(text)
        rel = max_colex_relation(nfa)
        documents = [relation_to_json_text(rel, nfa.names) + "\n",
                     json.dumps(relation_to_json_dict(rel, nfa.names)),
                     json.dumps(relation_to_json_dict(cfs_order(nfa)[0], nfa.names))]
        assert run(capsys, "maxrel", str(path)) == (0, documents[0], "")

        def no_json(*args, **kwargs):
            raise AssertionError("the relation file went through json")

        monkeypatch.setattr(json, "loads", no_json)
        for k, doc in enumerate(documents):
            rel_path = tmp_path / f"rel{k}.json"
            rel_path.write_text(doc)
            code, out, err = run(capsys, "check", str(path), "--relation", str(rel_path),
                                 "--kind", "colex-relation")
            assert code == 0 and err == "" and '"valid": true' in out


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

    # (automaton, relation text): a fixture name, or the text of a file.
    # An "n" that equals the state count but is not an integer is rejected:
    # true == 1 for the one state of "initial q", 7.0 == 7 for fig2.
    BAD_RELATIONS = [
        ("wheeler3", '{"n": 3, "pairs": 5}'),
        ("wheeler3", '{"n": 3, "pairs": "u1u2"}'),
        ("wheeler3", '{"n": 3, "pairs": [[["u1"], "u2"]]}'),
        ("wheeler3", '{"n": 3, "pairs": [["u1", 2]]}'),
        ("initial q\n", '{"n": true, "pairs": []}'),
        ("fig2", '{"n": 7.0, "pairs": []}'),
    ]

    @pytest.mark.parametrize("automaton, text", BAD_RELATIONS,
                             ids=[text for _, text in BAD_RELATIONS])
    def test_mistyped_pairs_are_input_errors(self, capsys, tmp_path, automaton, text):
        source = ["--fixture", automaton]
        if "\n" in automaton:
            source = [str(tmp_path / "a.nfa")]
            (tmp_path / "a.nfa").write_text(automaton)
        path = tmp_path / "rel.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", *source,
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

    def test_deeply_nested_relation_is_input_error(self, capsys, tmp_path):
        # The JSON decoder recurses once per level and gives up near 1000.
        path = tmp_path / "rel.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "check", "--fixture", "wheeler3",
                             "--relation", str(path), "--kind", "colex-relation")
        assert code == 1 and out == ""
        assert err == "error: relation file is nested too deeply to read\n"

    @pytest.mark.parametrize("text", [
        '{"n": 1' + "0" * 5000 + ', "pairs": []}',
        '{"n": 1, "pairs": [["q", 1' + "0" * 4300 + ']]}',
    ], ids=["n", "pair"])
    def test_over_long_integer_in_relation_is_input_error(self, capsys, tmp_path, text):
        # Python's int() refuses to read more than 4300 decimal digits.
        (tmp_path / "q.nfa").write_text("initial q\n")
        path = tmp_path / "rel.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(tmp_path / "q.nfa"),
                             "--relation", str(path), "--kind", "colex-relation")
        assert code == 1 and out == ""
        assert err == "error: relation file holds an integer too long to read\n"


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


class TestJoinedNameCollision:
    """Blocks {x, y} and {x+y} would both be named x+y in the quotient."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "xy.nfa"
        path.write_text("initial s\ntrans s a x\ntrans s a y\ntrans s b x+y\n")
        return str(path)

    @pytest.mark.parametrize("command", ["quotient", "analyze", "cfs", "width"])
    def test_commands_succeed(self, capsys, path, command):
        code, _, err = run(capsys, command, path)
        assert (code, err) == (0, "")

    def test_check_wheeler_preorder(self, capsys, path, tmp_path):
        nfa = parse_nfa((tmp_path / "xy.nfa").read_text())
        rel = write_relation(tmp_path, nfa, cfs_order(nfa)[0].pairs())
        code, out, err = run(capsys, "check", path, "--relation", rel,
                             "--kind", "wheeler-preorder")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"kind": "wheeler-preorder", "valid": True,
                                   "violation": None}


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

    @pytest.mark.parametrize("argv", [
        ["gen", "--random", "--states", "200000"],
        ["sweep", "--random", "--states", "200000", "--count", "1"],
    ])
    def test_random_generation_over_the_limit_is_refused(self, capsys, argv):
        # 200000^2 * 2 candidate draws would take hours; refused before the first.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("error: random generation draws states^2 * alphabet_size candidate "
                       f"transitions and is limited to {MAX_RANDOM_CANDIDATES}, "
                       "got 80000000000\n")

    @pytest.mark.parametrize("command", [["gen"], ["quotient", "--format", "json"]])
    def test_separation_family_over_the_limit_is_refused(self, capsys, command):
        # Its name list alone would exhaust memory; refused before it is built.
        code, out, err = run(capsys, *command, "--fixture", "sep:99999999999999999999")
        assert (code, out) == (1, "")
        assert err == (f"error: separation family is limited to {MAX_SEPARATION_STATES} "
                       "states, got 99999999999999999999\n")

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

    @pytest.mark.parametrize("argv", [
        ("--family", "sep", "--from", "5", "--to", "50"),
        ("--random", "--count", "40", "--states", "6", "--seed", "1")])
    def test_instances_are_built_one_at_a_time(self, capsys, monkeypatch, argv):
        # The first analysis fails, so only the first instance may be built.
        built = []
        for name in ("gen_separation_family", "gen_random"):
            def counted(*args, _real=getattr(cli, name)):
                built.append(args)
                return _real(*args)
            monkeypatch.setattr(cli, name, counted)

        def fail(nfa):
            raise InternalInvariantViolation("first analysis")
        monkeypatch.setattr(cli, "compare_report", fail)
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 3 and out == ""
        assert err == "internal invariant violation: first analysis\n"
        assert len(built) == 1

    @pytest.mark.parametrize("lo,hi,first", [
        (5, 5000, MAX_DENSE_STATES + 1), (MAX_DENSE_STATES + 1, 10**6, MAX_DENSE_STATES + 1),
        (5000, 6000, 5000)])
    def test_range_over_the_dense_limit_fails_before_building(
            self, capsys, monkeypatch, lo, hi, first):
        def never(n):
            raise AssertionError(f"built sep:{n}")
        monkeypatch.setattr(cli, "gen_separation_family", never)
        code, out, err = run(capsys, "sweep", "--family", "sep",
                             "--from", str(lo), "--to", str(hi))
        assert code == 1 and out == ""
        assert err == (f"error: the maximum co-lex relation is stored densely "
                       f"and is limited to {MAX_DENSE_STATES} states, got {first}\n")

    def test_small_lower_bound_is_named_before_the_dense_limit(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "sep", "--from", "4", "--to", "5000")
        assert (code, out, err) == (1, "", "error: separation family needs n > 4, got 4\n")

    def test_unknown_family_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--family", "xyz", "--from", "5", "--to", "6"])
        assert err.value.code == 1
        assert "invalid choice" in capsys.readouterr().err


class TestUsageErrors:
    def test_bad_choice_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--fixture", "fig2", "--format", "yaml"])
        assert err.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


def trie_text(words):
    """The trie of ``words``: node r<prefix> for every prefix."""
    lines, nodes = ["initial r"], {""}
    for word in words:
        for i in range(1, len(word) + 1):
            if word[:i] not in nodes:
                nodes.add(word[:i])
                lines.append(f"trans r{word[:i - 1]} {word[i - 1]} r{word[:i]}")
    return "\n".join(lines) + "\n"


def copying_build_quotient(copies):
    """build_quotient, but a discrete partition's quotient is a freshly
    built and validated copy of the automaton, as every quotient once was;
    each copy is appended to ``copies``."""
    def build(nfa, partition):
        qm = build_quotient(nfa, partition)
        if qm.quotient is not nfa:
            return qm
        copies.append(Nfa(nfa.n_states, nfa.initial, list(nfa.transitions),
                          names=list(nfa.names)))
        return QuotientMap(source=nfa, partition=partition, quotient=copies[-1])
    return build


class TestDiscreteQuotientIsTheAutomaton:
    """Every command that builds a quotient prints the same bytes and exits
    with the same code whether a discrete partition's quotient is the
    automaton itself or a copy of it."""

    AUTOMATA = {
        "path": Nfa(40, 0, [(i, "a", i + 1) for i in range(39)]).serialize(),
        "trie": trie_text(["abba", "abc", "bca", "cab", "cc", "acb", "bab"]),
        "trie-ab": trie_text(["aab", "abab", "bba", "ba", "bbb"]),
        "sep9": gen_separation_family(9).serialize(),
        "comb": comb_text(3, 6),
        "fig2": gen_fixture("fig2").serialize(),
        "xy": "initial s\ntrans s a x\ntrans s a y\ntrans s b x+y\n",
        # Discrete, and then two that are not.
        **{f"random{seed}": gen_random(12, 2, 0.15, seed).serialize() for seed in range(4)},
        **{f"random{seed}": gen_random(12, 2, 0.12, seed).serialize() for seed in (8, 10)},
    }

    @staticmethod
    def checked_relations(nfa):
        """The forward-stable preorder and three corruptions of it: one pair
        dropped, every pair reversed, and one pair added."""
        pairs = cfs_order(nfa)[0].pairs()
        yield pairs
        yield pairs[1:]
        yield [(v, u) for (u, v) in pairs]
        yield sorted({*pairs, (nfa.n_states - 1, nfa.n_states - 2)})

    def outcomes(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.nfa"
        path.write_text(self.AUTOMATA[name])
        nfa = parse_nfa(path.read_text())
        calls = [[*argv, str(path)] for argv in (
            ["cfs"], ["width", "--rel", "cfs"], ["analyze"], ["analyze", "--format", "text"],
            ["quotient"], ["quotient", "--format", "json"], ["quotient", "--format", "dot"])]
        for i, pairs in enumerate(self.checked_relations(nfa)):
            rel = tmp_path / f"{name}-{i}.json"
            rel.write_text(json.dumps(relation_to_json_dict(Relation(nfa.n_states, pairs),
                                                            nfa.names)))
            calls.append(["check", str(path), "--relation", str(rel),
                          "--kind", "wheeler-preorder"])
        return [run(capsys, *argv) for argv in calls]

    @pytest.mark.parametrize("name", sorted(AUTOMATA))
    def test_same_bytes_and_exit_codes_as_a_copy(self, capsys, tmp_path, monkeypatch, name):
        got = self.outcomes(capsys, tmp_path, name)
        copies = []
        for module in (cli, colex, relations):
            monkeypatch.setattr(module, "build_quotient", copying_build_quotient(copies))
        assert got == self.outcomes(capsys, tmp_path, name)
        nfa = parse_nfa(self.AUTOMATA[name])
        assert bool(copies) == (coarsest_fs_partition(nfa).n_blocks == nfa.n_states)
        assert {code for code, _, _ in got} <= {0, 4}

    def test_both_kinds_of_partition_and_verdict_are_covered(self, capsys, tmp_path):
        discrete = [coarsest_fs_partition(nfa).n_blocks == nfa.n_states
                    for nfa in map(parse_nfa, self.AUTOMATA.values())]
        assert 3 <= sum(discrete) <= len(discrete) - 3
        codes = [code for code, _, _ in self.outcomes(capsys, tmp_path, "trie")]
        assert codes.count(0) == 8 and codes.count(4) == 3
