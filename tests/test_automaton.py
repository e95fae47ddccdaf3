"""Data model: parsing, validation, label order, generators, DOT."""

import hashlib
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    HASH,
    InvalidParameter,
    Nfa,
    NfaSyntaxError,
    UnknownFixture,
    UnknownLabel,
    ValidationError,
    delta_string,
    gen_fixture,
    gen_random,
    gen_separation_family,
    label_key,
    lambda_leq,
    parse_nfa,
    to_dot,
)
from nfaindex import automaton

FIG2_TEXT = """\
# seven states over {a, b}
initial u0
trans u0 a u1
trans u0 a u2
trans u0 a u3
trans u0 a u4
trans u1 a u1
trans u2 a u2
trans u2 b u5   # inline comment
trans u2 b u6
trans u3 b u5
trans u4 b u6
trans u5 b u6
trans u6 b u5
"""


def names_of(nfa):
    return {(nfa.names[u], a, nfa.names[v]) for (u, a, v) in nfa.transitions}


class TestParse:
    def test_parse_matches_fixture(self, fig2):
        parsed = parse_nfa(FIG2_TEXT)
        assert parsed == fig2

    def test_ids_follow_first_appearance(self):
        nfa = parse_nfa("initial s\ntrans s b y\ntrans s a x\ntrans x a y\n")
        assert nfa.names == ("s", "y", "x")
        assert nfa.initial == 0

    def test_round_trip_preserves_names_and_edges(self, fig2):
        again = parse_nfa(fig2.serialize())
        assert names_of(again) == names_of(fig2)
        assert again.names[again.initial] == fig2.names[fig2.initial]
        assert again.alphabet == fig2.alphabet

    def test_serialize_is_stable_under_reparse(self, fig2):
        text = fig2.serialize()
        assert parse_nfa(text).serialize() == text

    def test_blank_lines_and_comments_ignored(self):
        nfa = parse_nfa("\n# lead\n\ninitial s # trailing\n\ntrans s a t\n")
        assert nfa.n_states == 2

    @pytest.mark.parametrize("text,line", [
        ("trans a b c\n", 1),
        ("initial s\ninitial t\n", 2),
        ("initial s\ntrans s a\n", 2),
        ("initial s\ntrans s a t u\n", 2),
        ("initial s t\n", 1),
        ("initial s\nfinal t\n", 2),
    ])
    def test_syntax_errors_carry_line_numbers(self, text, line):
        with pytest.raises(NfaSyntaxError) as err:
            parse_nfa(text)
        assert err.value.line == line

    def test_missing_initial(self):
        with pytest.raises(NfaSyntaxError):
            parse_nfa("# only a comment\n")

    def test_incoming_edge_on_initial_rejected(self):
        with pytest.raises(ValidationError, match="initial"):
            parse_nfa("initial s\ntrans s a t\ntrans t a s\n")

    def test_unreachable_state_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            parse_nfa("initial s\ntrans s a t\ntrans x a t\n")

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_nfa("initial s\ntrans s a t\ntrans s a t\n")


class TestValidation:
    def test_unused_alphabet_label(self):
        with pytest.raises(ValidationError, match="unused"):
            Nfa(2, 0, [(0, "a", 1)], alphabet=["a", "b"])

    def test_label_outside_alphabet(self):
        with pytest.raises(ValidationError, match="alphabet"):
            Nfa(2, 0, [(0, "a", 1)], alphabet=["b"])

    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Nfa(2, 0, [(0, "a", 1)], names=["s", "s"])

    def test_first_repeated_name_among_many(self):
        # One pass names the first name that repeats an earlier one.
        names = [f"s{i}" for i in range(60001)]
        names[59999], names[60000] = "s9", "s5"
        with pytest.raises(ValidationError) as exc:
            Nfa(len(names), 0, [], names=names)
        assert str(exc.value) == "duplicate state name 's9'"

    def test_hash_not_allowed_in_tokens(self):
        with pytest.raises(ValidationError):
            Nfa(2, 0, [(0, "#", 1)])
        with pytest.raises(ValidationError):
            Nfa(2, 0, [(0, "a", 1)], names=["s", "t#u"])

    def test_space_is_the_only_printable_whitespace(self):
        # The token check looks for " " alone once a token is printable.
        found = [c for c in map(chr, range(sys.maxunicode + 1))
                 if c.isprintable() and c.isspace()]
        assert found == [" "]

    @pytest.mark.parametrize("tok", ["a b", "a\tb", "a\u00a0b", "a\u2003b", "a\u3000b"])
    def test_whitespace_not_allowed_in_tokens(self, tok):
        with pytest.raises(ValidationError):
            Nfa(2, 0, [(0, tok, 1)])
        with pytest.raises(ValidationError):
            Nfa(2, 0, [(0, "a", 1)], names=["s", tok])

    def test_out_of_range_transition(self):
        with pytest.raises(ValidationError, match="range"):
            Nfa(2, 0, [(0, "a", 5)])

    def test_single_state_automaton_is_valid(self):
        nfa = Nfa(1, 0, [])
        assert nfa.alphabet == ()
        assert nfa.lambda_set(0) == frozenset((HASH,))


TRIPLE = "expected (state id, label, state id)"


class TestValidationMessages:
    """The exact text of the first error, for inputs that break several
    rules or break one rule several times."""

    @pytest.mark.parametrize("text, message", [
        # Edges into s listed against label order and source order: the
        # lowest label wins, then the lowest source id (w=1, x=2, y=3).
        ("initial s\ntrans s a w\ntrans s a x\ntrans s b y\n"
         "trans y b s\ntrans w b s\ntrans y a s\ntrans x a s\n",
         "initial state has incoming transition x a s"),
        # "B" sorts below "a" bytewise.
        ("initial s\ntrans s a t\ntrans t a s\ntrans t B s\n",
         "initial state has incoming transition t B s"),
        # Edges into the initial state are reported before unreachable states.
        ("initial s\ntrans s a t\ntrans x a t\ntrans t a s\n",
         "initial state has incoming transition t a s"),
        ("initial s\ntrans s a t\ntrans s a u\ntrans s a t\n",
         "duplicate transition s a t"),
        ("initial s\ntrans s a t\ntrans y b x\ntrans x a t\n",
         "state 'y' is unreachable"),
        # The unreachable state is the source of the edge into s.
        ("initial s\ntrans s a t\ntrans x a s\n",
         "initial state has incoming transition x a s"),
        # A duplicate listed before an unreachable state.
        ("initial s\ntrans s a t\ntrans s a t\ntrans x a t\n",
         "duplicate transition s a t"),
        ("initial s\ntrans s a \x07t\n",
         "invalid state name '\\x07t': expected a printable token without whitespace or '#'"),
        ("initial s\ntrans s \x07 t\n",
         "invalid label '\\x07': expected a printable token without whitespace or '#'"),
        # A bad label before a duplicate, and after one.
        ("initial s\ntrans s \x07 t\ntrans s a t\ntrans s a t\n",
         "invalid label '\\x07': expected a printable token without whitespace or '#'"),
        ("initial s\ntrans s a t\ntrans s a t\ntrans s \x07 t\n", "duplicate transition s a t"),
        # A cycle no path from s enters, with CRLF line ends, and a self-loop.
        ("initial s\r\ntrans s a t\r\ntrans u a v\r\ntrans v a u\r\n",
         "state 'u' is unreachable"),
        ("initial s\ntrans s a t\ntrans u a u\n", "state 'u' is unreachable"),
        # A lone surrogate is checked before the labels are sorted by UTF-8.
        ("initial s\ntrans s \ud800 t\n",
         "invalid label '\\ud800': expected a printable token without whitespace or '#'"),
        ("initial s\ntrans s a t\ntrans s a t\ntrans s \ud800 t\n",
         "duplicate transition s a t"),
    ])
    def test_parsed(self, text, message):
        with pytest.raises(ValidationError) as err:
            parse_nfa(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("transitions, alphabet, message", [
        ([(0, "a", 1), (1, "a", 5), (0, "a", 1)], None,
         "transition (1, 'a', 5) out of range"),
        # The checks run edge by edge, so a duplicate listed first wins.
        ([(0, "a", 1), (0, "a", 1), (1, "a", 5)], None,
         "duplicate transition q0 a q1"),
        ([(0, "a", 1), (0, "a b", 7)], None,
         "transition (0, 'a b', 7) out of range"),
        ([(0, "a", 1), (0, "a b", 1)], None,
         "invalid label 'a b': expected a printable token without whitespace or '#'"),
        ([(0, "c", 1), (1, "b", 1), (0, "a", 1)], ["c"],
         "label 'a' used but not in the alphabet"),
        ([(0, "b", 1)], ["c", "b", "a"], "label 'a' declared but unused"),
        ([(0, "a", 1), (1, "a", 0)], ["a", "b"], "label 'b' declared but unused"),
        # A bad label after a duplicate, and before one.
        ([(0, "a", 1), (0, "a", 1), (0, "a b", 1)], None,
         "duplicate transition q0 a q1"),
        ([(0, "a", 1), (0, "a b", 1), (0, "a", 1)], None,
         "invalid label 'a b': expected a printable token without whitespace or '#'"),
        # numpy integer ids take the per-edge path.
        ([(np.intp(0), "a", np.intp(1)), (np.intp(1), "a", np.intp(5))], None,
         "transition (1, 'a', 5) out of range"),
        ([(np.intp(0), "a", np.intp(1)), (np.int32(0), "a", np.int32(1))], None,
         "duplicate transition q0 a q1"),
        # An edge into the initial state, from a state it cannot reach.
        ([(1, "a", 0)], None, "initial state has incoming transition q1 a q0"),
        # Non-integer ids are not truncated, and malformed items are named.
        ([(0, "a", 1.5)], None, f"malformed transition (0, 'a', 1.5): {TRIPLE}"),
        ([(0, "a")], None, f"malformed transition (0, 'a'): {TRIPLE}"),
        ([(0, 1, 1)], None, f"malformed transition (0, 1, 1): {TRIPLE}"),
        ([("0", "a", 1)], None, f"malformed transition ('0', 'a', 1): {TRIPLE}"),
        ([(0, "a", 1), 7], None, f"malformed transition 7: {TRIPLE}"),
        # The first bad edge in listed order is the one reported.
        ([(0, "a", 1), (0, "a", 1.0), (0, "a b", 1)], None,
         f"malformed transition (0, 'a', 1.0): {TRIPLE}"),
        ([(0, "a", 1), (0, "a", 5), (0.0, "a", 1)], None,
         "transition (0, 'a', 5) out of range"),
        ([(0, "a", 1), (0, "a", 1), (0, None, 1)], None, "duplicate transition q0 a q1"),
        # A lone surrogate is checked before the labels are sorted by UTF-8.
        ([(0, "\ud800", 1)], None,
         "invalid label '\\ud800': expected a printable token without whitespace or '#'"),
    ])
    def test_constructed(self, transitions, alphabet, message):
        with pytest.raises(ValidationError) as err:
            Nfa(2, 0, transitions, alphabet=alphabet)
        assert str(err.value) == message

    @pytest.mark.parametrize("initial", [0.5, 0.0, "0", None, True, False])
    def test_initial_must_be_an_integer_id(self, initial):
        with pytest.raises(ValidationError) as err:
            Nfa(2, initial, [(0, "a", 1)])
        assert str(err.value) == f"initial state {initial!r} is not an integer id"

    @pytest.mark.parametrize("initial", [np.int64(0)])
    def test_integer_like_initial_is_stored_as_int(self, initial):
        nfa = Nfa(2, initial, [(0, "a", 1)])
        assert nfa == Nfa(2, 0, [(0, "a", 1)]) and type(nfa.initial) is int

    @pytest.mark.parametrize("edge", [
        (np.int64(0), "a", np.int64(1)), [0, "a", 1], (False, "a", True),
    ])
    def test_ids_are_stored_as_int(self, edge):
        nfa = Nfa(2, 0, [edge])
        assert nfa == Nfa(2, 0, [(0, "a", 1)])
        assert [type(x) for x in nfa.transitions[0]] == [int, str, int]

    @pytest.mark.parametrize("n_states, message", [
        (2.5, "number of states 2.5 is not an integer"),
        ("2", "number of states '2' is not an integer"),
        (True, "number of states True is not an integer"),
        (np.float64(2), "number of states np.float64(2.0) is not an integer"),
        (np.True_, "number of states np.True_ is not an integer"),
        (None, "number of states None is not an integer"),
        (-1, "an automaton needs at least one state"),
    ])
    def test_state_count_must_be_a_positive_integer(self, n_states, message):
        with pytest.raises(ValidationError) as err:
            Nfa(n_states, 0, [(0, "a", 1)])
        assert str(err.value) == message

    def test_integer_like_state_count_is_stored_as_int(self):
        nfa = Nfa(np.int64(2), 0, [(0, "a", 1)])
        assert nfa == Nfa(2, 0, [(0, "a", 1)]) and type(nfa.n_states) is int


def line_loop_parse(text):
    """The state names and listed transitions of a valid automaton text,
    read line by line."""
    names, ids, transitions = [], {}, []

    def intern(name):
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    for raw in text.splitlines():
        tokens = raw.split(HASH, 1)[0].split()
        if tokens and tokens[0] == "initial":
            intern(tokens[1])
        elif tokens:
            transitions.append((intern(tokens[1]), tokens[2], intern(tokens[3])))
    return names, transitions


def shape_edges(rng, shape):
    """Named edges of a random path, trie or comb, as the benchmark draws them."""
    if shape == "path":
        return [(f"p{i}", "a", f"p{i + 1}") for i in range(rng.randint(1, 60))]
    if shape == "trie":
        node_of, edges = {"": "t0"}, []
        for _ in range(rng.randint(1, 25)):
            word = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
            for end in range(1, len(word) + 1):
                if word[:end] not in node_of:
                    node_of[word[:end]] = f"t{len(node_of)}"
                    edges.append((node_of[word[:end - 1]], word[end - 1], node_of[word[:end]]))
        return edges
    pattern = [rng.choice("ab") for _ in range(rng.randint(1, 12))]
    edges = []
    for i in range(rng.randint(1, 6)):
        prev = "s0"
        for j, a in enumerate(pattern):
            edges.append((prev, a, f"c{i}_{j}"))
            prev = f"c{i}_{j}"
    return edges


def scrambled(rng, nfa):
    """The automaton's text with its transitions shuffled, comments, blank
    lines and tabs added, and CRLF line ends."""
    first, *rest = nfa.serialize().splitlines()
    rng.shuffle(rest)
    lines = ["# scrambled", first + "  # the initial state"]
    for line in rest:
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# note", "\t# tabbed note"]))
        lines.append(line.replace(" ", rng.choice([" ", "\t", "  "]))
                     + rng.choice(["", " ", "\t#x", " # trailing # twice"]))
    return "\r\n".join(lines) + "\r\n"


def test_lex_order_falls_back_to_lexsort_when_one_key_would_overflow():
    rng = np.random.default_rng(4)
    major, minor = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
    expected = sorted(range(400), key=lambda i: (major[i], minor[i]))
    assert automaton._lex_order(major, minor, 50, 50).tolist() == expected
    assert automaton._lex_order(major, minor, 2**40, 2**40).tolist() == expected


def format_serialize(nfa):
    """The text of an automaton, one str.format call per transition."""
    names = nfa.names
    lines = [f"initial {names[nfa.initial]}"]
    lines += map("trans {} {} {}".format, map(names.__getitem__, nfa.src.tolist()),
                 map(nfa.alphabet.__getitem__, nfa.lab.tolist()),
                 map(names.__getitem__, nfa.dst.tolist()))
    return "\n".join(lines) + "\n"


def fromkeys_columns(text):
    """parse_nfa's names and id columns, interned with dict.fromkeys and a
    lookup per end; the text has no comments and valid lines only."""
    tokens = text.split()
    ends = [tokens[1]]
    for i in range(2, len(tokens), 4):
        ends += [tokens[i + 1], tokens[i + 3]]
    names = list(dict.fromkeys(ends))
    ids = {nm: i for i, nm in enumerate(names)}
    end_ids = [ids[nm] for nm in ends]
    return names, end_ids[1::2], tokens[4::4], end_ids[2::2]


class TestSerializeAndIntern:
    """Nfa.serialize against the str.format join, and parse_nfa's names and
    ids against dict.fromkeys interning."""

    def test_serialize_matches_format_join_on_random_automata(self):
        rng = random.Random(8)
        for seed in range(200):
            nfa = gen_random(rng.randint(1, 25), rng.randint(1, 4), rng.uniform(0.02, 0.3), seed)
            assert nfa.serialize() == format_serialize(nfa)

    def test_serialize_without_edges(self):
        nfa = Nfa(1, 0, [], names=["q"])
        assert nfa.serialize() == format_serialize(nfa) == "initial q\n"

    def test_serialize_of_names_and_labels_with_format_characters(self):
        names = ["{0}", "}", "{", "%s", '"q"', "a\\b", "é", "中文", "{x}%d"]
        labels = ["{}", "%", '"', "\\", "ä", "{0}"]
        trans = [(0, labels[i % len(labels)], i) for i in range(1, len(names))]
        trans += [(i, labels[(i * 5) % len(labels)], i + 1) for i in range(1, len(names) - 1)]
        nfa = Nfa(len(names), 0, trans, names=names)
        text = nfa.serialize()
        assert text == format_serialize(nfa)
        assert names_of(parse_nfa(text)) == names_of(nfa)

    def test_ids_match_fromkeys_interning(self):
        rng = random.Random(9)
        for _ in range(100):
            self.assert_ids_match_fromkeys_interning(rng)

    @staticmethod
    def assert_ids_match_fromkeys_interning(rng):
        # Random edges among few names, so that the initial name and the
        # others recur as sources and targets, in any order of first use.
        names = [f"n{i}" for i in range(rng.randint(2, 12))]
        rng.shuffle(names)
        start, rest = names[0], names[1:]
        edges = {(start, rng.choice("ab"), v) for v in rest}
        for _ in range(rng.randint(0, 40)):
            edges.add((rng.choice(names), rng.choice("abc"), rng.choice(rest)))
        edges = list(edges)
        rng.shuffle(edges)
        text = f"initial {start}\n" + "".join(f"trans {u} {a} {v}\n" for u, a, v in edges)
        names, src, labels, dst = fromkeys_columns(text)
        nfa = parse_nfa(text)
        assert nfa.names == tuple(names) and nfa.names[0] == start
        rank = {a: i for i, a in enumerate(nfa.alphabet)}
        assert sorted(zip(src, [rank[a] for a in labels], dst)) == list(
            zip(nfa.src.tolist(), nfa.lab.tolist(), nfa.dst.tolist()))


class TestBulkParse:
    """The bulk parse and validation give what the line and edge loops give."""

    @given(seed=st.integers(0, 10**6),
           shape=st.sampled_from(["random", "path", "trie", "comb"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_loops(self, seed, shape):
        rng = np.random.default_rng(seed)
        if shape == "random":
            nfa = gen_random(int(rng.integers(1, 30)), int(rng.integers(1, 4)),
                             float(rng.uniform(0.02, 0.4)), seed)
        else:
            edges = shape_edges(random.Random(seed), shape)
            nfa = parse_nfa(f"initial {edges[0][0]}\n"
                            + "".join(f"trans {u} {a} {v}\n" for u, a, v in edges))
        text = scrambled(random.Random(seed), nfa)
        parsed = parse_nfa(text)

        names, listed = line_loop_parse(text)
        alphabet = sorted({a for (_, a, _) in listed}, key=label_key)
        ordered = sorted(listed, key=lambda t: (t[0], label_key(t[1]), t[2]))
        assert parsed.names == tuple(names)
        assert parsed.alphabet == tuple(alphabet)
        assert parsed.transitions == tuple(ordered)
        assert parsed.serialize() == "".join(
            [f"initial {names[0]}\n"]
            + [f"trans {names[u]} {a} {names[v]}\n" for (u, a, v) in ordered])
        assert parse_nfa(text.replace("\r\n", "\n")) == parsed
        # Tuples take the bulk path of the constructor, lists the per-edge one;
        # parse_nfa hands its columns to the checks without either.
        for built in (Nfa(len(names), 0, listed, names=names),
                      Nfa(len(names), 0, [list(t) for t in listed], names=names)):
            assert built == parsed and hash(built) == hash(parsed)
            assert built.transitions == parsed.transitions
            assert built.lambda_sets == parsed.lambda_sets
            assert built.id_of == parsed.id_of and type(parsed.id_of) is dict
            assert repr(built) == repr(parsed)
            assert to_dot(built) == to_dot(parsed)
            for x, y in zip((*built.label_bounds, built.src, built.lab, built.dst,
                             built.out_start),
                            (*parsed.label_bounds, parsed.src, parsed.lab, parsed.dst,
                             parsed.out_start)):
                assert x.dtype == y.dtype == np.intp and np.array_equal(x, y)
        assert [type(x) for t in parsed.transitions for x in t] == [int, str, int] * len(listed)


class TestColumnBuild:
    """parse_nfa's one tokenizer path words every syntax error as the line
    loop does, and the reachability test by pointer jumping agrees with
    the search."""

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing 'initial' directive"),
        ("# c\n", "line 1: missing 'initial' directive"),
        ("trans a b c\n", "line 1: expected 'initial <name>' before 'trans'"),
        ("initial s\ninitial t\n", "line 2: duplicate 'initial' directive"),
        ("initial s\ntrans s a\n", "line 2: expected 'trans <from> <label> <to>'"),
        ("initial s t\n", "line 1: expected 'initial <name>'"),
        ("initial s\nfinal t\n", "line 2: unknown directive 'final'"),
        ("\n\ninitial\n", "line 3: expected 'initial <name>'"),
        # A comment cuts the fourth token off.
        ("initial s\n\ntrans s a t\ntrans # x\n", "line 4: expected 'trans <from> <label> <to>'"),
    ])
    def test_syntax_messages(self, text, message):
        with pytest.raises(NfaSyntaxError) as err:
            parse_nfa(text)
        assert str(err.value) == message

    def test_every_line_break_of_splitlines_ends_a_line(self):
        text = "initial s\x0btrans s a t\u2028trans t b u\x85trans u a v\x1c# end"
        assert parse_nfa(text) == parse_nfa("initial s\ntrans s a t\ntrans t b u\ntrans u a v\n")

    @pytest.mark.parametrize("seed", range(300))
    def test_reachability_by_pointer_jumping(self, seed):
        # Random digraphs on n states with no edge into state 0: cycles
        # among the others, self-loops, isolated states, in-degrees above
        # 1; two in three have a deep spanning tree, one of them alone.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n)) if n > 1 and seed % 3 != 1 else 0
        src, dst = rng.integers(0, n, m), rng.integers(1, n, m)
        if seed % 3:  # a tree of depth about 2n/3, alone or below the edges
            down = np.arange(1, n)
            src = np.concatenate([src, down - 1 - (rng.random(n - 1) < 0.5) * (down > 1)])
            dst = np.concatenate([dst, down])
        order = np.lexsort((dst, src))
        src, dst = src[order].astype(np.intp), dst[order].astype(np.intp)
        start = src.searchsorted(np.arange(n + 1))
        reached = min(automaton._bfs_distances(0, start, dst)) >= 0
        fast = automaton._reaches_all(0, n, src, dst)
        assert not fast or reached
        if np.bincount(dst, minlength=n).max(initial=0) <= 1:
            assert fast == reached


def dict_reference(nfa):
    """Per-(state, label) targets and sources, and the incoming-label sets,
    from dicts built over the sorted transitions."""
    out, inc = {}, {}
    for (u, a, v) in nfa.transitions:
        out.setdefault((u, a), []).append(v)
        inc.setdefault((v, a), []).append(u)
    lam = [set() for _ in range(nfa.n_states)]
    for (v, a) in inc:
        lam[v].add(a)
    lam[nfa.initial].add(HASH)
    return out, inc, tuple(map(frozenset, lam))


class TestQueries:
    @pytest.mark.parametrize("seed", range(60))
    def test_match_dict_reference(self, seed):
        rng = np.random.default_rng(seed)
        nfa = gen_random(int(rng.integers(1, 13)), int(rng.integers(1, 4)),
                         float(rng.uniform(0.05, 0.5)), seed)
        out, inc, lam = dict_reference(nfa)
        assert nfa.lambda_sets == lam
        states = range(nfa.n_states)
        for a in (*nfa.alphabet, "z", HASH):  # "z" and HASH label no edge
            for u in states:
                assert nfa.targets(u, a) == tuple(out.get((u, a), ()))
                assert nfa.sources(u, a) == tuple(inc.get((u, a), ()))
            for k in (0, 1, 3):
                block = [int(x) for x in rng.choice(nfa.n_states, min(k, nfa.n_states),
                                                    replace=False)]
                assert nfa.delta_set(block, a) == frozenset(
                    v for u in block for v in out.get((u, a), ()))


class TestTransitionArrays:
    @pytest.mark.parametrize("text", [
        FIG2_TEXT,
        # labels listed against label order, and "B" < "a" bytewise
        "initial s\ntrans s b y\ntrans s a x\ntrans x B y\ntrans s a y\ntrans y b x\n",
    ])
    def test_arrays_reproduce_transitions(self, text):
        nfa = parse_nfa(text)
        arrays = (nfa.src, nfa.lab, nfa.dst)
        for arr in arrays:
            assert arr.dtype == np.intp and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert [(int(u), nfa.alphabet[a], int(v)) for u, a, v in zip(*arrays)] \
            == list(nfa.transitions)


class TestLabelMajor:
    @pytest.mark.parametrize("make", [
        lambda: parse_nfa(FIG2_TEXT),
        lambda: gen_fixture("wheeler3"),
        lambda: gen_separation_family(9),
        lambda: parse_nfa("initial s\ntrans s b y\ntrans s a x\ntrans x B y\n"
                          "trans s a y\ntrans y b x\n"),
        *[lambda seed=seed: gen_random(12, 3, 0.2, seed) for seed in range(5)],
    ])
    def test_is_a_stable_sort_by_label_read_once(self, make):
        nfa = make()
        src, lab, dst, ends = nfa._label_major
        assert nfa._label_major is nfa._label_major
        order = np.argsort(nfa.lab, kind="stable")
        for got, column in zip((src, lab, dst), (nfa.src, nfa.lab, nfa.dst)):
            assert np.array_equal(got, column[order]) and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0
        assert ends == tuple(np.searchsorted(lab, np.arange(len(nfa.alphabet) + 1)).tolist())
        assert ends[0] == 0 and ends[-1] == len(lab)


class TestLabels:
    def test_lambda_sets_fig2(self, fig2):
        lam = [set(fig2.lambda_set(u)) for u in range(7)]
        assert lam == [{HASH}, {"a"}, {"a"}, {"a"}, {"a"}, {"b"}, {"b"}]

    def test_lambda_leq_examples(self):
        assert lambda_leq({"a", "b"}, {"b"})
        assert not lambda_leq({"a", "b"}, {"a"})
        assert lambda_leq({HASH}, {"a"})
        assert not lambda_leq({"a"}, {HASH})

    def test_lambda_leq_rejects_empty(self):
        with pytest.raises(InvalidParameter):
            lambda_leq(set(), {"a"})

    def test_hash_below_every_printable_label(self):
        # '!' and '"' sort below '#' bytewise; the sentinel must still win
        for lbl in ("!", '"', "a", "z", "0"):
            assert label_key(HASH) < label_key(lbl)

    def test_mutual_leq_forces_equal_singletons(self):
        labels = ["a", "b", "c"]
        subsets = [set(c) for r in range(1, 4)
                   for c in itertools.combinations(labels, r)]
        for x in subsets:
            for y in subsets:
                if lambda_leq(x, y) and lambda_leq(y, x):
                    assert x == y and len(x) == 1


class TestDeltaString:
    def test_fig2_example(self, fig2):
        reached = delta_string(fig2, "u0", "ab")
        assert {fig2.names[u] for u in reached} == {"u5", "u6"}

    def test_empty_word(self, fig2):
        assert delta_string(fig2, 0, "") == frozenset((0,))

    def test_unknown_label(self, fig2):
        with pytest.raises(UnknownLabel):
            delta_string(fig2, 0, "az")

    def test_unknown_state_name(self, fig2):
        with pytest.raises(ValidationError):
            delta_string(fig2, "nope", "a")

    @pytest.mark.parametrize("source,word", [(99, ""), (-1, "a")])
    def test_state_id_out_of_range(self, fig2, source, word):
        with pytest.raises(ValidationError) as exc:
            delta_string(fig2, source, word)
        assert str(exc.value) == f"state {source} out of range for 7 states"

    def test_multi_character_labels_via_list(self):
        nfa = Nfa(3, 0, [(0, "aa", 1), (1, "b", 2)])
        assert delta_string(nfa, 0, ["aa", "b"]) == frozenset((2,))

    @given(seed=st.integers(0, 300), split=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_word_composition(self, seed, split):
        nfa = gen_random(5, 2, 0.4, seed)
        word = ["a", "b", "a", "a", "b", "a"][:6]
        word = [a for a in word if a in nfa.alphabet]
        head, tail = word[:split], word[split:]
        direct = delta_string(nfa, 0, head + tail)
        staged = set()
        for u in delta_string(nfa, 0, head):
            staged |= delta_string(nfa, u, tail)
        assert direct == frozenset(staged)


class TestGenerators:
    def test_fig2_shape(self, fig2):
        assert fig2.n_states == 7
        assert len(fig2.transitions) == 12
        assert fig2.alphabet == ("a", "b")

    def test_wheeler3_shape(self, wheeler3):
        assert wheeler3.n_states == 3
        assert names_of(wheeler3) == {("u1", "a", "u2"), ("u1", "a", "u3")}

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            gen_fixture("fig3")

    @pytest.mark.parametrize("n,m", [(5, 5), (6, 7), (10, 15), (20, 35)])
    def test_separation_family_edge_count(self, n, m):
        nfa = gen_separation_family(n)
        assert nfa.n_states == n
        assert len(nfa.transitions) == m  # 3 + 2(n-4)

    def test_separation_family_structure(self, sep6):
        assert names_of(sep6) == {
            ("u1", "a", "u2"), ("u1", "b", "u3"), ("u3", "b", "u4"),
            ("u2", "a", "u5"), ("u3", "a", "u5"),
            ("u2", "a", "u6"), ("u3", "a", "u6"),
        }

    @pytest.mark.parametrize("n", [0, 3, 4])
    def test_separation_family_needs_n_above_4(self, n):
        with pytest.raises(InvalidParameter):
            gen_separation_family(n)

    def test_gen_random_deterministic(self):
        a = gen_random(8, 3, 0.3, 7)
        b = gen_random(8, 3, 0.3, 7)
        assert a == b

    def test_gen_random_seeds_differ(self):
        outs = {gen_random(8, 3, 0.3, s).serialize() for s in range(6)}
        assert len(outs) > 1

    def test_gen_random_single_state(self):
        nfa = gen_random(1, 1, 0.5, 123)
        assert nfa.n_states == 1
        assert nfa.alphabet == ()
        assert nfa.transitions == ()

    @pytest.mark.parametrize("args,n_states,digest", [
        ((6, 2, 0.3, 0), 6,
         "e316bd557104164a1c2bb841945983e485fe5cf1705f0c4c6defc6dfb05ce2ed"),
        ((12, 3, 0.15, 7), 12,
         "1b704c4d90dd01a24be310bd3ff4ffff11182f69424dc4b0db3f6ca348fdde42"),
        # pruning drops unreachable states
        ((40, 2, 0.03, 3), 35,
         "a0992938d2be318ba7da46fa04dfd5f8f06ce56aacfb5cf7a9ddd49d298e69a0"),
        ((60, 3, 0.01, 11), 32,
         "ec0360ce58c89b57bdf2d9f5ad1747f4f7344d2feae935aace9b0d9261e68d87"),
        # nothing drawn: one edge out of the initial state is re-added
        ((5, 2, 0.0, 1), 2,
         "1a3de4d869fbf45c4a61062abfc54daff7e1bb027a9ca8c21226d2eb4767ea76"),
    ])
    def test_gen_random_output_is_pinned(self, args, n_states, digest):
        nfa = gen_random(*args)
        assert nfa.n_states == n_states
        assert hashlib.sha256(nfa.serialize().encode()).hexdigest() == digest

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_gen_random_always_valid(self, seed):
        # construction re-validates; also check the repaired size bounds
        nfa = gen_random(6, 3, 0.25, seed)
        assert 1 <= nfa.n_states <= 6
        assert set(nfa.alphabet) <= {"a", "b", "c"}

    @pytest.mark.parametrize("kw", [
        dict(states=0, alphabet_size=2, density=0.5, seed=0),
        dict(states=3, alphabet_size=0, density=0.5, seed=0),
        dict(states=3, alphabet_size=27, density=0.5, seed=0),
        dict(states=3, alphabet_size=2, density=1.5, seed=0),
        dict(states=3, alphabet_size=2, density=-0.1, seed=0),
    ])
    def test_gen_random_parameter_checks(self, kw):
        with pytest.raises(InvalidParameter):
            gen_random(**kw)

    def test_gen_random_candidate_limit(self):
        # 1024 states over one label are exactly MAX_RANDOM_CANDIDATES draws.
        assert automaton.MAX_RANDOM_CANDIDATES == 1024 ** 2
        assert gen_random(1024, 1, 0.0, 3).n_states == 2
        with pytest.raises(InvalidParameter, match=r"limited to 1048576, got 1050625$"):
            gen_random(1025, 1, 0.0, 3)
        with pytest.raises(InvalidParameter, match=r"limited to 1048576, got 1050426$"):
            gen_random(201, 26, 0.5, 3)

    def test_separation_family_state_limit(self, monkeypatch):
        assert automaton.MAX_SEPARATION_STATES == 1 << 18
        with pytest.raises(InvalidParameter, match=r"limited to 262144 states, got 262145$"):
            gen_separation_family(262145)
        # The bound is inclusive; a small stand-in keeps the check cheap.
        monkeypatch.setattr(automaton, "MAX_SEPARATION_STATES", 9)
        assert gen_separation_family(9).n_states == 9
        with pytest.raises(InvalidParameter, match=r"limited to 9 states, got 10$"):
            gen_separation_family(10)


class TestDot:
    def test_deterministic(self, fig2):
        assert to_dot(fig2) == to_dot(fig2)

    def test_block_colors(self, fig2):
        from nfaindex import coarsest_fs_partition
        dot = to_dot(fig2, coarsest_fs_partition(fig2))
        colors = {line.split("fillcolor=")[1] for line in dot.splitlines()
                  if "fillcolor=" in line}
        assert len(colors) == 4

    def test_edges_present(self, fig2):
        dot = to_dot(fig2)
        assert dot.count("->") == len(fig2.transitions) + 1  # + start marker
        assert dot.startswith("digraph")
