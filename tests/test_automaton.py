"""Data model: parsing, validation, label order, generators, DOT."""

import hashlib
import itertools
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
