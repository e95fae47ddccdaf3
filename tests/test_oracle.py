"""Exhaustive reference implementations and their guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    Nfa,
    NotPreorder,
    Partition,
    Relation,
    TooLarge,
    brute_coarsest_fs,
    brute_max_colex_relation,
    brute_width,
    cfs_order,
    coarsest_fs_partition,
    delta_string,
    enumerate_fs_partitions,
    gen_random,
    gen_separation_family,
    induced_equivalence,
    is_forward_stable,
    max_colex_relation,
    reach_sets,
    width,
)
from nfaindex import fs_partition, relations
from nfaindex.oracle import MAX_BRUTE_CLASSES, _growth_strings


class TestEnumeration:
    def test_wheeler3_has_two_stable_partitions(self, wheeler3):
        found = enumerate_fs_partitions(wheeler3)
        by_names = [p.blocks_by_name(wheeler3.names) for p in found]
        assert [["u1"], ["u2"], ["u3"]] in by_names
        assert [["u1"], ["u2", "u3"]] in by_names
        assert len(found) == 2

    def test_discrete_always_included(self, sep6):
        found = enumerate_fs_partitions(sep6)
        assert any(p.n_blocks == sep6.n_states for p in found)

    @pytest.mark.parametrize("make", [
        lambda: gen_separation_family(6),
        lambda: Nfa(6, 0, [(i, "a", i + 1) for i in range(5)]),
        lambda: Nfa(6, 0, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 4),
                           (3, "a", 5), (4, "a", 5), (5, "b", 3)]),
        lambda: gen_random(6, 2, 0.35, 3),
        lambda: gen_random(6, 3, 0.3, 8),
        lambda: gen_random(6, 1, 0.5, 11),
    ])
    def test_keeps_exactly_the_forward_stable_partitions(self, make):
        nfa = make()
        assert nfa.n_states == 6
        every = [Partition.from_block_of(rgs) for rgs in _growth_strings(6)]
        assert len(every) == 203
        expected = [p for p in every if is_forward_stable(nfa, p)[0]]
        assert enumerate_fs_partitions(nfa) == expected
        assert 1 <= len(expected) < 203

    def test_guard(self):
        nfa = gen_separation_family(9)
        with pytest.raises(TooLarge):
            enumerate_fs_partitions(nfa)


class TestBruteCoarsest:
    def test_matches_fast_on_fixtures(self, fig2, wheeler3, sep6):
        for nfa in (fig2, wheeler3, sep6):
            assert brute_coarsest_fs(nfa) == coarsest_fs_partition(nfa)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=100, deadline=None)
    def test_matches_fast_on_random(self, seed):
        nfa = gen_random(6, 3, 0.3, seed)
        assert brute_coarsest_fs(nfa) == coarsest_fs_partition(nfa)


class TestBruteRelation:
    def test_matches_fast_on_fixtures(self, fig2, wheeler3, sep6):
        for nfa in (fig2, wheeler3, sep6):
            assert brute_max_colex_relation(nfa) == max_colex_relation(nfa)

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_max_colex_relation(gen_separation_family(9))

    @given(seed=st.integers(0, 400))
    @settings(max_examples=100, deadline=None)
    def test_matches_fast_on_random(self, seed):
        nfa = gen_random(6, 2, 0.4, seed)
        assert brute_max_colex_relation(nfa) == max_colex_relation(nfa)


class TestBruteWidth:
    def test_identity(self):
        assert brute_width(Relation(4)) == 4

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_width(Relation(16))

    def test_matches_certificate_on_fixtures(self, fig2, wheeler3, sep6):
        for nfa in (fig2, wheeler3, sep6):
            rel = max_colex_relation(nfa)
            assert brute_width(rel) == width(rel).width


class TestReachSets:
    def test_fig2_short_strings(self, fig2):
        rs = reach_sets(fig2, 2)
        assert rs[0] == frozenset({()})
        assert rs[5] == frozenset({("a", "b")})
        assert rs[6] == frozenset({("a", "b")})
        assert rs[1] == frozenset({("a",), ("a", "a")})

    def test_separation_six(self, sep6):
        rs = reach_sets(sep6, 2)
        # u5 and u6 (ids 4, 5) see exactly the same strings
        assert rs[4] == rs[5] == frozenset({("a", "a"), ("b", "a")})

    def test_agrees_with_delta_string(self, fig2):
        rs = reach_sets(fig2, 3)
        for u in range(fig2.n_states):
            for word in rs[u]:
                assert u in delta_string(fig2, fig2.initial, list(word))

    def test_membership_is_exact(self, fig2):
        # every string of length <= 3 reaching u appears in u's set
        import itertools
        rs = reach_sets(fig2, 3)
        words = [()]
        for length in (1, 2, 3):
            words += list(itertools.product(fig2.alphabet, repeat=length))
        for w in words:
            for u in delta_string(fig2, fig2.initial, list(w)):
                assert w in rs[u]

    def test_guards(self, fig2):
        with pytest.raises(TooLarge):
            reach_sets(fig2, 9)
        from nfaindex import InvalidParameter
        with pytest.raises(InvalidParameter):
            reach_sets(fig2, -1)

    def test_zero_length(self, fig2):
        rs = reach_sets(fig2, 0)
        assert rs[0] == frozenset({()})
        assert all(rs[u] == frozenset() for u in range(1, 7))


class TestIndependence:
    """The oracles give their answers with the production code they check
    broken: the transitivity product, the class partition and the
    stability test."""

    @staticmethod
    def break_production(monkeypatch):
        def broken(*args):
            raise AssertionError("an oracle ran production code")
        monkeypatch.setattr(Relation, "_first_gap", broken)
        monkeypatch.setattr(relations, "induced_equivalence", broken)
        monkeypatch.setattr(fs_partition, "is_forward_stable", broken)

    def test_enumeration_and_width(self, monkeypatch, fig2, wheeler3, sep6):
        cases = []
        for nfa in (fig2, wheeler3, sep6, *(gen_random(6, 2, 0.35, s) for s in range(8))):
            every = [Partition.from_block_of(rgs) for rgs in _growth_strings(nfa.n_states)]
            stable = [p for p in every if is_forward_stable(nfa, p)[0]]
            rels = [max_colex_relation(nfa), cfs_order(nfa)[0]]
            widths = [width(r).width for r in rels]
            # Fresh copies: nothing proved about the relations is cached on them.
            cases.append((nfa, stable, [Relation.from_matrix(r.bits) for r in rels], widths))
        self.break_production(monkeypatch)
        for nfa, stable, rels, widths in cases:
            assert enumerate_fs_partitions(nfa) == stable
            assert [brute_width(r) for r in rels] == widths
        assert brute_width(Relation(4)) == 4
        with pytest.raises(TooLarge):
            brute_width(Relation(16))

    def test_same_transitivity_witness(self):
        rng = np.random.default_rng(4)
        failed = 0
        for _ in range(300):
            n = int(rng.integers(1, 12))
            bits = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            rel = Relation.from_matrix(bits)
            witness = rel.transitivity_witness()
            if witness is None:
                if induced_equivalence(rel).n_blocks <= MAX_BRUTE_CLASSES:
                    assert brute_width(rel) == width(rel).width
                continue
            with pytest.raises(NotPreorder) as err:
                brute_width(rel)
            assert err.value.witness == witness
            failed += 1
        assert failed > 100
