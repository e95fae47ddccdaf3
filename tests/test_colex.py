"""Maximum co-lex relation, the forward-stable order, and the comparison."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    EqualPair,
    InvalidParameter,
    Nfa,
    PairGraph,
    cfs_order,
    check_colex_order,
    check_colex_relation,
    check_wheeler_preorder,
    compare_report,
    gen_fixture,
    gen_random,
    gen_separation_family,
    induced_equivalence,
    is_quasi_wheeler,
    lambda_leq,
    max_colex_order,
    max_colex_relation,
    preceding_pairs_oracle,
    source_distances,
    width,
)
from nfaindex import colex
from nfaindex.relations import label_bounds

# names u1..u6 map to ids 0..5
SEP6_EXPECTED = {
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (4, 2), (4, 3), (5, 2), (5, 3),
    (2, 3),
}


class TestMaxColexRelation:
    def test_separation_six_states_frozen(self, sep6):
        rel = max_colex_relation(sep6)
        assert set(rel.pairs()) == SEP6_EXPECTED
        assert rel.is_antisymmetric()
        # u5 and u6 are incomparable: both orders absent
        assert not rel.contains(4, 5) and not rel.contains(5, 4)

    def test_wheeler3_frozen(self, wheeler3):
        rel = max_colex_relation(wheeler3)
        assert set(rel.pairs()) == {(0, 1), (0, 2), (1, 2), (2, 1)}

    def test_fig2_equivalent_pair(self, fig2):
        rel = max_colex_relation(fig2)
        # u3 and u4 share their one predecessor and label, so both orders hold
        assert rel.contains(3, 4) and rel.contains(4, 3)
        assert induced_equivalence(rel).n_blocks == 6

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_always_a_preorder_satisfying_the_axioms(self, seed):
        nfa = gen_random(6, 3, 0.3, seed)
        rel = max_colex_relation(nfa)
        assert rel.is_transitive()
        ok, violation = check_colex_relation(nfa, rel)
        assert ok, violation

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_pointwise_characterization(self, seed):
        # (u, v) is in the relation iff every preceding pair is label-ordered
        nfa = gen_random(5, 2, 0.4, seed)
        rel = max_colex_relation(nfa)
        for u in range(nfa.n_states):
            for v in range(nfa.n_states):
                if u == v:
                    continue
                expected = all(
                    lambda_leq(nfa.lambda_set(x), nfa.lambda_set(y))
                    for (x, y) in preceding_pairs_oracle(nfa, u, v))
                assert rel.contains(u, v) == expected


def separation_expected(n):
    """Pairs of the maximum co-lex relation of gen_separation_family(n)."""
    sinks = range(4, n)
    return ({(0, x) for x in range(1, n)} | {(1, x) for x in range(2, n)}
            | {(s, t) for s in sinks for t in (2, 3)} | {(2, 3)})


def pair_graph_reference(nfa):
    """Loop form of the maximum co-lex relation: seed the label-violating
    pairs one by one, then mark everything they reach in the pair graph."""
    n = nfa.n_states
    bad = {(u, v) for u in range(n) for v in range(n)
           if u != v and not lambda_leq(nfa.lambda_set(u), nfa.lambda_set(v))}
    queue = deque(bad)
    pg = PairGraph(nfa)
    while queue:
        for pair in pg.successors(*queue.popleft()):
            if pair not in bad:
                bad.add(pair)
                queue.append(pair)
    return {(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in bad}


class TestMaxColexRelationAtScale:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pair_graph_bfs_beyond_one_batch(self, seed):
        # 170-190 states: the seeded frontier spans several propagation batches
        nfa = gen_random(200, 2, 0.006, seed)
        hi, lo = label_bounds(nfa)
        assert (hi[:, None] > lo[None, :]).sum() > colex._CHUNK
        assert set(max_colex_relation(nfa).pairs()) == pair_graph_reference(nfa)

    def test_unary_path_thousand_states(self):
        # each propagation round moves the mark one step along the path
        n = 1000
        rel = max_colex_relation(Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)]))
        assert int(rel.bits.sum()) == 500500
        assert np.array_equal(rel.bits, np.triu(np.ones((n, n), dtype=bool)))

    def test_separation_six_hundred_fan_out(self):
        # the pair (u2, u3) alone expands to 596 x 596 candidate pairs
        assert separation_expected(6) == SEP6_EXPECTED
        rel = max_colex_relation(gen_separation_family(600))
        assert set(rel.pairs()) == separation_expected(600)

    @pytest.mark.parametrize("states,alphabet,density,seed", [
        (60, 2, 0.016, 0), (60, 2, 0.016, 1), (60, 3, 0.01, 2),
        (40, 2, 0.025, 3), (50, 2, 0.02, 4),
    ])
    def test_pointwise_characterization_mid_size(self, states, alphabet, density, seed):
        # every related pair, plus a sample of the others
        nfa = gen_random(states, alphabet, density, seed)
        assert 30 <= nfa.n_states <= 60
        rel = max_colex_relation(nfa)
        rng = random.Random(seed)
        pairs = set(rel.pairs()) | {tuple(rng.sample(range(nfa.n_states), 2))
                                    for _ in range(100)}
        for (u, v) in sorted(pairs):
            expected = all(
                lambda_leq(nfa.lambda_set(x), nfa.lambda_set(y))
                for (x, y) in preceding_pairs_oracle(nfa, u, v))
            assert rel.contains(u, v) == expected, (u, v)


class TestMaxColexOrder:
    def test_exists_for_separation_family(self):
        for n in (5, 7, 12):
            nfa = gen_separation_family(n)
            order = max_colex_order(nfa)
            assert order is not None
            ok, violation = check_colex_order(nfa, order)
            assert ok, violation

    def test_absent_for_wheeler3(self, wheeler3):
        assert max_colex_order(wheeler3) is None

    def test_absent_for_fig2(self, fig2):
        assert max_colex_order(fig2) is None


class TestPrecedingPairs:
    def test_wheeler3_sinks(self, wheeler3):
        assert preceding_pairs_oracle(wheeler3, 1, 2) == frozenset({(1, 2)})

    def test_two_state_chain(self):
        nfa = Nfa(2, 0, [(0, "a", 1)])
        assert preceding_pairs_oracle(nfa, 0, 1) == frozenset({(0, 1)})

    def test_loops_feed_back(self, fig2):
        # (u5, u6) has b-predecessor pairs on both sides of the 2-cycle
        pairs = preceding_pairs_oracle(fig2, 5, 6)
        assert (5, 6) in pairs and (6, 5) in pairs
        assert (3, 2) in pairs  # u3 -b-> u5, u2 -b-> u6

    def test_equal_pair_rejected(self, fig2):
        with pytest.raises(EqualPair):
            preceding_pairs_oracle(fig2, 3, 3)

    def test_out_of_range(self, fig2):
        with pytest.raises(InvalidParameter):
            preceding_pairs_oracle(fig2, 0, 99)


class TestCfsOrder:
    def test_fig2_total_chain(self, fig2):
        rel, qm = cfs_order(fig2)
        assert induced_equivalence(rel) == qm.partition
        assert rel.is_total()
        assert width(rel).width == 1
        # quotient chain: u0 < u3+u4 < u1+u2 < u5+u6
        q = qm.quotient
        by_name = {nm: i for i, nm in enumerate(q.names)}
        chain = [by_name[nm] for nm in ("u0", "u3+u4", "u1+u2", "u5+u6")]
        qrel = max_colex_relation(q)
        for i in range(4):
            for j in range(4):
                assert qrel.contains(chain[i], chain[j]) == (i <= j)

    def test_separation_family_collapses_to_total_order(self):
        for n in (5, 9, 14):
            rel, qm = cfs_order(gen_separation_family(n))
            assert qm.partition.n_blocks == 5
            assert rel.is_total()
            assert width(rel).width == 1

    @given(seed=st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_contains_max_relation_with_fewer_classes(self, seed):
        nfa = gen_random(6, 2, 0.35, seed)
        rel_r = max_colex_relation(nfa)
        rel_fs, qm = cfs_order(nfa)
        assert rel_fs.superset_of(rel_r)
        assert qm.partition.n_blocks <= induced_equivalence(rel_r).n_blocks
        assert width(rel_fs).width <= width(rel_r).width
        assert induced_equivalence(rel_fs) == qm.partition


class TestQuasiWheeler:
    def test_fixtures_are_quasi_wheeler(self, fig2, wheeler3):
        for nfa in (fig2, wheeler3):
            flag, witness = is_quasi_wheeler(nfa)
            assert flag
            ok, violation = check_wheeler_preorder(nfa, witness)
            assert ok, violation

    def test_input_inconsistency_blocks_it(self):
        nfa = Nfa(2, 0, [(0, "a", 1), (0, "b", 1)], names=["s", "t"])
        flag, witness = is_quasi_wheeler(nfa)
        assert not flag and witness is None

    def test_non_total_order_blocks_it(self):
        # p and q are entered from both branches, so their preceding pairs
        # conflict in both directions; the loop on p keeps the two apart in
        # the forward-stable partition, leaving them incomparable
        nfa = Nfa(5, 0, [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3),
                         (1, "a", 4), (2, "a", 4), (3, "a", 3)],
                  names=["s", "x", "y", "p", "q"])
        rel, qm = cfs_order(nfa)
        assert qm.partition.n_blocks == 5  # nothing merges
        assert not rel.contains(3, 4) and not rel.contains(4, 3)
        assert all(len(nfa.lambda_set(u)) == 1 for u in range(5))
        flag, witness = is_quasi_wheeler(nfa)
        assert not flag and witness is None


class TestSourceDistances:
    def test_fig2(self, fig2):
        assert source_distances(fig2) == (0, 1, 1, 1, 1, 2, 2)

    def test_separation(self, sep6):
        assert source_distances(sep6) == (0, 1, 1, 2, 2, 2)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_equivalent_states_sit_at_equal_depth(self, seed):
        nfa = gen_random(6, 2, 0.4, seed)
        rel = max_colex_relation(nfa)
        phi = source_distances(nfa)
        for u in range(nfa.n_states):
            for v in range(nfa.n_states):
                if u != v and rel.contains(u, v) and rel.contains(v, u):
                    assert phi[u] == phi[v]
                    for a in nfa.alphabet:
                        for up in nfa.sources(u, a):
                            assert phi[up] == phi[u] - 1


class TestCompareReport:
    def test_separation_ten(self):
        rep = compare_report(gen_separation_family(10)).to_json_dict()
        assert rep == {
            "n_states": 10,
            "classes_R": 10,
            "classes_FS": 5,
            "width_R": 6,
            "width_FS": 1,
            "superset_holds": True,
            "quasi_wheeler": True,
            "max_order_exists": True,
        }

    def test_wheeler3(self, wheeler3):
        rep = compare_report(wheeler3)
        assert (rep.classes_R, rep.classes_FS) == (2, 2)
        assert (rep.width_R, rep.width_FS) == (1, 1)
        assert rep.superset_holds and rep.quasi_wheeler
        assert not rep.max_order_exists

    def test_fig2(self, fig2):
        rep = compare_report(fig2)
        assert rep.n_states == 7
        assert rep.classes_R == 6 and rep.classes_FS == 4
        assert rep.width_R == 2 and rep.width_FS == 1
        assert rep.quasi_wheeler and not rep.max_order_exists

    def test_single_state(self):
        rep = compare_report(Nfa(1, 0, []))
        assert rep.to_json_dict() == {
            "n_states": 1, "classes_R": 1, "classes_FS": 1,
            "width_R": 1, "width_FS": 1,
            "superset_holds": True, "quasi_wheeler": True,
            "max_order_exists": True,
        }

    def test_discrete_partition_reuses_the_max_relation(self, monkeypatch):
        calls = []
        real = colex.max_colex_relation

        def counted(nfa):
            calls.append(nfa.n_states)
            return real(nfa)

        monkeypatch.setattr(colex, "max_colex_relation", counted)
        path = Nfa(6, 0, [(i, "a", i + 1) for i in range(5)])
        rep = compare_report(path)
        assert calls == [6]
        assert (rep.classes_R, rep.classes_FS, rep.width_R, rep.width_FS) == (6, 6, 1, 1)
        assert rep.max_order_exists and rep.quasi_wheeler
        calls.clear()
        compare_report(gen_fixture("fig2"))
        assert calls == [7, 4]  # fig2 merges into a 4-state quotient

    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_report_internally_consistent(self, seed):
        nfa = gen_random(6, 3, 0.3, seed)
        rep = compare_report(nfa)
        assert rep.superset_holds
        assert rep.classes_FS <= rep.classes_R
        assert rep.width_FS <= rep.width_R
        assert rep.max_order_exists == (rep.classes_R == rep.n_states)
