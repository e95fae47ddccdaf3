"""Relations: JSON forms, order checkers, width and its certificates."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    InternalInvariantViolation,
    Nfa,
    NotPreorder,
    PartitionMismatch,
    Partition,
    Relation,
    SizeMismatch,
    ValidationError,
    brute_width,
    build_quotient,
    cfs_order,
    check_colex_order,
    check_colex_relation,
    check_wheeler_order,
    check_wheeler_preorder,
    coarsest_fs_partition,
    gen_fixture,
    gen_random,
    gen_separation_family,
    induced_equivalence,
    induced_order,
    max_colex_relation,
    relation_from_json_dict,
    relation_to_json_dict,
    relation_to_json_text,
    width,
)
from nfaindex import relations
from nfaindex.automaton import label_key
from nfaindex.cli import main
from nfaindex.relations import (
    _SPARSE_AXIOM2_COST,
    Violation,
    WidthCertificate,
    _axiom1_violation,
    _axiom2_violation,
    _class_order,
    _max_matching,
    _partial_order_violation,
    _sparse_first_edge_pair,
    _totality_violation,
    _validate_certificate,
    quotient_to_json_text,
)
from test_colex import random_automaton, unary_path, word_trie


def closure(n, pairs):
    """Reflexive-transitive closure, as a Relation."""
    bits = np.zeros((n, n), dtype=bool)
    for (u, v) in pairs:
        bits[u % n, v % n] = True
    np.fill_diagonal(bits, True)
    while True:
        step = bits | ((bits.astype(np.uint8) @ bits.astype(np.uint8)) > 0)
        if np.array_equal(step, bits):
            return Relation.from_matrix(bits)
        bits = step


class TestRelation:
    def test_diagonal_enforced(self):
        rel = Relation(3)
        assert all(rel.contains(u, u) for u in range(3))
        assert rel.pairs() == []

    def test_pairs_sorted_non_diagonal(self):
        rel = Relation(3, [(2, 0), (0, 1), (1, 1)])
        assert rel.pairs() == [(0, 1), (2, 0)]

    def test_out_of_range_pair(self):
        with pytest.raises(SizeMismatch):
            Relation(2, [(0, 5)])

    @pytest.mark.parametrize("pairs", [
        [(0, 1, 2)], [(0, 1), (1, 2, 0)], [0, 1], [(0, 1), (0, (1, 2))], [[]], [[(0, 1)]]])
    def test_item_that_is_not_a_pair(self, pairs):
        with pytest.raises(ValidationError) as err:
            Relation(3, pairs)
        assert str(err.value) == "relation items must be (u, v) pairs of states"

    def test_negative_size(self):
        with pytest.raises(ValidationError) as err:
            Relation(-1)
        assert str(err.value) == "relation size -1 is negative"

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValidationError) as err:
            Relation(n)
        assert str(err.value) == f"relation size {n!r} is not an integer"

    @pytest.mark.parametrize("pairs,member", [
        ([(True, 1)], "True"), ([(0, 1), (1, False)], "False"),
        ([(True, False)], "True"), ([(np.True_, 1)], "np.True_")])
    def test_bool_member(self, pairs, member):
        # numpy would read (True, 1) as the pair (1, 1)
        with pytest.raises(ValidationError) as err:
            Relation(2, pairs)
        assert str(err.value) == f"relation member {member} is not an integer"

    def test_integer_like_size(self):
        rel = Relation(np.int64(3), [(np.int64(0), 2)])
        assert rel.n == 3 and type(rel.n) is int and rel.pairs() == [(0, 2)]

    def test_from_matrix_requires_square(self):
        with pytest.raises(SizeMismatch):
            Relation.from_matrix(np.zeros((2, 3), dtype=bool))

    def test_structure_predicates(self):
        chain = closure(3, [(0, 1), (1, 2)])
        assert chain.is_antisymmetric() and chain.is_transitive() and chain.is_total()
        cyc = closure(2, [(0, 1), (1, 0)])
        assert not cyc.is_antisymmetric()
        assert Relation(2).is_antisymmetric()
        assert not Relation(2).is_total()

    def test_transitivity_witness_is_genuine(self):
        rel = Relation(3, [(0, 1), (1, 2)])
        u, v, w = rel.transitivity_witness()
        assert rel.contains(u, v) and rel.contains(v, w) and not rel.contains(u, w)

    def test_superset(self):
        small = Relation(3, [(0, 1)])
        big = Relation(3, [(0, 1), (1, 2)])
        assert big.superset_of(small)
        assert not small.superset_of(big)


class TestRelationJson:
    def test_round_trip(self, wheeler3):
        rel = max_colex_relation(wheeler3)
        obj = relation_to_json_dict(rel, wheeler3.names)
        assert obj["n"] == 3
        assert obj["pairs"] == [["u1", "u2"], ["u1", "u3"], ["u2", "u3"], ["u3", "u2"]]
        assert relation_from_json_dict(obj, wheeler3) == rel

    def test_wrong_n(self, wheeler3):
        with pytest.raises(SizeMismatch):
            relation_from_json_dict({"n": 4, "pairs": []}, wheeler3)

    @pytest.mark.parametrize("obj", [
        {"pairs": []},
        {"n": 3},
        {"n": 3, "pairs": [["u1"]]},
        {"n": 3, "pairs": [["u1", "zz"]]},
        {"n": 3.0, "pairs": []},
        {"n": True, "pairs": []},
    ])
    def test_malformed(self, obj, wheeler3):
        with pytest.raises(ValidationError):
            relation_from_json_dict(obj, wheeler3)


class TestInduced:
    def test_equivalence_classes(self):
        rel = closure(4, [(0, 1), (1, 0), (2, 3)])
        assert induced_equivalence(rel) == Partition(4, [[0, 1], [2], [3]])

    def test_not_preorder(self):
        with pytest.raises(NotPreorder) as err:
            induced_equivalence(Relation(3, [(0, 1), (1, 2)]))
        u, v, w = err.value.witness
        assert (u, v, w) == (0, 1, 2)

    def test_induced_order_needs_matching_partition(self):
        rel = closure(3, [(0, 1), (1, 0)])
        with pytest.raises(PartitionMismatch):
            induced_order(rel, Partition(3, [[0], [1], [2]]))

    def test_induced_order_is_antisymmetric(self):
        rel = closure(4, [(0, 1), (1, 0), (1, 2), (3, 0)])
        order = induced_order(rel, induced_equivalence(rel))
        assert order.is_antisymmetric() and order.is_transitive()


def bitset_rows(strict):
    """Row i of a boolean matrix as an int whose bit j is cell (i, j)."""
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in strict]


def kuhn_reference(strict):
    """Recursive form of Kuhn's search: left vertices and their neighbours
    tried in ascending order."""
    m = len(strict)
    adj = [np.flatnonzero(row).tolist() for row in strict]
    match_left, match_right = [-1] * m, [-1] * m

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] < 0 or augment(match_right[j], seen):
                    match_left[i], match_right[j] = j, i
                    return True
        return False

    for i in range(m):
        augment(i, [False] * m)
    return match_left, match_right


def width_reference(rel, classes, linear=True):
    """Width certificate with the Koenig step walking per-row neighbour lists.

    Kuhn's search takes the classes by down-set size (stable, so ties keep
    class-index order) when ``linear`` is set, else in class-index order.
    """
    order = _class_order(rel, classes)
    m = classes.n_blocks
    strict = order.bits.copy()
    np.fill_diagonal(strict, False)
    below = [int(strict[:, j].sum()) for j in range(m)]
    lin = sorted(range(m), key=below.__getitem__) if linear else list(range(m))
    strict = np.array([[strict[a, b] for b in lin] for a in lin], dtype=bool).reshape(m, m)
    blocks = [classes.blocks[c] for c in lin]
    match_left, match_right = kuhn_reference(strict)
    adj = [[int(j) for j in np.flatnonzero(strict[i])] for i in range(m)]
    w = match_left.count(-1)

    chains = []
    for start in range(m):
        if match_right[start] >= 0:
            continue
        states = []
        c = start
        while True:
            states.extend(blocks[c])
            if match_left[c] < 0:
                break
            c = match_left[c]
        chains.append(tuple(states))
    chains.sort(key=lambda c: c[0])

    in_left = [match_left[i] < 0 for i in range(m)]
    in_right = [False] * m
    queue = [i for i in range(m) if in_left[i]]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j != match_left[i] and not in_right[j]:
                in_right[j] = True
                i2 = match_right[j]
                if i2 >= 0 and not in_left[i2]:
                    in_left[i2] = True
                    queue.append(i2)
    antichain = tuple(sorted(blocks[i][0] for i in range(m)
                             if in_left[i] and not in_right[i]))
    return WidthCertificate(width=w, antichain=antichain, chains=tuple(chains))


@functools.lru_cache(maxsize=1)
def width_table():
    """Preorders for the width references: points in the plane under the
    product order (integer coordinates on a small grid give equal points,
    hence classes), ``≤_R`` and ``≤_FS`` of random automata, and ``≤_R``
    of ``sep:6`` to ``sep:39``, of width up to 35."""
    rng = np.random.default_rng(7)
    rels = [Relation(0)]
    for t in range(300):
        n = int(rng.integers(1, 60))
        points = rng.random((n, 2)) if t % 2 else rng.integers(0, 6, (n, 2))
        rels.append(Relation.from_matrix(
            (points[:, None, :] <= points[None, :, :]).all(axis=2)))
    for seed in range(100):
        nfa = gen_random(4 + seed % 30, 1 + seed % 3, 0.15, seed)
        rels += [max_colex_relation(nfa), cfs_order(nfa)[0]]
    rels += [max_colex_relation(gen_separation_family(n)) for n in range(6, 40)]
    return tuple(rels)


class TestWidth:
    def test_identity_relation(self):
        cert = width(Relation(4))
        assert cert.width == 4
        assert len(cert.antichain) == 4
        assert sorted(cert.chains) == [(0,), (1,), (2,), (3,)]

    def test_empty_relation(self):
        assert width(Relation(0)) == WidthCertificate(0, (), ())

    def test_splice_lists_each_block_in_place_of_its_index(self):
        blocks = Partition(6, [[0, 3], [1], [2, 4, 5]])
        on_blocks = WidthCertificate(2, (1, 2), ((0, 2), (1,)))
        assert on_blocks.spliced(blocks) == WidthCertificate(
            2, (1, 2), ((0, 3, 2, 4, 5), (1,)))
        # Block i of a discrete partition is {i}: the certificate stands as it is.
        on_states = WidthCertificate(2, (1, 2), ((0, 2), (1,)))
        assert on_states.spliced(Partition(3, [[0], [1], [2]])) is on_states

    def test_chain_has_width_one(self):
        cert = width(closure(5, [(i, i + 1) for i in range(4)]))
        assert cert.width == 1
        assert cert.chains == ((0, 1, 2, 3, 4),)

    def test_preorder_classes_are_spliced_into_chains(self):
        rel = closure(3, [(0, 1), (1, 2), (2, 1)])  # 0 < {1,2}
        cert = width(rel)
        assert cert.width == 1
        assert cert.chains == ((0, 1, 2),)
        assert len(cert.antichain) == 1

    def test_separation_relation_width(self):
        for n in (6, 8, 11):
            nfa = gen_separation_family(n)
            cert = width(max_colex_relation(nfa))
            assert cert.width == n - 4
            names = [nfa.names[u] for u in cert.antichain]
            assert names == [f"u{i}" for i in range(5, n + 1)]

    def test_rejects_non_transitive(self):
        with pytest.raises(NotPreorder):
            width(Relation(3, [(0, 1), (1, 2)]))

    def test_matching_is_recursive_kuhns(self):
        # The certificates depend on which maximum matching is found, and
        # _max_matching carries its seen set over failed searches, which a
        # fresh search per root would not.  Small posets, sparse ones (points
        # in four to eight dimensions) of up to 300 points, and the class
        # orders of bench-shaped automata in the linear extension width
        # searches in; the last two leave many roots free.
        rng = np.random.default_rng(5)
        strict_orders = []
        for _ in range(60):
            n = int(rng.integers(1, 40))
            points = rng.random((n, int(rng.integers(1, 4))))
            strict_orders.append(("small", (points[:, None, :] < points[None, :, :]).all(axis=2)))
        rng = np.random.default_rng(6)
        for _ in range(12):
            n = int(rng.integers(100, 301))
            points = rng.random((n, int(rng.integers(4, 9))))
            strict_orders.append(("sparse", (points[:, None, :] < points[None, :, :]).all(axis=2)))
        for seed in range(6):
            rel = max_colex_relation(random_automaton(200, 2, 2, seed))
            order = _class_order(rel, induced_equivalence(rel)).bits
            lin = np.argsort(order.sum(axis=0), kind="stable")
            strict = order[np.ix_(lin, lin)]
            np.fill_diagonal(strict, False)
            strict_orders.append(("automaton", strict))
        failed = dict.fromkeys(("small", "sparse", "automaton"), 0)
        for kind, strict in strict_orders:
            match_left, match_right = kuhn_reference(strict)
            assert _max_matching(bitset_rows(strict)) == (match_left, match_right)
            # A root left free with a neighbour had a failed search.
            failed[kind] += sum(j < 0 and row.any() for j, row in zip(match_left, strict))
        assert failed["sparse"] >= 400 and failed["automaton"] >= 100

    def test_certificates_match_the_neighbour_list_reference(self):
        for rel in width_table():
            assert width(rel) == width_reference(rel, induced_equivalence(rel))

    def test_search_order_changes_neither_width_nor_antichain(self):
        # Dulmage-Mendelsohn: the vertices that alternating paths reach from
        # the free left vertices are the same for every maximum matching, so
        # Koenig's antichain is too; only the chains depend on the order.
        chains_differ = 0
        for rel in width_table():
            cert = width(rel)
            ref = width_reference(rel, induced_equivalence(rel), linear=False)
            assert (cert.width, cert.antichain) == (ref.width, ref.antichain)
            chains_differ += cert.chains != ref.chains
        assert chains_differ  # the two orders do find different matchings

    def test_ladder_augmenting_path_longer_than_the_recursion_limit(self):
        # c_j (id j-1) lies below f_j and f_{j-1} (id 2k-1-j).  By down-set
        # size the search order is c_1 .. c_k, f_0, then f_{k-1} .. f_1, so
        # Kuhn's search matches c_1 to f_0 and c_j to f_j for 1 < j < k, and
        # c_k augments along the k-1 rungs from f_{k-1} down to the free f_1:
        # 1099 steps, beyond the default recursion limit of 1000.
        k = 1100
        c = {j: j - 1 for j in range(1, k + 1)}
        f = {j: 2 * k - 1 - j for j in range(k)}
        pairs = [(c[j], f[j]) for j in range(1, k)] + [(c[j], f[j - 1]) for j in c]
        rel = Relation(2 * k, pairs)
        cert = width(rel)
        assert cert.width == k
        assert validate_reference(rel, cert) is None

    def test_shuffled_total_order(self):
        # Each element is matched to its successor at the first try; in
        # class-index order, not a linear extension, this size takes about 2 s.
        order = np.random.default_rng(11).permutation(2000)
        rank = np.argsort(order)
        rel = Relation.from_matrix(rank[:, None] <= rank[None, :])
        assert width(rel) == WidthCertificate(
            1, (int(order[-1]),), (tuple(order.tolist()),))

    @given(n=st.integers(1, 7),
           pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          max_size=16))
    @settings(max_examples=120, deadline=None)
    def test_width_matches_exhaustive_search(self, n, pairs):
        rel = closure(n, pairs)
        cert = width(rel)
        assert cert.width == brute_width(rel)
        # certificate coherence, re-checked from outside
        assert len(cert.antichain) == cert.width == len(cert.chains)
        assert sorted(x for c in cert.chains for x in c) == list(range(n))

    @given(n=st.integers(1, 6),
           pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          max_size=10),
           extra=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_width_shrinks_when_pairs_are_added(self, n, pairs, extra):
        assert width(closure(n, pairs + extra)).width <= width(closure(n, pairs)).width

    @given(n=st.integers(1, 6),
           pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_width_one_iff_total(self, n, pairs):
        rel = closure(n, pairs)
        assert (width(rel).width == 1) == rel.is_total()


class TestColexCheckers:
    def test_max_relation_passes(self, fig2, wheeler3, sep6):
        for nfa in (fig2, wheeler3, sep6):
            ok, violation = check_colex_relation(nfa, max_colex_relation(nfa))
            assert ok and violation is None

    def test_full_relation_fails_on_labels(self, fig2):
        full = Relation.from_matrix(np.ones((7, 7), dtype=bool))
        ok, violation = check_colex_relation(fig2, full)
        assert not ok
        assert violation.rule == "labels-decrease"
        u, v = violation.witness
        from nfaindex import lambda_leq
        assert not lambda_leq(fig2.lambda_set(u), fig2.lambda_set(v))

    def test_axiom2_violation_detected(self, wheeler3):
        # u2 ~ u3 without relating their (equal-label) predecessors is fine,
        # since the predecessor pair is (u1, u1); drop to a genuine case:
        # chain s -a-> x -a-> y, s -a-> z with y ~ z but x !~ s is impossible
        # to express on wheeler3, so build it directly.
        from nfaindex import Nfa
        nfa = Nfa(4, 0, [(0, "a", 1), (1, "a", 2), (0, "a", 3), (3, "a", 3)],
                  names=["s", "x", "y", "z"])
        rel = Relation(4, [(2, 3)])  # y ~ z but (x, z) missing
        ok, violation = check_colex_relation(nfa, rel)
        assert not ok
        assert violation.rule == "predecessors-unrelated"

    def test_order_rejects_cycle(self, wheeler3):
        rel = Relation(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
        ok, violation = check_colex_order(wheeler3, rel)
        assert not ok and violation.rule == "not-antisymmetric"

    def test_order_rejects_non_transitive(self, wheeler3):
        rel = Relation(3, [(1, 0), (0, 2)])
        ok, violation = check_colex_order(wheeler3, rel)
        assert not ok and violation.rule == "not-transitive"

    def test_separation_quotient_chain_is_colex_and_wheeler(self, sep6):
        qm = build_quotient(sep6, coarsest_fs_partition(sep6))
        q = qm.quotient
        # blocks: u1 | u2 | u3 | u4 | u5+u6; the chain u1 < u2 < u5+u6 < u3 < u4
        by_name = {nm: i for i, nm in enumerate(q.names)}
        seq = [by_name[nm] for nm in ("u1", "u2", "u5+u6", "u3", "u4")]
        rel = Relation(5, [(seq[i], seq[j]) for i in range(5) for j in range(i + 1, 5)])
        ok, violation = check_colex_order(q, rel)
        assert ok, violation
        ok, violation = check_wheeler_order(q, rel)
        assert ok, violation

    def test_size_mismatch(self, fig2):
        with pytest.raises(SizeMismatch):
            check_colex_relation(fig2, Relation(3))


class TestWheelerCheckers:
    def order(self, *seq, n=3):
        return Relation(n, [(seq[i], seq[j]) for i in range(len(seq))
                            for j in range(i + 1, len(seq))])

    def test_accepts_sorted_order(self, wheeler3):
        ok, violation = check_wheeler_order(wheeler3, self.order(0, 1, 2))
        assert ok and violation is None

    def test_rejects_initial_not_first(self, wheeler3):
        ok, violation = check_wheeler_order(wheeler3, self.order(1, 0, 2))
        assert not ok and violation.rule == "initial-not-first"

    def test_rejects_partial(self, wheeler3):
        ok, violation = check_wheeler_order(wheeler3, Relation(3, [(0, 1), (0, 2)]))
        assert not ok and violation.rule == "not-total"

    def test_label_order_axiom(self):
        # two labels entering states in the wrong relative position
        from nfaindex import Nfa
        nfa = Nfa(3, 0, [(0, "a", 1), (0, "b", 2)], names=["s", "x", "y"])
        good = self.order(0, 1, 2)
        ok, _ = check_wheeler_order(nfa, good)
        assert ok
        bad = self.order(0, 2, 1)  # puts the b-target before the a-target
        ok, violation = check_wheeler_order(nfa, bad)
        assert not ok and violation.rule == "label-order"

    def test_target_order_axiom(self):
        from nfaindex import Nfa
        nfa = Nfa(5, 0, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 4)],
                  names=["s", "x", "y", "p", "q"])
        ok, _ = check_wheeler_order(nfa, self.order(0, 1, 2, 3, 4, n=5))
        assert ok
        # x < y but their b-targets swapped
        ok, violation = check_wheeler_order(nfa, self.order(0, 1, 2, 4, 3, n=5))
        assert not ok and violation.rule == "target-order"

    def test_preorder_accepts_merged_sinks(self, wheeler3):
        rel = Relation(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
        ok, violation = check_wheeler_preorder(wheeler3, rel)
        assert ok and violation is None

    def test_preorder_rejects_strict_total_order(self, wheeler3):
        ok, violation = check_wheeler_preorder(wheeler3, self.order(0, 1, 2))
        assert not ok and violation.rule == "equivalence-mismatch"

    def test_preorder_rejects_non_total(self, wheeler3):
        ok, violation = check_wheeler_preorder(wheeler3, Relation(3, [(0, 1), (0, 2)]))
        assert not ok and violation.rule == "not-total"

    def test_preorder_checks_quotient_axioms(self, fig2):
        # right equivalence but quotient order scrambled: blocks of fig2 are
        # u0 | u1+u2 | u3+u4 | u5+u6 and the valid chain is u0,u3+u4,u1+u2,u5+u6
        p = coarsest_fs_partition(fig2)
        beta = p.block_of
        bad_block_order = [0, 1, 2, 3]  # u1+u2 before u3+u4: violates axioms
        pos = {b: i for i, b in enumerate(bad_block_order)}
        pairs = [(u, v) for u in range(7) for v in range(7)
                 if pos[beta[u]] <= pos[beta[v]]]
        ok, violation = check_wheeler_preorder(fig2, Relation(7, pairs))
        assert not ok
        assert violation.rule.startswith("quotient-")


def wide_middle_star(middles=256):
    """s0 -a-> s1..s(middles+2), related s1 < sX < s(middles+2) for every
    middle sX, but not s1 < s(middles+2): one gap with ``middles`` witnesses."""
    n = middles + 3
    nfa = Nfa(n, 0, [(0, "a", x) for x in range(1, n)],
              names=[f"s{i}" for i in range(n)])
    last = n - 1
    pairs = [(1, x) for x in range(2, last)] + [(x, last) for x in range(2, last)]
    return nfa, Relation(n, pairs)


class TestExactTransitivity:
    def test_gap_with_256_middles_is_found(self):
        nfa, rel = wide_middle_star(256)
        assert rel.transitivity_witness() == (1, 2, 258)
        ok, violation = check_colex_order(nfa, rel)
        assert not ok and violation.rule == "not-transitive"
        assert violation.witness == (1, 2, 258)

    def test_gap_with_256_middles_through_the_cli(self, capsys, tmp_path):
        nfa, rel = wide_middle_star(256)
        nfa_path = tmp_path / "star.nfa"
        nfa_path.write_text(nfa.serialize())
        rel_path = tmp_path / "star.rel.json"
        rel_path.write_text(json.dumps(relation_to_json_dict(rel, nfa.names)))
        code = main(["check", str(nfa_path), "--relation", str(rel_path),
                     "--kind", "colex-order"])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        assert out["valid"] is False
        assert out["violation"]["rule"] == "not-transitive"


def axiom1_reference(nfa, rel, strict_name):
    """Loop form of the axiom-1 check: first (u, v) in row-major order."""
    max_key = [max(label_key(a) for a in s) for s in nfa.lambda_sets]
    min_key = [min(label_key(a) for a in s) for s in nfa.lambda_sets]
    for u in range(nfa.n_states):
        for v in range(nfa.n_states):
            if u != v and rel.bits[u, v] and max_key[u] > min_key[v]:
                return Violation(
                    "labels-decrease", (u, v),
                    f"{nfa.names[u]} {strict_name} {nfa.names[v]} but incoming labels "
                    f"{sorted(nfa.lambda_sets[u])} exceed {sorted(nfa.lambda_sets[v])}")
    return None


def axiom2_reference(nfa, rel, strict_name):
    """Loop form of the axiom-2 check: first pair of equal-label edges."""
    for a in nfa.alphabet:
        edges = [(u, v) for (u, lab, v) in nfa.transitions if lab == a]
        for (up, u) in edges:
            for (vp, v) in edges:
                if u != v and rel.bits[u, v] and not rel.bits[up, vp]:
                    return Violation(
                        "predecessors-unrelated", (u, v, up, vp, a),
                        f"{nfa.names[u]} {strict_name} {nfa.names[v]} via "
                        f"{a!r}-edges from {nfa.names[up]}, {nfa.names[vp]} "
                        f"but ({nfa.names[up]}, {nfa.names[vp]}) is not related")
    return None


def trie(words):
    """Trie over ``words``; node names are the prefixes they spell."""
    names = ["root"]
    ids = {"": 0}
    trans = []
    for word in words:
        for i in range(1, len(word) + 1):
            if word[:i] not in ids:
                ids[word[:i]] = len(names)
                names.append(word[:i])
                trans.append((ids[word[:i - 1]], word[i - 1], ids[word[:i]]))
    return Nfa(len(names), 0, trans, names=names)


def corrupted(rel, rng, rate):
    """Copy of ``rel`` with each off-diagonal cell flipped with probability ``rate``."""
    return Relation.from_matrix(rel.bits ^ (rng.random(rel.bits.shape) < rate))


class TestArrayCheckersMatchLoops:
    @pytest.mark.parametrize("name", ["fig2", "trie", "random40"])
    def test_same_first_violation(self, name):
        if name == "fig2":
            nfas = [gen_fixture("fig2")]
        elif name == "trie":
            rng = np.random.default_rng(1)
            nfas = [trie(["".join(rng.choice(list("abc"), size=rng.integers(1, 7)))
                          for _ in range(12)])]
        else:
            nfas = [gen_random(40, 3, 0.02, seed) for seed in range(4)]
        rng = np.random.default_rng(7)
        found = 0
        for nfa in nfas:
            base = max_colex_relation(nfa)
            for rate in (0.0, 0.002, 0.01, 0.05, 0.3):
                for _ in range(6):
                    rel = corrupted(base, rng, rate)
                    for strict_name in ("~", "<"):
                        v1 = _axiom1_violation(nfa, rel, strict_name)
                        assert v1 == axiom1_reference(nfa, rel, strict_name)
                        v2 = _axiom2_violation(nfa, rel, strict_name)
                        assert v2 == axiom2_reference(nfa, rel, strict_name)
                        found += (v1 is not None) + (v2 is not None)
        assert found > 0


def scan_cells_reference(nfa, rel):
    """The two axiom-2 scans' cells by a loop over same-label edge pairs:
    all of them, and those whose targets are related and distinct."""
    dense = sparse = 0
    for a in nfa.alphabet:
        targets = [v for (_, lab, v) in nfa.transitions if lab == a]
        for u in targets:
            for v in targets:
                dense += 1
                sparse += bool(u != v and rel.bits[u, v])
    return dense, sparse


def scan_items_reference(nfa, rel):
    """The sparse scan's (row, v) items by a loop: for each edge, the
    states related to its target, other than the target."""
    return sum(int(rel.bits[u].sum()) - 1 for (_, _, u) in nfa.transitions)


def swapped_order(nfa, i):
    """The maximum co-lex relation of a trie, a total order, with the
    elements at positions i and i + 1 of the order swapped."""
    bits = max_colex_relation(nfa).bits
    order = np.argsort(bits.sum(axis=0), kind="stable")  # by down-set size
    order[[i, i + 1]] = order[[i + 1, i]]
    pos = np.empty(nfa.n_states, dtype=np.intp)
    pos[order] = np.arange(nfa.n_states)
    return Relation.from_matrix(pos[:, None] <= pos[None, :])


def scan_table(family):
    """(automaton, relation) pairs of one family, most with several violations."""
    rng = np.random.default_rng(11)
    if family == "random":
        for n, sigma, degree in [(60, 3, 3), (200, 2, 2), (141, 4, 6)]:
            nfa = random_automaton(n, sigma, degree, n)
            base = max_colex_relation(nfa).bits
            for density in (0.001, 0.01, 0.1):
                yield nfa, Relation.from_matrix(base | (rng.random(base.shape) < density))
    elif family == "trie-swap":
        nfa = word_trie(80, 4)
        for i in (0, 1, 40, 57, nfa.n_states - 2):
            yield nfa, swapped_order(nfa, i)
    elif family == "labels":
        yield later_label_witness()
        for seed in range(3):
            nfa = random_automaton(80, 12, 5, seed)
            base = max_colex_relation(nfa).bits
            for density in (0.01, 0.1):
                yield nfa, Relation.from_matrix(base | (rng.random(base.shape) < density))
    else:
        for n in (7, 60, 300):
            nfa = gen_separation_family(n) if family == "sep" else unary_path(n)
            base = max_colex_relation(nfa)
            for rate in (0.001, 0.01, 0.1):
                yield nfa, corrupted(base, rng, rate)


def later_label_witness():
    """An automaton over 12 labels and a relation with axiom-2 witnesses on
    l05, from states 3 and 4, and on l09, from the lower states 1 and 2; the
    edges of l02 out of 15 and 16 have none.  The first witness is l05's,
    though l09's edges come first in listed order."""
    edges = [(0, f"l{i:02d}", 1 + i) for i in range(12)]
    edges += [(1, "l09", 13), (2, "l09", 14), (3, "l05", 15), (4, "l05", 16),
              (15, "l02", 17), (16, "l02", 18)]
    return Nfa(19, 0, edges), Relation(19, [(13, 14), (15, 16)])


def forced(monkeypatch, sparse):
    """Make the axiom-2 check take the sparse scan, with no bound on its
    cost, or the masks, as when the sparse scan declines."""
    scan = relations._sparse_first_edge_pair
    monkeypatch.setattr(relations, "_sparse_first_edge_pair",
                        lambda *args: sparse and scan(*args[:-1], math.inf))


class TestSparseScanMatchesMasks:
    @pytest.mark.parametrize("batch", [relations._EDGE_PAIR_CELLS, 61, 1])
    @pytest.mark.parametrize("family", ["random", "labels", "trie-swap", "sep", "path"])
    def test_same_first_witness(self, monkeypatch, family, batch):
        monkeypatch.setattr(relations, "_EDGE_PAIR_CELLS", batch)
        found = 0
        for nfa, rel in scan_table(family):
            got = {}
            for sparse in (True, False):
                forced(monkeypatch, sparse)
                got[sparse] = (_axiom2_violation(nfa, rel, "~"),
                               _axiom2_violation(nfa, rel, "<"))
            assert got[True] == got[False]
            found += got[True][0] is not None
        if family == "trie-swap":
            assert found == 5
        else:
            assert found >= 4

    def test_first_witness_matches_the_loop(self, monkeypatch):
        forced(monkeypatch, sparse=True)
        for family in ("random", "labels", "sep", "path"):
            for nfa, rel in scan_table(family):
                if nfa.n_states <= 80:
                    assert (_axiom2_violation(nfa, rel, "<")
                            == axiom2_reference(nfa, rel, "<"))

    @pytest.mark.parametrize("sparse", [True, False])
    def test_first_witness_is_in_the_first_label_with_one(self, monkeypatch, sparse):
        forced(monkeypatch, sparse)
        nfa, rel = later_label_witness()
        got = _axiom2_violation(nfa, rel, "~")
        assert got.witness == (15, 16, 3, 4, "l05")
        assert got == axiom2_reference(nfa, rel, "~")

    def test_gap_with_256_middles(self):
        nfa, rel = wide_middle_star(256)
        ok, violation = check_colex_order(nfa, rel)
        assert not ok and violation.rule == "not-transitive"
        assert violation.witness == (1, 2, 258)

    def test_cell_counts_match_the_loop(self, monkeypatch):
        # The scan runs at a budget of its cost times its items and cells,
        # and declines one below: it counts them exactly.  The cost is large,
        # so the declines before the count leave such a budget alone.
        cost = 10 ** 6
        monkeypatch.setattr(relations, "_SPARSE_AXIOM2_COST", cost)
        rng = np.random.default_rng(5)
        for nfa in [gen_fixture("fig2"), gen_separation_family(9),
                    random_automaton(30, 3, 4, 1), word_trie(40, 2)]:
            src, lab, dst, _ = nfa._label_major
            base = max_colex_relation(nfa)
            for rel in (base, corrupted(base, rng, 0.2), Relation(nfa.n_states)):
                own = scan_items_reference(nfa, rel) + scan_cells_reference(nfa, rel)[1]
                budget = cost * own
                assert _sparse_first_edge_pair(rel.bits, src, dst, lab, budget) is not False
                assert _sparse_first_edge_pair(rel.bits, src, dst, lab, budget - 1) is False

    def test_memory_is_bounded_on_a_dense_user_relation(self, monkeypatch):
        # A relation with a tenth of the pairs related on a one-label
        # automaton of out-degree 6: the sparse scan visits a tenth of the
        # mask cells, about 3.8M, and must build them a group at a time.
        # What remains is the list of related pairs, about 33 bytes each
        # while it is built (3.5 MB here).
        forced(monkeypatch, sparse=True)
        nfa = random_automaton(1024, 1, 6, 2)
        rng = np.random.default_rng(3)
        bits = max_colex_relation(nfa).bits | (rng.random((1024, 1024)) < 0.1)
        rel = Relation.from_matrix(bits)
        peak = traced_peak(lambda: _axiom2_violation(nfa, rel, "<"))
        monkeypatch.setattr(relations, "_EDGE_PAIR_CELLS", 1 << 30)
        with_one_group = traced_peak(lambda: _axiom2_violation(nfa, rel, "<"))
        assert peak < 6 * 1024 * 1024 and 10 * peak < with_one_group

    def test_memory_is_bounded_when_related_states_lack_the_label(self, monkeypatch):
        # The automaton above with each edge labelled by its target modulo
        # 3, and a tenth of the pairs of states of different labels related:
        # no v related to an edge's target has an in-edge on its label, so
        # the scan visits about 0.4M (row, v) items and no cell.  Groups are
        # cut on items and cells, so they stay small.
        forced(monkeypatch, sparse=True)
        edges = random_automaton(1024, 1, 6, 2).transitions
        nfa = Nfa(1024, 0, [(u, "abc"[v % 3], v) for (u, _, v) in edges])
        rng = np.random.default_rng(3)
        label = np.arange(1024) % 3
        rel = Relation.from_matrix((label[:, None] != label) & (rng.random((1024, 1024)) < 0.1))
        peak = traced_peak(lambda: _axiom2_violation(nfa, rel, "<"))
        monkeypatch.setattr(relations, "_EDGE_PAIR_CELLS", 1 << 30)
        with_one_group = traced_peak(lambda: _axiom2_violation(nfa, rel, "<"))
        assert peak < 6 * 1024 * 1024 and 4 * peak < with_one_group


def traced_peak(call):
    """Peak traced memory, in bytes, while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labelled_apart(n):
    """A random automaton of out-degree 3 with one label per edge, except
    that the first 100 edges share their labels in pairs."""
    edges = random_automaton(n, 1, 3, 5).transitions
    return Nfa(n, 0, [(u, f"p{i // 2:02d}" if i < 100 else f"s{i:04d}", v)
                      for i, (u, _, v) in enumerate(edges)])


@pytest.fixture
def scans(monkeypatch):
    """Names of the axiom-2 scans run, in order, and of the sparse scan's
    index built (``_related_pairs``); a sparse scan that declines is not
    named."""
    ran = []
    for name in ("_sparse_first_edge_pair", "_first_edge_pair", "_related_pairs"):
        def record(*args, _real=getattr(relations, name), _name=name):
            got = _real(*args)
            if got is not False:
                ran.append(_name)
            return got
        monkeypatch.setattr(relations, name, record)
    return ran


class TestScanChoice:
    @pytest.mark.parametrize("n,sigma,degree", [
        (50, 3, 4), (71, 2, 3), (100, 2, 2), (141, 4, 6), (200, 2, 2)])
    def test_sparse_on_random_automata(self, scans, n, sigma, degree):
        max_colex_relation(random_automaton(n, sigma, degree, 3))
        assert set(scans) == {"_related_pairs", "_sparse_first_edge_pair"}

    def test_sparse_at_a_thousand_states(self, scans):
        nfa = random_automaton(1000, 3, 6, 1)
        rel = max_colex_relation(nfa)
        assert set(scans) == {"_related_pairs", "_sparse_first_edge_pair"}
        mask_cells, cells = scan_cells_reference(nfa, rel)
        assert _SPARSE_AXIOM2_COST * (scan_items_reference(nfa, rel) + cells) * 100 < mask_cells

    @pytest.mark.parametrize("make", [
        lambda: word_trie(271, 3), lambda: word_trie(271, 4, "abcd"),
        lambda: unary_path(400)], ids=["trie271", "trie271-4-letters", "path400"])
    def test_masks_on_trie_orders_and_paths(self, scans, make):
        nfa = make()
        rel = max_colex_relation(nfa)
        assert rel.is_total()
        assert set(scans) == {"_first_edge_pair"}
        dense, sparse = scan_cells_reference(nfa, rel)
        assert 2 * sparse < dense < 2.2 * sparse  # half the edge pairs, not fewer

    def test_labels_with_one_edge_are_not_scanned(self, scans):
        nfa = labelled_apart(1000)
        assert len(nfa.alphabet) > 2900
        max_colex_relation(nfa)
        assert scans == ["_first_edge_pair"] * 50

    @pytest.mark.parametrize("sparse", [True, False])
    def test_labels_with_one_edge_keep_the_first_witness(self, monkeypatch, sparse):
        forced(monkeypatch, sparse)
        nfa = labelled_apart(150)
        rng = np.random.default_rng(6)
        base = max_colex_relation(nfa)
        found = 0
        for rate in (0.01, 0.05, 0.3):
            for _ in range(4):
                rel = corrupted(base, rng, rate)
                got = _axiom2_violation(nfa, rel, "~")
                assert got == axiom2_reference(nfa, rel, "~")
                found += got is not None
        assert found >= 4

    @pytest.mark.parametrize("make", [
        lambda: word_trie(271, 3), lambda: word_trie(300, 0, [f"l{i:03d}" for i in range(200)]),
        lambda: random_automaton(300, 50, 4, 0)],
        ids=["trie271", "trie-200-letters", "random-50-letters"])
    def test_no_count_where_it_costs_more_than_it_can_save(self, scans, make):
        max_colex_relation(make())
        assert set(scans) == {"_first_edge_pair"}

    @pytest.mark.parametrize("share, chosen", [
        (1.0, {"_first_edge_pair"}), (0.1, {"_related_pairs", "_sparse_first_edge_pair"})])
    def test_items_without_cells(self, scans, share, chosen):
        # States 1..119 have four in-edges, all labelled by the state's
        # parity, and a share of the pairs of states of different parity
        # is related: no related pair has a common in-label, so the sparse
        # scan has items and no cell.  Its items alone decide: with every
        # such pair related they cost twice the masks' cells, and it
        # declines before listing the pairs; with a tenth, it runs.
        rng = np.random.default_rng(4)
        edges = [(int(u), "ab"[v % 2], v) for v in range(1, 120)
                 for u in rng.choice(v, size=min(v, 4), replace=False)]
        nfa = Nfa(120, 0, edges)
        parity = np.arange(120) % 2
        rel = Relation.from_matrix((parity[:, None] != parity) & (rng.random((120, 120)) < share))
        assert scan_cells_reference(nfa, rel)[1] == 0
        assert _axiom2_violation(nfa, rel, "~") is None
        assert set(scans) == chosen

    def test_pairs_times_labels_decide(self, scans):
        # A 300-state path on "a" with 99 one-edge labels beside it, and a
        # twentieth of the path's pairs related: the sparse scan's items and
        # cells cost less than the masks' 89500 cells, but its count of
        # cells would take the pairs times 100 labels, and it declines
        # before listing the pairs.
        edges = [(i, "a", i + 1) for i in range(299)]
        edges += [(0, f"l{i:02d}", 300 + i) for i in range(99)]
        nfa = Nfa(399, 0, edges)
        rng = np.random.default_rng(8)
        bits = np.zeros((399, 399), bool)
        bits[:300, :300] = rng.random((300, 300)) < 0.05
        rel = Relation.from_matrix(bits)
        assert _axiom2_violation(nfa, rel, "<") == axiom2_reference(nfa, rel, "<")
        assert set(scans) == {"_first_edge_pair"}


def wheeler_order_reference(nfa, rel):
    """Loop form of check_wheeler_order: first pair of transitions in listed order."""
    viol = _partial_order_violation(nfa, rel) or _totality_violation(nfa, rel)
    if viol is not None:
        return False, viol
    s = nfa.initial
    not_first = np.flatnonzero(~rel.bits[s])
    if len(not_first):
        v = int(not_first[0])
        return False, Violation(
            "initial-not-first", (s, v),
            f"initial state {nfa.names[s]} does not precede {nfa.names[v]}")
    for (up, a, u) in nfa.transitions:
        for (vp, b, v) in nfa.transitions:
            if label_key(a) < label_key(b):
                if u == v or not rel.bits[u, v]:
                    return False, Violation(
                        "label-order", (u, v, a, b),
                        f"{a!r}-target {nfa.names[u]} must strictly precede "
                        f"{b!r}-target {nfa.names[v]}")
            elif a == b:
                if up != vp and rel.bits[up, vp] and not rel.bits[u, v]:
                    return False, Violation(
                        "target-order", (up, vp, u, v, a),
                        f"{nfa.names[up]} < {nfa.names[vp]} on {a!r}-edges "
                        f"but target {nfa.names[u]} does not precede {nfa.names[v]}")
    return True, None


def linear(sequence):
    """Total order listing ``sequence`` from least to greatest."""
    pos = np.empty(len(sequence), dtype=np.intp)
    pos[list(sequence)] = np.arange(len(sequence))
    return Relation.from_matrix(pos[:, None] <= pos[None, :])


def near_wheeler_orders(nfa, rng, count):
    """Total orders with the initial state first that mostly respect the
    incoming labels: sorted by (smallest incoming label, random key), then a
    few random adjacent swaps after the first position."""
    rank = {a: i for i, a in enumerate(nfa.alphabet, 1)}
    low = [min(rank.get(a, 0) for a in s) for s in nfa.lambda_sets]
    for _ in range(count):
        key = rng.random(nfa.n_states)
        seq = sorted(range(nfa.n_states), key=lambda u: (u != nfa.initial, low[u], key[u]))
        for _ in range(rng.integers(0, 3)):
            i = int(rng.integers(1, max(2, nfa.n_states - 1)))
            if i + 1 < nfa.n_states:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
        yield linear(seq)


class TestWheelerOrderMatchesLoop:
    def instances(self):
        rng = np.random.default_rng(3)
        yield gen_fixture("fig2")
        yield gen_fixture("wheeler3")
        # The last trie has over 150 edges: its scans take more than one row chunk.
        for words, longest in ((5, 6), (12, 6), (30, 6), (30, 14)):
            yield trie(["".join(rng.choice(list("abcd"), size=rng.integers(1, longest)))
                        for _ in range(words)])
        for seed in range(6):
            yield gen_random(25, 3, 0.04, seed)

    def test_same_verdict_and_first_violation(self):
        rng = np.random.default_rng(11)
        rules = set()
        for nfa in self.instances():
            relations = [max_colex_relation(nfa)]
            relations += [corrupted(relations[0], rng, rate) for rate in (0.01, 0.1)]
            relations += list(near_wheeler_orders(nfa, rng, 12))
            if relations[0].is_total():  # a Wheeler order: swap neighbours in it
                seq = np.argsort(relations[0].bits.sum(axis=0))
                for k in rng.integers(1, nfa.n_states - 1, size=10):
                    seq[[k, k + 1]] = seq[[k + 1, k]]
                    relations.append(linear(seq))
                    seq[[k, k + 1]] = seq[[k + 1, k]]
            relations += [corrupted(r, rng, 0.002) for r in relations[-4:]]
            for rel in relations:
                got = check_wheeler_order(nfa, rel)
                assert got == wheeler_order_reference(nfa, rel)
                rules.add(got[1].rule if got[1] else "valid")
        assert {"label-order", "target-order", "valid"} <= rules

    def test_through_the_preorder_checker(self):
        rng = np.random.default_rng(5)
        rules = set()
        for nfa in self.instances():
            classes = coarsest_fs_partition(nfa)
            qm = build_quotient(nfa, classes)
            for order in near_wheeler_orders(qm.quotient, rng, 12):
                block_rank = order.bits.sum(axis=0)  # elements at or below each block
                beta = np.array(classes.block_of)
                rel = Relation.from_matrix(block_rank[beta][:, None] <= block_rank[beta][None, :])
                ok, viol = check_wheeler_preorder(nfa, rel)
                ref_ok, ref_viol = wheeler_order_reference(qm.quotient, order)
                assert ok == ref_ok
                if not ok:
                    assert viol == Violation("quotient-" + ref_viol.rule,
                                             ref_viol.witness, ref_viol.detail)
                rules.add(viol.rule if viol else "valid")
        assert {"quotient-label-order", "quotient-target-order"} <= rules


class TestRelationJsonText:
    @pytest.mark.parametrize("names", [
        ["s", "x", "y", "z"],
        ["s", "é", "☃", "\U0001d11e"],
        ["s", '"q"', "a\\b", "'"],
    ])
    def test_same_bytes_as_the_json_module(self, names):
        nfa = Nfa(4, 0, [(0, "a", 1), (0, "b", 2), (2, "a", 3)], names=names)
        rng = np.random.default_rng(2)
        rels = [Relation(4), max_colex_relation(nfa), Relation.from_matrix(np.ones((4, 4)))]
        rels += [corrupted(Relation(4), rng, 0.4) for _ in range(5)]
        for rel in rels:
            expected = json.dumps(relation_to_json_dict(rel, nfa.names), indent=2)
            assert relation_to_json_text(rel, nfa.names) == expected
        assert '"pairs": []' in relation_to_json_text(Relation(4), nfa.names)

    def test_large_relation(self):
        nfa = gen_random(120, 3, 0.03, 2)
        rel = corrupted(max_colex_relation(nfa), np.random.default_rng(0), 0.1)
        assert (relation_to_json_text(rel, nfa.names)
                == json.dumps(relation_to_json_dict(rel, nfa.names), indent=2))

    @pytest.mark.parametrize("names", [
        [f"q{i}" for i in range(7)],
        ['"', "\\", "é", "\x00", "\n\t", "\x1f\x7f", 'a"b\\c'],
    ])
    def test_rows_with_and_without_pairs(self, names):
        # No pair besides the reflexive ones, which are not listed; pairs in
        # rows 1, 4 and 6 only; a dense total order, both ways; every pair.
        some = np.zeros((7, 7), bool)
        some[[1, 1, 4, 6], [0, 5, 4, 2]] = True
        total = np.triu(np.ones((7, 7), bool))
        for matrix in (np.zeros((7, 7)), some, total, total.T, np.ones((7, 7))):
            rel = Relation.from_matrix(matrix)
            expected = json.dumps(relation_to_json_dict(rel, names), indent=2)
            assert relation_to_json_text(rel, names) == expected

    def test_names_must_match_size(self):
        with pytest.raises(SizeMismatch):
            relation_to_json_text(Relation(3), ["a", "b"])

    def test_relation_over_no_elements(self):
        expected = json.dumps({"n": 0, "pairs": []}, indent=2)
        assert relation_to_json_text(Relation(0), []) == expected


class TestQuotientJsonText:
    @staticmethod
    def expected(nfa):
        qm = build_quotient(nfa, coarsest_fs_partition(nfa))
        return qm, json.dumps({"blocks": qm.partition.blocks_by_name(nfa.names),
                               "quotient": qm.quotient.serialize()}, indent=2) + "\n"

    @pytest.mark.parametrize("names", [
        ["s", "x", "y", "z"],
        ["s", "é", "☃", "\U0001d11e"],
        ["s", '"q"', "a\\b", "'"],
    ])
    def test_same_bytes_as_the_json_module(self, names):
        discrete = Nfa(4, 0, [(0, "a", 1), (0, "b", 2), (2, "a", 3)], names=names)
        merged = Nfa(4, 0, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 3)],
                     names=names)
        for nfa, n_blocks in ((discrete, 4), (merged, 3)):
            qm, expected = self.expected(nfa)
            assert qm.partition.n_blocks == n_blocks
            assert quotient_to_json_text(qm, nfa.names) == expected

    def test_random_automata(self):
        kinds = set()
        for seed in range(12):
            nfa = gen_random(40, 2, 0.03, seed)
            qm, expected = self.expected(nfa)
            kinds.add(qm.quotient is nfa)
            assert quotient_to_json_text(qm, nfa.names) == expected, seed
        assert kinds == {True, False}  # discrete and non-discrete partitions

    def test_colliding_joined_names(self):
        nfa = Nfa(4, 0, [(0, "a", 1), (0, "a", 2), (0, "b", 3)],
                  names=["s", "x", "y", "x+y"])
        qm, expected = self.expected(nfa)
        assert qm.quotient.names == ("0:s", "1:x+y", "2:x+y")
        assert quotient_to_json_text(qm, nfa.names) == expected

    def test_one_state(self):
        nfa = Nfa(1, 0, [], names=["q"])
        qm, expected = self.expected(nfa)
        assert quotient_to_json_text(qm, nfa.names) == expected
        assert expected == '{\n  "blocks": [\n    [\n      "q"\n    ]\n  ],\n  "quotient": "initial q\\n"\n}\n'

    def test_names_must_match_size(self, wheeler3):
        qm = build_quotient(wheeler3, coarsest_fs_partition(wheeler3))
        with pytest.raises(SizeMismatch):
            quotient_to_json_text(qm, ["a", "b"])


class TestRelationJsonErrors:
    @pytest.mark.parametrize("pairs, message", [
        ([["u1", "u2"], "u1u2"], "malformed relation pair 'u1u2'"),
        ([["u1", "u2"], 7, ["u1"]], "malformed relation pair 7"),
        ([["u1", "u2", "u3"]], "malformed relation pair ['u1', 'u2', 'u3']"),
        ([["u1", "u2"], ["u2", 3]], "state name 3 in relation is not a string"),
        ([[["u1"], "u2"]], "state name ['u1'] in relation is not a string"),
        ([["u1", None], ["zz", "u2"]], "state name None in relation is not a string"),
        ([["u1", "zz"], ["u1", "u2", "u3"]], "unknown state name 'zz' in relation"),
        ([["yy", 5], "bad"], "unknown state name 'yy' in relation"),
    ])
    def test_first_bad_item_is_named(self, wheeler3, pairs, message):
        with pytest.raises(ValidationError) as exc:
            relation_from_json_dict({"n": 3, "pairs": pairs}, wheeler3)
        assert str(exc.value) == message

    def test_tuples_and_list_subclasses_are_pairs(self, wheeler3):
        class Pair(list):
            pass
        obj = {"n": 3, "pairs": (("u1", "u2"), Pair(["u2", "u3"]))}
        assert relation_from_json_dict(obj, wheeler3) == Relation(3, [(0, 1), (1, 2)])

    def test_empty_pairs(self, wheeler3):
        assert relation_from_json_dict({"n": 3, "pairs": []}, wheeler3) == Relation(3)

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (5, 0), (0, -1)], "pair (5,0) out of range for n=3"),
        ([(0, 1), (0, -1), (5, 0)], "pair (0,-1) out of range for n=3"),
        ([(np.int64(2), 3)], "pair (2,3) out of range for n=3"),
    ])
    def test_constructor_names_the_first_out_of_range_pair(self, pairs, message):
        with pytest.raises(SizeMismatch) as exc:
            Relation(3, pairs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("pairs", [[(1.5, 2)], [("1", 2)]])
    def test_constructor_rejects_non_integers(self, pairs):
        with pytest.raises(TypeError):
            Relation(3, pairs)

    def test_constructor_accepts_any_iterable(self):
        rel = Relation(3, ((u, u + 1) for u in range(2)))
        assert rel.pairs() == [(0, 1), (1, 2)]


def consecutive_pairs(chain):
    return zip(chain, chain[1:])


def all_pairs(chain):
    return ((u, v) for i, u in enumerate(chain) for v in chain[i + 1:])


def validate_reference(rel, cert, chain_pairs=consecutive_pairs):
    """Loop form of the certificate validation; returns the message or None.

    A chain is checked by consecutive pairs, which decides it for a
    transitive relation; ``chain_pairs`` can give another choice of pairs.
    """
    if len(cert.antichain) != cert.width or len(cert.chains) != cert.width:
        return (f"certificate sizes {len(cert.antichain)}/{len(cert.chains)} "
                f"do not match width {cert.width}")
    for i, u in enumerate(cert.antichain):
        for v in cert.antichain[i + 1:]:
            if rel.bits[u, v] or rel.bits[v, u]:
                return f"antichain members {u} and {v} are comparable"
    flat = sorted(x for c in cert.chains for x in c)
    if flat != list(range(rel.n)):
        return "chains do not partition the elements"
    for chain in cert.chains:
        for u, v in chain_pairs(chain):
            if not rel.bits[u, v]:
                return f"chain elements {u} and {v} are not ordered"
    return None


class TestCertificateValidation:
    def test_corrupted_certificates_match_the_loop(self):
        rng = np.random.default_rng(4)
        messages = set()
        for _ in range(60):
            n = int(rng.integers(4, 16))
            pairs = [tuple(rng.integers(0, n, size=2)) for _ in range(int(rng.integers(0, 2 * n)))]
            rel = closure(n, pairs)
            cert = width(rel)
            antichain, chains = list(cert.antichain), [list(c) for c in cert.chains]
            kind = rng.integers(0, 3)
            if kind == 0:
                antichain[rng.integers(len(antichain))] = int(rng.integers(n))
            elif kind == 1:
                c = chains[rng.integers(len(chains))]
                rng.shuffle(c)
            else:
                src, dst = rng.integers(len(chains), size=2)
                if len(chains[src]) > 1:
                    chains[dst].insert(int(rng.integers(len(chains[dst]) + 1)),
                                       chains[src].pop(int(rng.integers(len(chains[src])))))
            bad = WidthCertificate(cert.width, tuple(antichain),
                                   tuple(tuple(c) for c in chains))
            expected = validate_reference(rel, bad)
            # On a transitive relation, consecutive pairs give the verdict
            # of all pairs; only the pair named can differ.
            every_pair = validate_reference(rel, bad, all_pairs)
            assert (expected is None) == (every_pair is None)
            if expected is not None:
                assert expected.split()[:2] == every_pair.split()[:2]
            if expected is None:
                _validate_certificate(rel, bad)
            else:
                with pytest.raises(InternalInvariantViolation) as exc:
                    _validate_certificate(rel, bad)
                assert str(exc.value) == expected
                messages.add(expected.split()[0])
        assert {"antichain", "chain"} <= messages

    def test_chain_and_width_mutations_match_the_loop(self):
        # A chain element dropped, repeated in place of another or on top,
        # a repeated antichain member, and a width off by one either way.
        rng = np.random.default_rng(8)
        messages = set()
        for t in range(80):
            n = int(rng.integers(3, 16))
            pairs = [tuple(rng.integers(0, n, size=2)) for _ in range(int(rng.integers(0, 2 * n)))]
            rel = closure(n, pairs)
            cert = width(rel)
            antichain, chains = list(cert.antichain), [list(c) for c in cert.chains]
            c = chains[rng.integers(len(chains))]
            x = int(rng.integers(n))
            w = cert.width
            kind = t % 6
            if kind == 0:
                del c[rng.integers(len(c))]
            elif kind == 1:
                c[rng.integers(len(c))] = x
            elif kind == 2:
                c.insert(int(rng.integers(len(c) + 1)), x)
            elif kind == 3:
                antichain.append(antichain[rng.integers(len(antichain))])
                chains.append([])
                w += 1
            else:
                w += 1 if kind == 4 else -1
            bad = WidthCertificate(w, tuple(antichain), tuple(tuple(c) for c in chains))
            expected = validate_reference(rel, bad)
            if expected is None:  # a chain element replaced by itself
                _validate_certificate(rel, bad)
                continue
            with pytest.raises(InternalInvariantViolation) as exc:
                _validate_certificate(rel, bad)
            assert str(exc.value) == expected
            messages.add(" ".join(expected.split()[:2]))
        assert messages == {"certificate sizes", "antichain members", "chains do"}
