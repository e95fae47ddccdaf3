"""Relations: JSON forms, order checkers, width and its certificates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    Nfa,
    NotPreorder,
    PartitionMismatch,
    Partition,
    Relation,
    SizeMismatch,
    ValidationError,
    brute_width,
    build_quotient,
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
    width,
)
from nfaindex.automaton import label_key
from nfaindex.cli import main
from nfaindex.relations import Violation, _axiom1_violation, _axiom2_violation


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


class TestWidth:
    def test_identity_relation(self):
        cert = width(Relation(4))
        assert cert.width == 4
        assert len(cert.antichain) == 4
        assert sorted(cert.chains) == [(0,), (1,), (2,), (3,)]

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
