"""Maximum co-lex relation, the forward-stable order, and the comparison."""

import random
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    EqualPair,
    InternalInvariantViolation,
    InvalidParameter,
    Nfa,
    PairGraph,
    TooLarge,
    brute_max_colex_relation,
    cfs_order,
    cfs_width,
    check_colex_order,
    check_colex_relation,
    check_wheeler_preorder,
    coarsest_fs_partition,
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
from nfaindex.relations import MAX_DENSE_STATES, Relation

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
        hi, lo = nfa.label_bounds
        assert (hi[:, None] > lo[None, :]).sum() > colex._CHUNK
        assert set(max_colex_relation(nfa).pairs()) == pair_graph_reference(nfa)

    def test_unary_path_thousand_states(self):
        # A tree: the words a^i are ordered by length.
        n = 1000
        rel = max_colex_relation(Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)]))
        assert int(rel.bits.sum()) == 500500
        assert np.array_equal(rel.bits, np.triu(np.ones((n, n), dtype=bool)))

    def test_unary_path_at_the_dense_limit(self, monkeypatch):
        # The ranks of the words give the relation, and the nested rows of a
        # total order its transitivity: about 0.2 s and a 32 MiB traced peak
        # on a 2-core Xeon, against 2.4 s and 100 MiB by the push and the
        # n^3 product, neither of which may run.
        def never(*args):
            raise AssertionError("pushed, or multiplied, a tree's relation")

        n = MAX_DENSE_STATES
        nfa = unary_path(n)
        monkeypatch.setattr(colex, "_push", never)
        monkeypatch.setattr(Relation, "_first_gap", lambda rel: (
            None if rel._nested_transitive() else never()))
        start = time.perf_counter()
        rel = max_colex_relation(nfa)
        assert time.perf_counter() - start < 10
        assert np.array_equal(rel.bits, np.triu(np.ones((n, n), dtype=bool)))
        del rel
        tracemalloc.start()
        try:
            max_colex_relation(unary_path(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n

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


    def test_state_limit_is_checked_before_any_allocation(self, no_dense_allocation):
        limit = MAX_DENSE_STATES
        path = Nfa(limit + 1, 0, [(i, "a", i + 1) for i in range(limit)])
        with pytest.raises(TooLarge, match=f"limited to {limit} states, got {limit + 1}"):
            max_colex_relation(path)


def random_automaton(n, sigma, degree, seed):
    """Random NFA on n states over sigma labels: a random spanning tree out
    of state 0 whose first edges use every label, then random extra edges
    until each state has ``degree`` out-edges; no edge enters state 0."""
    rng = random.Random(seed)
    labels = [f"l{i:02d}" for i in range(sigma)]
    order = list(range(1, n))
    rng.shuffle(order)
    placed, edges, out = [0], set(), [0] * n
    for i, v in enumerate(order):
        u = rng.choice(placed)
        edges.add((u, labels[i] if i < sigma else rng.choice(labels), v))
        out[u] += 1
        placed.append(v)
    for u in range(n):
        while out[u] < degree:
            e = (u, rng.choice(labels), rng.randrange(1, n))
            if e not in edges:
                edges.add(e)
                out[u] += 1
    return Nfa(n, 0, sorted(edges))


def dense_head_unary_tail(tail=100):
    """random_automaton(120, 4, 6, 0), whose seed marks most pairs, with a
    path of ``tail`` states on its lowest label hanging off state 1."""
    head = random_automaton(120, 4, 6, 0)
    path = [1, *range(120, 120 + tail)]
    edges = list(head.transitions) + [(u, "l00", v) for u, v in zip(path, path[1:])]
    return Nfa(120 + tail, 0, edges)


def unary_path(n):
    return Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)])


def word_trie(nodes, seed, letters="abc"):
    """Trie of random words over ``letters`` grown to at least ``nodes`` nodes."""
    rng = random.Random(seed)
    node_of, edges = {(): 0}, []
    while len(node_of) < nodes:
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
        for end in range(1, len(word) + 1):
            prefix = word[:end]
            if prefix not in node_of:
                node_of[prefix] = len(node_of)
                edges.append((node_of[prefix[:-1]], prefix[-1], node_of[prefix]))
    return Nfa(len(node_of), 0, edges)


def push_only_reference(nfa):
    """Boolean matrix of the maximum co-lex relation by push rounds alone:
    every round expands each pair marked in the round before to
    targets(u, a) x targets(v, a) through per-label out-edge CSRs, skipping
    in each batch the labels that leave both states of no pair."""
    n = nfa.n_states
    hi, lo = nfa.label_bounds
    bad = hi[:, None] > lo[None, :]
    np.fill_diagonal(bad, False)
    flat = bad.reshape(-1)
    csr = []
    for a in range(len(nfa.alphabet)):
        src, dst = nfa.src[nfa.lab == a], nfa.dst[nfa.lab == a]
        ptr = np.searchsorted(src, np.arange(n + 1))
        csr.append((ptr, dst, np.diff(ptr)))
    leaves = np.array([deg > 0 for _, _, deg in csr]).reshape(-1, n)
    frontier = np.flatnonzero(flat)
    while len(frontier):
        found = []
        for f in range(0, len(frontier), 4096):
            u, v = np.divmod(frontier[f:f + 4096], n)
            live = np.flatnonzero((leaves[:, u] & leaves[:, v]).any(axis=1))
            for ptr, tgt, deg in (csr[a] for a in live):
                cnt = deg[u] * deg[v]
                pair = np.repeat(np.arange(len(u)), cnt)
                k = np.arange(len(pair)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
                dv = deg[v][pair]
                x = tgt[ptr[u][pair] + k // dv]
                y = tgt[ptr[v][pair] + k % dv]
                cand = np.unique(x * n + y)
                cand = cand[(cand // n != cand % n) & ~flat[cand]]
                flat[cand] = True
                found.append(cand)
        frontier = np.concatenate(found) if found else frontier[:0]
    out = ~bad
    np.fill_diagonal(out, True)
    return out


def edge_pair_counts(nfa):
    """The two round-0 costs by scanning every pair of same-label edges."""
    hi, lo = nfa.label_bounds
    cells = pushed = 0
    cell_list = []
    for a in nfa.alphabet:
        edges = [(u, v) for (u, b, v) in nfa.transitions if b == a]
        for (u, x) in edges:
            for (w, y) in edges:
                if x != y and hi[x] <= lo[y]:
                    cells += 1
                    cell_list.append((u * nfa.n_states + w, x * nfa.n_states + y))
                pushed += u != w and hi[u] > lo[w]
    return cells, pushed, sorted(cell_list)


@pytest.fixture
def branches(monkeypatch):
    """Records whether the pull's cell list was built, the length of the
    list in each pull round, and the size of each frontier handed to the
    push rounds."""
    seen = {"cells": 0, "lists": [], "pushed": []}
    real_cells, real_push = colex._pull_cells, colex._push

    class Cells(np.ndarray):
        # The cells' source pairs: each cut of the list records its length.
        def __getitem__(self, key):
            kept = super().__getitem__(key)
            seen["lists"].append(len(kept))
            return kept

    def cells(*args):
        seen["cells"] += 1
        pre, post = real_cells(*args)
        seen["lists"].append(len(pre))
        return pre.view(Cells), post

    def push(nfa, flat, frontier, *table):
        seen["pushed"].append(len(frontier))
        return real_push(nfa, flat, frontier, *table)

    monkeypatch.setattr(colex, "_pull_cells", cells)
    monkeypatch.setattr(colex, "_push", push)
    return seen


class TestPushPull:
    @pytest.mark.parametrize("make,pulls,pushes", [
        # dense seed: the pull rounds reach the fixpoint
        (lambda: random_automaton(120, 4, 6, 0), True, False),
        # a pull round first, then push rounds from the pairs it marked
        (lambda: random_automaton(100, 2, 2, 1), True, True),
        # one pull round, then push rounds down the tail
        (lambda: dense_head_unary_tail(), True, True),
        # sparse seeds never build the cell list
        (lambda: unary_path(1000), False, True),
        (lambda: word_trie(270, 2), False, True),
        (lambda: gen_separation_family(600), False, True),
        (lambda: word_trie(1000, 3, [f"l{i:03d}" for i in range(200)]), False, True),
    ], ids=["pull-throughout", "pull-then-push", "head-tail", "path1000", "trie270",
            "sep600", "trie1000-200-letters"])
    def test_each_branch_matches_push_only_propagation(
            self, branches, make, pulls, pushes):
        nfa = make()
        rel = colex._propagated(nfa)
        assert branches["cells"] == pulls
        assert [k > 0 for k in branches["pushed"]] == [pushes]
        assert np.array_equal(rel.bits, push_only_reference(nfa))
        # Each round pulls from at most half the list of the round before,
        # so the pull looks at no more than twice the first round's cells.
        lists = branches["lists"]
        assert all(2 * b <= a for a, b in zip(lists, lists[1:]))
        assert sum(lists) <= 2 * lists[0] if pulls else not lists

    def test_a_round_that_leaves_most_cells_hands_off(self, branches):
        # The head's seed marks most pairs; the tail's pairs are marked one
        # step down the tail per round, so the first round drops few of the
        # tail's cells and its marks are pushed from then on.
        nfa = dense_head_unary_tail()
        hi, lo = nfa.label_bounds
        cells, pushed = colex._round0_costs(nfa, hi, lo, colex._edge_table(nfa)[0])
        assert cells < pushed
        rel = max_colex_relation(nfa)
        assert branches["lists"] == [cells] and branches["pushed"][0] > 0
        assert np.array_equal(rel.bits, push_only_reference(nfa))

    @pytest.mark.parametrize("make", [
        lambda: gen_separation_family(300), lambda: random_automaton(100, 2, 2, 1),
        lambda: word_trie(270, 2)], ids=["sep300", "pull-then-push", "trie270"])
    def test_batches_cut_on_fan_out(self, monkeypatch, make):
        monkeypatch.setattr(colex, "_FANOUT", 3)
        nfa = make()
        assert np.array_equal(colex._propagated(nfa).bits, push_only_reference(nfa))

    def test_fan_out_memory_of_the_separation_family(self):
        # Each pair (u3, v) expands the n - 4 out-edges of u3: a batch of
        # 4096 such pairs, and 8-byte frontier indices, once took the peak
        # to 34 bytes per state pair.
        n = 1024
        tracemalloc.start()
        try:
            max_colex_relation(gen_separation_family(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n

    def test_table_memory_with_one_label_per_edge(self):
        # About 3100 edges, each on its own label: the (state, label) table
        # has 3.1M entries of 16 bytes.  Squaring it to count the round-0
        # candidates, summing it per state for out-degrees and a third
        # n*sigma temporary for the offsets once took the peak to 99 MB.
        base = random_automaton(1000, 1, 3, 0)
        nfa = Nfa(1000, 0, [(u, f"e{i}", v) for i, (u, _, v) in enumerate(base.transitions)])
        assert len(nfa.alphabet) == len(base.transitions) >= 3000
        tracemalloc.start()
        try:
            max_colex_relation(nfa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70 * 10**6

    @pytest.mark.parametrize("seed", range(2))
    def test_fifty_labels(self, seed):
        nfa = random_automaton(300, 50, 4, seed)
        assert len(nfa.alphabet) == 50
        assert np.array_equal(max_colex_relation(nfa).bits, push_only_reference(nfa))

    def test_small_automata_match_exhaustive_search(self, branches):
        pulled = 0
        for seed in range(60):
            n = 4 + seed % 5
            nfa = random_automaton(n, 1 + seed % 3, min(1 + seed % 4, n - 1), seed)
            before = branches["cells"]
            assert max_colex_relation(nfa) == brute_max_colex_relation(nfa), seed
            pulled += branches["cells"] > before
        assert 10 < pulled < 50  # both branches are exercised

    @pytest.mark.parametrize("make", [
        lambda: Nfa(1, 0, []),
        lambda: gen_fixture("fig2"),
        lambda: gen_fixture("wheeler3"),
        lambda: gen_separation_family(7),
        lambda: unary_path(30),
        lambda: word_trie(40, 0),
        lambda: random_automaton(40, 1, 2, 0),
        lambda: random_automaton(40, 2, 3, 1),
        lambda: random_automaton(30, 4, 6, 2),
        lambda: random_automaton(60, 50, 3, 3),
        lambda: gen_random(30, 3, 0.05, 4),
    ])
    def test_round0_costs_and_cells_match_edge_pair_scan(self, make):
        nfa = make()
        hi, lo = nfa.label_bounds
        cells, pushed, cell_list = edge_pair_counts(nfa)
        deg, _ = colex._edge_table(nfa)
        assert colex._round0_costs(nfa, hi, lo, deg) == (cells, pushed)
        pre, post = colex._pull_cells(nfa, hi, lo, cells)
        assert pre.dtype == post.dtype == np.int32
        assert sorted(zip(pre.tolist(), post.tolist())) == cell_list

    def test_cell_list_is_built_for_dense_seeds_only(self, branches):
        max_colex_relation(random_automaton(141, 4, 6, 5))
        assert branches["cells"] == 1
        max_colex_relation(unary_path(200))
        assert branches["cells"] == 1


@pytest.fixture
def tables(monkeypatch):
    """The automata that colex._edge_table is called on, in call order."""
    built = []
    real = colex._edge_table

    def edge_table(nfa):
        built.append(nfa)
        return real(nfa)
    monkeypatch.setattr(colex, "_edge_table", edge_table)
    return built


class TestFixpoint:
    """Both routes to the maximum co-lex relation push their frontiers
    through one fixpoint, which builds the (state, label) table once."""

    @pytest.mark.parametrize("make,pulls", [
        (lambda: random_automaton(100, 2, 2, 1), True),
        (lambda: word_trie(270, 2), False),
    ], ids=["pull-then-push", "trie270"])
    def test_direct_route_builds_the_table_once(self, branches, tables, make, pulls):
        nfa = make()
        assert colex._propagated(nfa) == Relation.from_matrix(push_only_reference(nfa))
        assert branches["cells"] == pulls and len(branches["pushed"]) == 1
        assert tables == [nfa]

    def test_derived_route_builds_the_table_once(self, monkeypatch, branches, tables):
        # One row per row block: the automaton's 9 rows are pushed one by one,
        # after the quotient's own push.
        monkeypatch.setattr(colex, "_BLOCK_CELLS", 1)
        nfa = large_block(3)
        qm, _, rel, same = colex._quotient_route(nfa)
        assert not same and len(branches["pushed"]) == 1 + nfa.n_states
        assert tables == [qm.quotient, nfa]
        assert rel == max_colex_relation(nfa)


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


def comb(k, length):
    """k chains of ``length`` states off state 0, labels a, b, a, ..."""
    edges = []
    for i in range(k):
        prev = 0
        for j in range(length):
            edges.append((prev, "ab"[j % 2], 1 + i * length + j))
            prev = 1 + i * length + j
    return Nfa(1 + k * length, 0, edges)


def cfs_width_table():
    """201 automata: seeded gen_random over sizes, alphabets and densities,
    sep:5 .. sep:39, random automata of 50-200 states and two combs."""
    table = [gen_random(n, sigma, density, seed)
             for n in (6, 10, 20, 40) for sigma in (1, 2, 3)
             for density in (0.1, 0.3) for seed in range(6)]
    table += [gen_separation_family(n) for n in range(5, 40)]
    rng = random.Random(7)
    table += [random_automaton(rng.randint(50, 200), rng.randint(2, 4),
                               rng.randint(2, 6), seed) for seed in range(20)]
    return table + [comb(3, 10), comb(5, 40)]


class TestOrderOnTheBlocks:
    """cfs_order, cfs_width and compare_report take the forward-stable
    order on the blocks from one helper."""

    @pytest.mark.parametrize("fn", [cfs_order, cfs_width, compare_report])
    @pytest.mark.parametrize("make", [lambda: unary_path(6), lambda: gen_fixture("fig2")],
                             ids=["discrete", "merging"])
    def test_is_checked_antisymmetric(self, monkeypatch, fn, make):
        nfa = make()
        monkeypatch.setattr(Relation, "is_antisymmetric", lambda rel: False)
        with pytest.raises(InternalInvariantViolation,
                           match="forward-stable quotient is not antisymmetric"):
            fn(nfa)

    def test_discrete_partition_takes_the_automaton_as_its_quotient(self, monkeypatch):
        calls = []
        real = colex.max_colex_relation

        def counted(nfa):
            calls.append(nfa)
            return real(nfa)

        monkeypatch.setattr(colex, "max_colex_relation", counted)
        nfa = word_trie(60, 1)
        rel, qm = cfs_order(nfa)
        assert qm.quotient is nfa and calls == [nfa]
        assert rel == real(nfa)
        cfs_width(nfa)
        assert calls == [nfa, nfa]


class TestCfsWidth:
    def test_matches_the_width_of_the_lifted_order(self):
        wide = 0
        for nfa in cfs_width_table():
            cert = cfs_width(nfa)
            assert cert == width(cfs_order(nfa)[0])
            wide += cert.width >= 2
        assert wide >= 100


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


def quotient_route(nfa):
    """The quotient map, the lifted order and the relation derived from it,
    with the number of (predecessor block, label) codes of each block.  The
    lift is the route's relation when the route says they are the same,
    else built here."""
    qm, order, rel, same = colex._quotient_route(nfa)
    lifted = rel if same else colex._lifted(order, qm)
    codes = np.bincount(qm.quotient.dst, minlength=qm.partition.n_blocks)
    return qm, lifted, rel, codes.tolist()


def quotient_route_table():
    """Automata whose forward-stable partition merges states: seeded
    gen_random and random_automaton shapes, sep:5 .. sep:120 and combs."""
    table = [gen_random(n, sigma, density, seed)
             for n in (6, 10, 15, 30, 60) for sigma in (1, 2, 3)
             for density in (0.05, 0.15) for seed in range(8)]
    rng = random.Random(11)
    table += [random_automaton(rng.randint(10, 200), 1 + seed % 4, 1 + seed % 3, seed)
              for seed in range(150)]
    table += [gen_separation_family(n) for n in range(5, 121)]
    table += [comb(k, length) for k in (2, 3, 7) for length in (1, 4, 25)]
    return [nfa for nfa in table
            if coarsest_fs_partition(nfa).n_blocks < nfa.n_states]


def large_block(k):
    """p < q both enter k middles on a, and each middle has a c-edge to a
    leaf of its own."""
    edges = [(0, "a", 1), (0, "b", 2)]
    for i in range(k):
        edges += [(1, "a", 3 + i), (2, "a", 3 + i), (3 + i, "c", 3 + k + i)]
    return Nfa(3 + 2 * k, 0, edges)


class TestQuotientRoute:
    """The maximum co-lex relation derived from the forward-stable
    quotient's order: the lift, within-block seeds of the blocks with two
    codes, and a push from those seeds alone."""

    def test_matches_the_propagation_on_the_automaton(self):
        table = quotient_route_table()
        assert len(table) >= 250
        split = 0
        for nfa in table:
            _, lifted, rel, codes = quotient_route(nfa)
            assert rel == max_colex_relation(nfa), nfa
            split += max(codes) > 1
            if max(codes) < 2:
                assert rel is lifted
        assert split >= 150

    def test_small_automata_match_exhaustive_search(self):
        merged = split = 0
        for seed in range(600):
            n = 3 + seed % 6
            if seed % 3:
                nfa = random_automaton(n, 1 + seed % 3, 1 + seed % 5 // 4, seed)
            else:
                nfa = gen_random(n, 1 + seed % 2, 0.15 + 0.05 * (seed % 4), seed)
            if coarsest_fs_partition(nfa).n_blocks == nfa.n_states:
                continue
            _, _, rel, codes = quotient_route(nfa)
            assert rel == brute_max_colex_relation(nfa), seed
            merged += 1
            split += max(codes) > 1
        assert merged >= 60 and split >= 20

    def test_block_with_two_labels(self):
        # x and y are both entered on a and on b from s: each pair is an
        # axiom-1 seed inside the block.
        nfa = Nfa(3, 0, [(0, "a", 1), (0, "b", 1), (0, "a", 2), (0, "b", 2)],
                  names=["s", "x", "y"])
        qm, lifted, rel, codes = quotient_route(nfa)
        assert qm.partition.blocks == ((0,), (1, 2)) and codes == [0, 2]
        assert lifted.contains(1, 2) and lifted.contains(2, 1)
        assert not rel.contains(1, 2) and not rel.contains(2, 1)
        assert rel == brute_max_colex_relation(nfa)

    def test_block_with_two_predecessor_blocks(self):
        # x and y are entered on a from both p < q: (q, p) lies outside the
        # order, so each of (x, y) and (y, x) has a predecessor pair outside
        # the lift.
        nfa = Nfa(5, 0, [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3),
                         (1, "a", 4), (2, "a", 4)], names=["s", "p", "q", "x", "y"])
        qm, lifted, rel, codes = quotient_route(nfa)
        assert qm.partition.blocks == ((0,), (1,), (2,), (3, 4)) and codes == [0, 1, 1, 2]
        assert nfa.lambda_set(3) == nfa.lambda_set(4) == {"a"}
        assert not rel.contains(3, 4) and not rel.contains(4, 3)
        assert rel.contains(1, 2) and rel.contains(1, 3)
        assert rel == brute_max_colex_relation(nfa)

    def test_block_marked_only_through_the_push(self, monkeypatch):
        # x2 and y2 have the one code (block of x and y, c); their pairs are
        # marked because (x, y) and (y, x) are, which the push carries.
        nfa = Nfa(5, 0, [(0, "a", 1), (0, "b", 1), (0, "a", 2), (0, "b", 2),
                         (1, "c", 3), (2, "c", 4)], names=["s", "x", "y", "x2", "y2"])
        qm, lifted, rel, codes = quotient_route(nfa)
        assert qm.partition.blocks == ((0,), (1, 2), (3, 4)) and codes == [0, 2, 1]
        assert not rel.contains(3, 4) and not rel.contains(4, 3)
        assert rel == brute_max_colex_relation(nfa)
        monkeypatch.setattr(colex, "_push", lambda *args: None)
        with pytest.raises(InternalInvariantViolation, match="fails its own axioms"):
            colex.max_colex_relation_from_quotient(nfa)

    def test_blocks_whose_pairs_stay_related(self, branches):
        # {x, y} and {z, w} each have one code whose predecessor block holds
        # no marked pair; {p, q} has two labels.  Only its own pairs are
        # marked, and with no out-edges they are not pushed.
        nfa = Nfa(7, 0, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 4),
                         (0, "c", 5), (0, "d", 5), (0, "c", 6), (0, "d", 6)],
                  names=["s", "x", "y", "z", "w", "p", "q"])
        qm, lifted, rel, codes = quotient_route(nfa)
        assert qm.partition.blocks == ((0,), (1, 2), (3, 4), (5, 6))
        assert codes == [0, 1, 1, 2]
        assert all(rel.contains(u, v) for u, v in [(1, 2), (2, 1), (3, 4), (4, 3)])
        assert not rel.contains(5, 6) and not rel.contains(6, 5)
        assert len(branches["pushed"]) == 1  # the quotient's alone
        assert rel == brute_max_colex_relation(nfa)

    @pytest.mark.parametrize("k", [3, 1000])
    def test_push_from_a_large_block(self, k):
        # The leaves' pairs are marked only by the push from the middles'
        # pairs.  At 2003 states the lift's gathered matrix was column-major,
        # and the push marked a copy of the mark matrix.
        nfa = large_block(k)
        qm, lifted, rel, codes = quotient_route(nfa)
        assert codes == [0, 1, 1, 2, 1]
        assert rel.bits.flags.c_contiguous and lifted.bits.flags.c_contiguous
        assert rel == max_colex_relation(nfa)
        leaves = rel.bits[3 + k:, 3 + k:]
        assert leaves.sum() == k  # the diagonal alone

    @pytest.mark.parametrize("cells", [1, 50])
    def test_seeds_pushed_a_few_rows_at_a_time(self, monkeypatch, cells):
        monkeypatch.setattr(colex, "_BLOCK_CELLS", cells)
        for nfa in quotient_route_table()[::4]:
            assert quotient_route(nfa)[2] == max_colex_relation(nfa)

    def test_without_a_block_of_two_codes_the_lift_is_the_relation(self, branches):
        # A comb's chains merge depth by depth, each block with one code:
        # nothing inside a block is marked or pushed.  The quotient, a unary
        # path, is a tree: its order takes the closed form, with no push.
        nfa = comb(4, 6)
        qm, lifted, rel, codes = quotient_route(nfa)
        assert qm.partition.n_blocks == 7 and codes == [0] + [1] * 6
        assert rel is lifted and not branches["pushed"]
        assert rel == max_colex_relation(nfa)

    def test_sinks_of_the_separation_family_are_not_pushed(self, branches):
        # sep:n's n - 4 sinks form one block entered on a from u2 and u3:
        # all their pairs are marked, and none has an out-edge to push.
        nfa = gen_separation_family(1024)
        qm, lifted, rel, codes = quotient_route(nfa)
        assert codes == [0, 1, 1, 1, 2]
        assert len(branches["pushed"]) == 1  # the quotient's alone
        assert rel == max_colex_relation(nfa)

    def test_returns_the_lift_exactly_when_it_is_the_relation(self):
        # z is a block of its own entered on a from p and from q, which lie
        # in two blocks: it has two codes and no pair to mark.
        one = Nfa(6, 0, [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3),
                         (0, "c", 4), (0, "c", 5)], names=["s", "p", "q", "z", "x", "y"])
        table = [one, gen_fixture("fig2"), gen_fixture("wheeler3")]
        table += [gen_separation_family(n) for n in range(5, 13)]
        table += [comb(k, length) for k in (2, 3, 7) for length in (1, 4, 25)]
        table += [gen_random(n, sigma, density, seed) for n in (6, 12, 25, 50)
                  for sigma in (1, 2, 3) for density in (0.05, 0.15) for seed in range(5)]
        rng = random.Random(29)
        table += [random_automaton(rng.randint(10, 100), 1 + seed % 4, 1 + seed % 3, seed)
                  for seed in range(80)]
        kinds = {"discrete": 0, "lift": 0, "derived": 0}
        for nfa in table:
            qm, order, rel, same = colex._quotient_route(nfa)
            full = colex._lifted(order, qm)
            assert same == np.array_equal(rel.bits, full.bits), nfa
            assert not (rel.bits & ~full.bits).any(), nfa
            assert rel == max_colex_relation(nfa)
            kinds["discrete" if qm.quotient is nfa else "lift" if same else "derived"] += 1
        assert min(kinds.values()) >= 10, kinds
        qm, _, _, same = colex._quotient_route(one)
        assert qm.partition.blocks == ((0,), (1,), (2,), (3,), (4, 5)) and same

    def test_is_self_checked(self, monkeypatch):
        # sep:8's quotient has 5 states: only the derived relation is broken.
        nfa = gen_separation_family(8)
        real = Relation.transitivity_witness
        monkeypatch.setattr(Relation, "transitivity_witness",
                            lambda rel: (0, 1, 2) if rel.n == 8 else real(rel))
        with pytest.raises(InternalInvariantViolation,
                           match=r"maximum co-lex relation is not transitive, witness \(0, 1, 2\)"):
            colex.max_colex_relation_from_quotient(nfa)
        monkeypatch.undo()
        monkeypatch.setattr(colex, "check_colex_relation", lambda _, rel: (rel.n < 8, "broken"))
        with pytest.raises(InternalInvariantViolation,
                           match="maximum co-lex relation fails its own axioms: broken"):
            colex.max_colex_relation_from_quotient(nfa)

    def test_state_limit_is_checked_before_refinement(self, no_dense_allocation):
        limit = MAX_DENSE_STATES
        path = Nfa(limit + 1, 0, [(i, "a", i + 1) for i in range(limit)])
        for fn in (compare_report, colex.max_colex_relation_from_quotient):
            with pytest.raises(TooLarge, match=f"maximum co-lex relation .* got {limit + 1}"):
                fn(path)


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
        # fig2 merges into a 4-state quotient; the automaton's relation is
        # derived from the quotient's order
        compare_report(gen_fixture("fig2"))
        assert calls == [4]

    def test_transitivity_is_checked_once_per_max_relation(self, products):
        nfa = gen_random(60, 3, 0.02, 4)
        rep = compare_report(nfa)
        assert rep.classes_FS == nfa.n_states  # discrete: one max_colex_relation
        assert products == [nfa.n_states]
        products.clear()
        compare_report(gen_fixture("fig2"))
        # the quotient's relation, then the automaton's, derived from it;
        # the width of the forward-stable preorder is taken on the
        # quotient's order
        assert products == [4, 7]

    def test_equal_relations_share_one_width(self, products):
        # A width taken of a lifted order would check its transitivity:
        # one more product over all the states.
        # wheeler3 merges u2 and u3, and both orders relate them alike
        rep = compare_report(gen_fixture("wheeler3"))
        assert (rep.classes_R, rep.classes_FS) == (2, 2)
        assert products == [2, 3]
        nfa = random_automaton(100, 2, 2, 1)
        rel_fs, qm = cfs_order(nfa)
        assert qm.partition.n_blocks < nfa.n_states
        assert rel_fs == max_colex_relation(nfa)
        products.clear()
        compare_report(nfa)
        assert products == [qm.partition.n_blocks, 100]
        products.clear()
        compare_report(gen_fixture("fig2"))  # 6 classes against 4 blocks
        assert products == [4, 7]

    @pytest.mark.parametrize("seed", range(3))
    def test_nearly_discrete_takes_one_width_on_the_quotients_order(self, monkeypatch, seed):
        # The lift's classes are the blocks, listed by least state as the
        # quotient's states are, so its order on them is the quotient's:
        # its width is the quotient order's, taken once for both columns.
        nfa = random_automaton(200, 2, 2, seed)
        qm, order, rel, same = colex._quotient_route(nfa)
        assert same and 185 <= qm.partition.n_blocks < nfa.n_states
        calls = []

        def counted(rel, _real=colex.width):
            calls.append(rel)
            return _real(rel)
        monkeypatch.setattr(colex, "width", counted)
        rep = compare_report(nfa)
        assert calls == [order]
        cert = width(rel)
        assert cert == width(order).spliced(qm.partition)
        assert rep.width_R == rep.width_FS == cert.width
        assert (rep.classes_R, rep.classes_FS) == (qm.partition.n_blocks,) * 2

    @given(seed=st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_report_internally_consistent(self, seed):
        nfa = gen_random(6, 3, 0.3, seed)
        rep = compare_report(nfa)
        assert rep.superset_holds
        assert rep.classes_FS <= rep.classes_R
        assert rep.width_FS <= rep.width_R
        assert rep.max_order_exists == (rep.classes_R == rep.n_states)
