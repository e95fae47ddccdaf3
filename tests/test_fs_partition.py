"""Forward stability: the checker, the refinement fixpoint, quotients."""

import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfaindex import (
    FsViolation,
    InternalInvariantViolation,
    Nfa,
    Partition,
    QuotientInvalid,
    SizeMismatch,
    ValidationError,
    WidthCertificate,
    brute_coarsest_fs,
    build_quotient,
    coarsest_fs_partition,
    gen_random,
    gen_separation_family,
    is_forward_stable,
    parse_nfa,
)
from nfaindex import fs_partition
from nfaindex.oracle import _growth_strings


def image_scan_forward_stable(nfa, partition):
    """Forward stability by intersecting every block with every block image:
    source blocks ascending, labels in label order, split blocks ascending."""
    if partition.n != nfa.n_states:
        raise SizeMismatch(
            f"partition over {partition.n} elements, automaton has {nfa.n_states} states")
    members = [frozenset(b) for b in partition.blocks]
    for t_idx, t_blk in enumerate(partition.blocks):
        for a in nfa.alphabet:
            image = nfa.delta_set(t_blk, a)
            # Only the blocks the image meets can be split, ascending.
            for s_idx in sorted({partition.block_of[x] for x in image}):
                s_set = members[s_idx]
                inter = s_set & image
                if inter and inter != s_set:
                    return False, FsViolation(
                        s_block=s_idx, t_block=t_idx, label=a,
                        covered=min(inter), uncovered=min(s_set - image))
    return True, None


class TestPartition:
    def test_canonical_form(self):
        p = Partition(5, [[4, 2], [3], [1, 0]])
        assert p.blocks == ((0, 1), (2, 4), (3,))
        assert p.block_of == (0, 0, 1, 2, 1)

    def test_equality_ignores_block_listing_order(self):
        assert Partition(3, [[0], [1, 2]]) == Partition(3, [[2, 1], [0]])

    @pytest.mark.parametrize("blocks", [
        [[0, 1]],              # misses 2
        [[0], [1], [1, 2]],    # overlap
        [[0], [], [1, 2]],     # empty block
        [[0], [1], [2], [3]],  # out of range
    ])
    def test_rejects_non_partitions(self, blocks):
        with pytest.raises(ValidationError):
            Partition(3, blocks)

    @pytest.mark.parametrize("blocks,message", [
        ([[0, 1]], "blocks do not partition 0..2"),
        ([[0], [1], [1, 2]], "blocks do not partition 0..2"),
        ([[0], [], [1, 2]], "partition blocks must be non-empty"),
        ([[0], [1], [2], [3]], "blocks do not partition 0..2"),
        ([[0], [1], [-1, 2]], "blocks do not partition 0..2"),
        ([[0], [1, 9], []], "partition blocks must be non-empty"),
    ], ids=["missing", "overlap", "empty", "out-of-range", "negative", "empty-before-cover"])
    def test_non_partition_messages(self, blocks, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Partition(3, blocks)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            reference_partition(3, blocks)

    @pytest.mark.parametrize("blocks,member", [
        ([[0.0], [1]], "0.0"),
        ([["0"], [1]], "'0'"),
        ([[False], [True]], "False"),
        ([[0], [1, np.float64(2)]], "np.float64(2.0)"),
        ([[0], [np.bool_(True)]], "np.True_"),
    ])
    def test_rejects_members_that_are_not_integers(self, blocks, member):
        with pytest.raises(ValidationError,
                           match=f"^partition member {re.escape(member)} is not an integer$"):
            Partition(len(blocks), blocks)

    def test_numpy_integer_members_are_stored_as_int(self):
        p = Partition(3, [np.array([2, 0], np.int32), [np.uint8(1)]])
        assert p.blocks == ((0, 2), (1,)) and p.block_of == (0, 1, 0)
        assert all(type(x) is int for b in p.blocks for x in b)
        assert all(type(x) is int for x in p.block_of)

    def test_member_repeated_inside_a_block_counts_once(self):
        assert Partition(3, [[2, 0, 2, 0], [1, 1]]).blocks == ((0, 2), (1,))

    def test_from_block_of(self):
        p = Partition.from_block_of([1, 0, 1])
        assert p.blocks == ((0, 2), (1,))

    def test_block_array_is_a_read_only_copy_of_block_of(self):
        for p in (Partition(5, [[4, 2], [3], [1, 0]]), Partition.from_block_of([9, 8, 7])):
            assert p.block_array.dtype == np.intp
            assert p.block_array.tolist() == list(p.block_of)
            with pytest.raises(ValueError):
                p.block_array[0] = 1

    def test_refines(self):
        fine = Partition(4, [[0], [1], [2], [3]])
        mid = Partition(4, [[0, 1], [2], [3]])
        coarse = Partition(4, [[0, 1], [2, 3]])
        assert fine.refines(mid) and mid.refines(coarse) and fine.refines(coarse)
        assert not coarse.refines(mid)
        assert mid.refines(mid)

    def test_refines_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            Partition(2, [[0], [1]]).refines(Partition(3, [[0], [1], [2]]))

    @pytest.mark.parametrize("n, message", [
        (2.5, "partition size 2.5 is not an integer"),
        ("2", "partition size '2' is not an integer"),
        (True, "partition size True is not an integer"),
        (np.float64(2), "partition size np.float64(2.0) is not an integer"),
        (None, "partition size None is not an integer"),
        (-1, "partition size -1 is negative"),
    ])
    def test_size_must_be_a_non_negative_integer(self, n, message):
        for blocks in ([], [[0], [1]]):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                Partition(n, blocks)

    def test_integer_like_size_is_stored_as_int(self):
        p = Partition(np.int64(2), [[1], [0]])
        assert p == Partition(2, [[0], [1]]) and type(p.n) is int


def reference_partition(n, blocks):
    """Partition(n, blocks) as it was canonicalised block by block before
    blocks were built from one label array: (blocks, block_of)."""
    blks = [tuple(sorted(set(b))) for b in blocks]
    if any(not b for b in blks):
        raise ValidationError("partition blocks must be non-empty")
    blks.sort(key=lambda b: b[0])
    covered = [x for b in blks for x in b]
    if sorted(covered) != list(range(n)) or len(covered) != n:
        raise ValidationError(f"blocks do not partition 0..{n - 1}")
    block_of = [0] * n
    for i, b in enumerate(blks):
        for x in b:
            block_of[x] = i
    return tuple(blks), tuple(block_of)


def reference_from_block_of(block_of):
    groups = {}
    for x, b in enumerate(block_of):
        groups.setdefault(b, []).append(x)
    return reference_partition(len(block_of), groups.values())


class TestCanonicalForm:
    """Partition and Partition.from_block_of against the block-by-block
    reference, on random labellings of up to 60 elements."""

    @staticmethod
    def random_labels(rng, n):
        k = rng.randint(1, max(n, 1))
        style = rng.randrange(4)
        if style == 0:  # dense
            return [rng.randrange(k) for _ in range(n)]
        if style == 1:  # negative
            return [rng.randrange(-k, k) for _ in range(n)]
        values = [rng.randrange(-10**12, 10**12) for _ in range(k)]
        labels = [rng.choice(values) for _ in range(n)]  # sparse
        if style == 3:
            return np.array(labels, rng.choice([np.int64, np.intp]))
        return labels

    @staticmethod
    def listed_blocks(rng, labels):
        # The blocks of a labelling in random order, members shuffled and
        # some repeated: a function that lists them afresh as lists, tuples
        # or generators.
        groups = {}
        for x, b in enumerate(labels):
            groups.setdefault(int(b), []).append(x)
        blocks = list(groups.values())
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
            if rng.random() < 0.2:
                b.append(rng.choice(b))
        form = rng.choice([list, tuple, iter])
        if form is iter:
            return lambda: (iter(b) for b in blocks)
        return lambda: [form(b) for b in blocks]

    def assert_canonical(self, p, expected):
        blocks, block_of = expected
        assert p.blocks == blocks and p.block_of == block_of
        assert hash(p) == hash((p.n, blocks))
        assert all(type(x) is int for b in p.blocks for x in b)
        assert all(type(x) is int for x in p.block_of)
        assert p.block_array.tolist() == list(block_of)

    @staticmethod
    def lazy_reads(rng, expected, make):
        """Checks of ==, hash, n_blocks, refines, blocks_by_name and
        WidthCertificate.spliced against the reference, for partitions from
        ``make`` that read neither blocks nor block_of beforehand."""
        blocks, block_of = expected
        n, k = len(block_of), len(blocks)
        names = [f"s{x}" for x in range(n)]
        other_labels = [rng.randrange(max(1, k // 2)) if rng.random() < 0.5 else block_of[x]
                        for x in range(n)]
        other_blocks, other_of = reference_from_block_of(other_labels)
        refines = all(len({other_of[x] for x in b}) == 1 for b in blocks)
        refined = all(len({block_of[x] for x in b}) == 1 for b in other_blocks)
        order = list(range(k))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1))) if k > 1 else []
        chains = tuple(tuple(order[i:j]) for i, j in zip([0, *cuts], [*cuts, k]) if i < j)
        antichain = tuple(sorted(rng.sample(range(k), min(k, 3))))
        cert = WidthCertificate(width=len(chains), antichain=antichain, chains=chains)
        spliced = WidthCertificate(
            width=len(chains), antichain=tuple(blocks[c][0] for c in antichain),
            chains=tuple(tuple(x for c in chain for x in blocks[c]) for chain in chains))

        def other():
            return Partition.from_block_of(other_labels)

        def spliced_ok(p):
            got = cert.spliced(p)
            return got == spliced and all(
                type(x) is int for x in (*got.antichain, *(y for c in got.chains for y in c)))

        return [
            lambda p: p == make() and not p != make(),
            lambda p: (p == other()) == (other_blocks == blocks),
            lambda p: hash(p) == hash((n, blocks)),
            lambda p: p.n_blocks == k and type(p.n_blocks) is int,
            lambda p: p.refines(other()) == refines and other().refines(p) == refined,
            lambda p: p.blocks_by_name(names) == [[names[x] for x in b] for b in blocks],
            spliced_ok,
        ]

    def test_agrees_with_reference_on_random_labellings(self):
        rng = random.Random(5)
        for _ in range(1500):
            n = rng.randint(0, 60)
            labels = self.random_labels(rng, n)
            expected = reference_from_block_of(labels)
            # Each read first on a fresh partition, then the tuples.
            for read in self.lazy_reads(rng, expected, lambda: Partition.from_block_of(labels)):
                p = Partition.from_block_of(labels)
                assert read(p)
                self.assert_canonical(p, expected)
            by_labels = Partition.from_block_of(labels)
            self.assert_canonical(by_labels, expected)
            listing = self.listed_blocks(rng, labels)
            for read in self.lazy_reads(rng, expected, lambda: Partition(n, listing())):
                p = Partition(n, listing())
                assert read(p)
                self.assert_canonical(p, expected)
            by_blocks = Partition(n, listing())
            self.assert_canonical(by_blocks, reference_partition(n, listing()))
            assert by_blocks == by_labels and hash(by_blocks) == hash(by_labels)

    def test_same_message_as_reference_on_broken_listings(self):
        rng = random.Random(6)
        for _ in range(500):
            n = rng.randint(1, 30)
            blocks = [list(b) for b in self.listed_blocks(rng, self.random_labels(rng, n))()]
            fault = rng.randrange(4)
            if fault == 0:    # a missing element
                b = rng.choice(blocks)
                x = b.pop(rng.randrange(len(b)))
                while x in b:
                    b.remove(x)
            elif fault == 1:  # an element in two blocks
                blocks.append([rng.randrange(n)])
            elif fault == 2:  # an element out of range
                rng.choice(blocks).append(rng.choice([-1, n, n + 7]))
            else:             # an empty block
                blocks.insert(rng.randrange(len(blocks) + 1), [])
            with pytest.raises(ValidationError) as expected:
                reference_partition(n, blocks)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
                Partition(n, blocks)


EXPECTED_FIG2 = [["u0"], ["u1", "u2"], ["u3", "u4"], ["u5", "u6"]]


class TestForwardStable:
    def test_fig2_partition_is_stable(self, fig2):
        p = Partition(7, [[0], [1, 2], [3, 4], [5, 6]])
        ok, violation = is_forward_stable(fig2, p)
        assert ok and violation is None

    def test_single_block_is_not_stable(self, fig2):
        ok, violation = is_forward_stable(fig2, Partition(7, [range(7)]))
        assert not ok
        # the witness must be genuine: covered in the image, uncovered not
        image = fig2.delta_set(range(7), violation.label)
        assert violation.covered in image
        assert violation.uncovered not in image
        assert "split" in violation.describe(fig2)

    def test_size_mismatch(self, fig2):
        with pytest.raises(SizeMismatch):
            is_forward_stable(fig2, Partition(3, [[0], [1], [2]]))

    def test_discrete_partition_always_stable(self, fig2, wheeler3, sep6):
        for nfa in (fig2, wheeler3, sep6):
            p = Partition(nfa.n_states, [[u] for u in range(nfa.n_states)])
            ok, _ = is_forward_stable(nfa, p)
            assert ok


class TestCoarsest:
    def test_fig2(self, fig2):
        p = coarsest_fs_partition(fig2)
        assert p.blocks_by_name(fig2.names) == EXPECTED_FIG2

    def test_wheeler3(self, wheeler3):
        p = coarsest_fs_partition(wheeler3)
        assert p.blocks_by_name(wheeler3.names) == [["u1"], ["u2", "u3"]]

    def test_separation_family_collapses_sinks(self):
        for n in (5, 6, 9):
            nfa = gen_separation_family(n)
            p = coarsest_fs_partition(nfa)
            assert p.n_blocks == 5
            assert p.blocks_by_name(nfa.names)[-1] == [f"u{i}" for i in range(5, n + 1)]

    def test_single_state(self):
        nfa = Nfa(1, 0, [])
        assert coarsest_fs_partition(nfa).blocks == ((0,),)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_result_is_forward_stable(self, seed):
        nfa = gen_random(6, 2, 0.35, seed)
        ok, _ = is_forward_stable(nfa, coarsest_fs_partition(nfa))
        assert ok

    @given(seed=st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_blocks_share_incoming_labels(self, seed):
        # members of one forward-stable block always see the same labels
        nfa = gen_random(6, 3, 0.3, seed)
        for block in coarsest_fs_partition(nfa).blocks:
            lams = {nfa.lambda_set(u) for u in block}
            assert len(lams) == 1


def worklist_coarsest_fs_partition(nfa: Nfa) -> Partition:
    """Unique coarsest forward-stable partition, by splitter refinement.

    Starts from the single-block partition and repeatedly splits blocks
    against (block, label) images until stable.  When a block splits, both
    halves re-enter the worklist with every label; pending splitters naming
    a dead block are skipped, which is sound because the image of a block
    is the union of the images of its fragments.
    """
    n = nfa.n_states
    blocks: list[frozenset[int]] = [frozenset(range(n))]
    alive = set(blocks)
    work: deque[tuple[frozenset[int], str]] = deque(
        (blocks[0], a) for a in nfa.alphabet)

    while work:
        t_blk, a = work.popleft()
        if t_blk not in alive:
            continue
        image = nfa.delta_set(t_blk, a)
        if not image:
            continue
        fresh: list[frozenset[int]] = []
        next_blocks: list[frozenset[int]] = []
        for s in blocks:
            inter = s & image
            if inter and inter != s:
                diff = s - inter
                next_blocks.append(inter)
                next_blocks.append(diff)
                fresh.append(inter)
                fresh.append(diff)
            else:
                next_blocks.append(s)
        if fresh:
            blocks = next_blocks
            alive = set(blocks)
            for blk in fresh:
                for b in nfa.alphabet:
                    work.append((blk, b))

    return Partition(n, blocks)


def unary_path(n: int) -> Nfa:
    return Nfa(n, 0, [(i, "a", i + 1) for i in range(n - 1)])


def comb(k: int, length: int, pattern: str) -> Nfa:
    """k chains of ``length`` states off state 0, all spelling ``pattern``;
    the coarsest forward-stable partition has one block per depth."""
    edges = []
    for i in range(k):
        prev = 0
        for j in range(length):
            cur = 1 + i * length + j
            edges.append((prev, pattern[j % len(pattern)], cur))
            prev = cur
    return Nfa(1 + k * length, 0, edges)


class TestPaigeTarjan:
    @given(states=st.integers(1, 8), alphabet=st.integers(1, 3),
           density=st.floats(0.05, 0.6), seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_exhaustive_search(self, states, alphabet, density, seed):
        nfa = gen_random(states, alphabet, density, seed)
        assert coarsest_fs_partition(nfa) == brute_coarsest_fs(nfa)

    def test_agrees_with_worklist_reference_on_random_automata(self):
        # 300 automata of 5-80 requested states, about a third not discrete
        rng = random.Random(2024)
        for _ in range(300):
            n, k = rng.randint(5, 80), rng.randint(1, 3)
            args = (n, k, rng.uniform(1.0, 4.0) / (n * k), rng.randrange(10**6))
            nfa = gen_random(*args)
            assert coarsest_fs_partition(nfa) == worklist_coarsest_fs_partition(nfa), args

    def test_agrees_with_worklist_reference_on_separation_family(self):
        for n in range(5, 31):
            nfa = gen_separation_family(n)
            assert coarsest_fs_partition(nfa) == worklist_coarsest_fs_partition(nfa), n

    @pytest.mark.parametrize("k,length,pattern", [
        (1, 5, "a"), (2, 3, "ab"), (3, 7, "aab"), (6, 12, "abbab"), (12, 20, "ba"),
    ])
    def test_agrees_with_worklist_reference_on_combs(self, k, length, pattern):
        nfa = comb(k, length, pattern)
        p = coarsest_fs_partition(nfa)
        assert p == worklist_coarsest_fs_partition(nfa)
        assert p.n_blocks == length + 1

    def test_count_split_is_needed(self):
        # q0 -a-> q1, q0 -a-> q2, q1 -a-> q1: the topological pass settles
        # q0 and q2, and q1, below its own loop, is left alone.
        nfa = Nfa(3, 0, [(0, "a", 1), (0, "a", 2), (1, "a", 1)])
        assert coarsest_fs_partition(nfa).blocks == ((0,), (1,), (2,))
        # The same shape one step below a loop on h: q0 -a-> h -a-> h,
        # h -a-> x, x -a-> q1, x -a-> q2, q2 -a-> q2.  Every state but q0
        # remains.  Round 1 splits off h (entered from q0), round 2 splits
        # off x (entered from h); it finds three blocks {h}, {x}, {q1, q2}
        # over the two {h}, {x, q1, q2} of round 1, less than double, so the
        # rounds stop with q1 and q2 together (both hold only ({x, q1, q2},
        # a)).  The one splitter is B = {x} out of S = {x, q1, q2}:
        # delta(B, a) = {q1, q2} splits nothing, and the compound block
        # {q1, q2} left behind is one block, never a splitter.  Only
        # delta(B, a) minus delta(S - B, a) = {q1}, found by comparing q1's
        # a-predecessor counts in B and in S, separates q1 from q2.
        nfa = Nfa(5, 0, [(0, "a", 1), (1, "a", 1), (1, "a", 2), (2, "a", 3), (2, "a", 4),
                         (4, "a", 4)])
        assert signature_rounds(nfa) == [2, 3]
        assert coarsest_fs_partition(nfa).blocks == ((0,), (1,), (2,), (3,), (4,))

    def test_unary_path_of_four_thousand_states_is_discrete(self):
        assert coarsest_fs_partition(unary_path(4000)).n_blocks == 4000

    def test_comb_of_thirty_chains_has_one_block_per_depth(self):
        nfa = comb(30, 100, "abbaab")
        p = coarsest_fs_partition(nfa)
        assert p.n_blocks == 101
        assert p.blocks[1] == tuple(1 + i * 100 for i in range(30))


def random_tree_with_cycles(rng: random.Random) -> Nfa:
    """A random tree of 2-60 states rooted at state 0 (each parent numbered
    below its child), random forward edges u -> v with u < v, then 0-5
    back edges or self-loops u -> v with v <= u, none into state 0."""
    n, labels = rng.randint(2, 60), "abc"[:rng.randint(1, 3)]
    edges = {(rng.randrange(v), rng.choice(labels), v) for v in range(1, n)}
    for _ in range(rng.randrange(n)):
        v = rng.randrange(1, n)
        edges.add((rng.randrange(v), rng.choice(labels), v))
    for _ in range(rng.randint(0, 5)):
        u = rng.randrange(1, n)
        edges.add((u, rng.choice(labels), rng.randint(1, u)))
    return Nfa(n, 0, sorted(edges))


def blocks_by_name(text: str) -> list[list[str]]:
    nfa = parse_nfa(text)
    return coarsest_fs_partition(nfa).blocks_by_name(nfa.names)


class TestTopologicalPass:
    """The acyclic part settled in topological order, Paige-Tarjan below
    cycles, against the worklist reference and on pinned shapes."""

    def test_agrees_with_worklist_reference_on_trees_with_cycles(self):
        rng = random.Random(20)
        for i in range(1000):
            nfa = random_tree_with_cycles(rng)
            assert coarsest_fs_partition(nfa) == worklist_coarsest_fs_partition(nfa), i

    def test_cycle_entered_from_two_finished_blocks_on_one_label(self):
        # p and p3 are entered on c from both x and y, p2 from x alone.
        text = "initial s\ntrans s a x\ntrans s b y\n" + "".join(
            f"trans {u} c {v}\n" for u, v in [
                ("x", "p"), ("y", "p"), ("p", "q"), ("q", "p"),
                ("x", "p2"), ("p2", "q2"), ("q2", "p2"),
                ("x", "p3"), ("y", "p3"), ("p3", "q3"), ("q3", "p3")])
        assert blocks_by_name(text) == [
            ["s"], ["x"], ["y"], ["p", "p3"], ["q", "q3"], ["p2"], ["q2"]]

    def test_self_loop_on_a_state_with_finished_predecessors(self):
        # t and t2 loop on b and are entered on b from the block {x, y}; u
        # is entered the same way without the loop.
        text = """initial s
trans s a x
trans s a y
trans x b t
trans y b t
trans t b t
trans y b t2
trans t2 b t2
trans x b u
"""
        assert blocks_by_name(text) == [["s"], ["x", "y"], ["t", "t2"], ["u"]]

    def test_equal_cycles_entered_from_equal_finished_blocks_merge(self):
        text = """initial s
trans s a x1
trans s a x2
trans x1 b c1
trans c1 b d1
trans d1 b c1
trans x2 b c2
trans c2 b d2
trans d2 b c2
"""
        assert blocks_by_name(text) == [["s"], ["x1", "x2"], ["c1", "c2"], ["d1", "d2"]]

    @pytest.mark.parametrize("late", [False, True])
    def test_repeated_pair_shares_a_block_with_a_single_edge(self, late):
        # y has two b-predecessors in the block {x1, x2}, so its set of
        # (predecessor block, label) pairs has one element, as z's does; z
        # is reached before y, or after it.
        edges = ["s a x1", "s a x2", "x1 b y", "x2 b y", "x2 b z" if late else "x1 b z"]
        text = "initial s\n" + "".join(f"trans {e}\n" for e in edges)
        assert blocks_by_name(text) == [["s"], ["x1", "x2"], ["y", "z"]]

    def test_two_pair_sets_are_keyed_as_sets(self):
        # y and z hold {(X, a), (X, b)} from different predecessors and in
        # a different order; w holds only (X, a).
        text = """initial s
trans s a x1
trans s a x2
trans x1 a y
trans x2 b y
trans x1 b z
trans x2 a z
trans x1 a w
"""
        assert blocks_by_name(text) == [["s"], ["x1", "x2"], ["y", "z"], ["w"]]


def below_cycles(nfa: Nfa) -> list[int]:
    """The states with a cycle above them, that the topological pass from
    the initial state never reaches, ascending."""
    indeg = [0] * nfa.n_states
    succ: dict[int, list[int]] = {}
    for (u, _, v) in nfa.transitions:
        indeg[v] += 1
        succ.setdefault(u, []).append(v)
    settled = [nfa.initial]
    for u in settled:  # the loop reaches the states appended while it runs
        for v in succ.get(u, []):
            indeg[v] -= 1
            if not indeg[v]:
                settled.append(v)
    return sorted(set(range(nfa.n_states)).difference(settled))


def signature_rounds(nfa: Nfa) -> list[int]:
    """Block counts of the states below cycles after each signature round.

    The other states are settled in their coarsest blocks.  The states
    below cycles start as one block, and each round splits them by their
    sets of (predecessor block, label) pairs, a predecessor below a cycle
    having its block of the round before.  The last count is that of the
    first round that less than doubles the count before it."""
    coarse = worklist_coarsest_fs_partition(nfa).block_of
    rest = below_cycles(nfa)
    block = {v: 0 for v in rest}
    counts = [1]
    while len(counts) == 1 or counts[-1] >= 2 * counts[-2]:
        pairs: dict[int, set] = {v: set() for v in rest}
        for (u, a, v) in nfa.transitions:
            if v in pairs:
                pairs[v].add((("cyclic", block[u]) if u in block else coarse[u], a))
        ids: dict[frozenset, int] = {}
        block = {v: ids.setdefault(frozenset(pairs[v]), len(ids)) for v in rest}
        counts.append(len(ids))
    return counts[1:]


def lasso(n: int, j: int, labels: str = "a") -> Nfa:
    """The path q0 -> ... -> q(n-1) with the back edge q(n-1) -> qj, its
    i-th edge on labels[i % len(labels)]: every state from q1 lies below
    the cycle qj ... q(n-1), entered from the tail q1 ... q(j-1)."""
    edges = [(i, labels[i % len(labels)], i + 1) for i in range(n - 1)]
    return Nfa(n, 0, edges + [(n - 1, labels[(n - 1) % len(labels)], j)])


def cycle_with_branching_tails(rng: random.Random) -> Nfa:
    """The path q0 -> q1 -> ... -> qL, L of 1-5, with a back edge from qL
    to a random qr, r >= 1, then 1-12 states, each entered from a random
    earlier state other than q0; over a alone or a and b."""
    length, labels = rng.randint(1, 5), "ab"[:rng.randint(1, 2)]
    edges = {(i, rng.choice(labels), i + 1) for i in range(length)}
    edges.add((length, rng.choice(labels), rng.randint(1, length)))
    n = length + 1
    for _ in range(rng.randint(1, 12)):
        edges.add((rng.randrange(1, n), rng.choice(labels), n))
        n += 1
    return Nfa(n, 0, sorted(edges))


class TestSignatureRounds:
    """Below the topological pass, signature rounds split the remaining
    states while each at least doubles the blocks, and Paige-Tarjan starts
    from the last two rounds' partitions."""

    @pytest.mark.parametrize("edges,counts,final", [
        # One state on a self-loop, and two on a cycle entered alike: round 1
        # keeps one block.
        ([(0, "a", 1), (1, "a", 1)], [1], 1),
        ([(0, "a", 1), (0, "a", 2), (1, "a", 2), (2, "a", 1)], [1], 1),
        # A lasso of three states settles in round 2 ...
        ([(0, "a", 1), (1, "a", 2), (2, "a", 1)], [2, 2], 2),
        # ... one of five stops there with splitter work left.
        ([(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 4), (4, "a", 1)], [2, 3], 4),
        # Three rounds, 3, 6 and then 7 blocks of 8.
        ([(0, "a", 1), (1, "a", 2), (1, "b", 1), (1, "b", 5), (2, "b", 3), (3, "b", 4),
          (4, "b", 7), (5, "a", 6), (7, "b", 8)], [3, 6, 7], 8),
    ])
    def test_stopping_points(self, edges, counts, final):
        nfa = Nfa(1 + max(v for (_, _, v) in edges), 0, edges)
        assert signature_rounds(nfa) == counts
        p = coarsest_fs_partition(nfa)
        assert p == worklist_coarsest_fs_partition(nfa)
        if nfa.n_states <= 7:
            assert p == brute_coarsest_fs(nfa)
        assert len({p.block_of[v] for v in below_cycles(nfa)}) == final

    @pytest.mark.parametrize("labels", ["a", "ab", "aab"])
    def test_agrees_with_worklist_reference_on_lassos_and_rho_shapes(self, labels):
        for n in range(2, 31):
            for j in range(1, n):
                nfa = lasso(n, j, labels)
                assert coarsest_fs_partition(nfa) == worklist_coarsest_fs_partition(nfa), (n, j)

    def test_agrees_with_worklist_reference_on_cycles_with_branching_tails(self):
        rng = random.Random(5)
        stops = set()
        for i in range(600):
            nfa = cycle_with_branching_tails(rng)
            p = coarsest_fs_partition(nfa)
            assert p == worklist_coarsest_fs_partition(nfa), i
            counts = signature_rounds(nfa)
            left = len({p.block_of[v] for v in below_cycles(nfa)}) > counts[-1]
            stops.add((min(len(counts), 3), left))
        # Every stopping point, with splitter work left after two rounds and
        # after three or more.
        assert {(1, False), (2, False), (2, True), (3, False), (3, True)} <= stops


def words_by_parent_pointers(nfa: Nfa) -> list[tuple[str, ...]]:
    """The word spelled into each state of an automaton whose non-initial
    states have one in-edge each, read by walking parent pointers."""
    parent = {v: (u, a) for (u, a, v) in nfa.transitions}
    assert len(parent) == nfa.n_states - 1
    word: dict[int, tuple[str, ...]] = {nfa.initial: ()}
    for v in range(nfa.n_states):
        path = []
        while v not in word:
            path.append(v)
            v = parent[v][0]
        for x in reversed(path):
            u, a = parent[x]
            word[x] = word[u] + (a,)
    return [word[v] for v in range(nfa.n_states)]


def random_tree(rng: random.Random, n: int, labels: str, reach: int) -> Nfa:
    """n states, each but state 0 entered once, from one of the ``reach``
    states numbered just below it, on a random label; equal labels among
    siblings are allowed."""
    return Nfa(n, 0, [(rng.randrange(max(0, v - reach), v), rng.choice(labels), v)
                      for v in range(1, n)])


class TestClosedFormOnTrees:
    """With in-degree 1 everywhere but the initial state, the coarsest
    blocks are the sets of states reached by equal words."""

    @staticmethod
    def assert_blocks_are_words(nfa):
        groups: dict[tuple[str, ...], list[int]] = {}
        for v, w in enumerate(words_by_parent_pointers(nfa)):
            groups.setdefault(w, []).append(v)
        assert coarsest_fs_partition(nfa) == Partition(nfa.n_states, groups.values())

    @pytest.mark.parametrize("n", [2, 10, 100, 1000, 10000])
    @pytest.mark.parametrize("labels,reach", [("ab", 10**6), ("abc", 3), ("a", 50)])
    def test_random_trees(self, n, labels, reach):
        self.assert_blocks_are_words(random_tree(random.Random(n), n, labels, reach))

    @pytest.mark.parametrize("k,length,pattern", [
        (1, 5, "a"), (2, 3, "ab"), (3, 7, "aab"), (6, 12, "abbab"), (12, 20, "ba"),
        (30, 100, "abbaab"),
    ])
    def test_combs(self, k, length, pattern):
        self.assert_blocks_are_words(comb(k, length, pattern))


class TestImageScanReference:
    """is_forward_stable against the image scan: the same verdict and the
    same first violation."""

    @staticmethod
    def assert_agree_on_all_partitions(nfa):
        for rgs in _growth_strings(nfa.n_states):
            p = Partition.from_block_of(rgs)
            assert is_forward_stable(nfa, p) == image_scan_forward_stable(nfa, p)

    def test_every_partition_of_the_fixtures(self, fig2, wheeler3):
        for nfa in (fig2, wheeler3, gen_separation_family(7)):
            self.assert_agree_on_all_partitions(nfa)

    def test_every_partition_of_random_automata(self):
        for seed in range(160):
            n = 2 + seed % 6 if seed % 20 else 8
            self.assert_agree_on_all_partitions(
                gen_random(n, 1 + seed % 3, 0.2 + 0.1 * (seed % 4), seed))

    def test_random_partitions_of_thirty_states(self):
        rng = random.Random(11)
        for seed in range(20):
            nfa = gen_random(30, 1 + seed % 3, 0.08, seed)
            coarse = coarsest_fs_partition(nfa).block_of
            for _ in range(40):
                k = rng.randint(1, nfa.n_states)
                candidates = [
                    [rng.randrange(k) for _ in range(nfa.n_states)],
                    # Near-stable: the coarsest blocks from k on merged into one.
                    [min(b, k) for b in coarse],
                ]
                for block_of in candidates:
                    p = Partition.from_block_of(block_of)
                    assert is_forward_stable(nfa, p) == image_scan_forward_stable(nfa, p)

    def test_discrete_partitions(self):
        # Stable by definition; the image scan agrees.
        for nfa in (unary_path(4000),
                    *(gen_random(30, 1 + seed % 3, 0.08, seed) for seed in range(50))):
            p = Partition.from_block_of(range(nfa.n_states))
            assert is_forward_stable(nfa, p) == image_scan_forward_stable(nfa, p) == (True, None)

    def test_unary_path_of_four_thousand_states(self):
        nfa = unary_path(4000)
        p = coarsest_fs_partition(nfa)
        assert is_forward_stable(nfa, p) == (True, None)
        merged = Partition(4000, [[0], [1, 2], *([u] for u in range(3, 4000))])
        assert is_forward_stable(nfa, merged) == (False, FsViolation(
            s_block=1, t_block=0, label="a", covered=1, uncovered=2))


def signature_forward_stable(nfa, partition):
    """Forward stability from each state's set of (predecessor block, label)
    pairs: the first split is the least pair that some but not all members
    of a block hold, then the least such block."""
    pairs = [set() for _ in range(nfa.n_states)]
    for (u, a, v) in nfa.transitions:
        pairs[v].add((partition.block_of[u], nfa.alphabet.index(a)))
    splits = []
    for s, block in enumerate(partition.blocks):
        held = [pairs[x] for x in block]
        if any(h != held[0] for h in held):
            splits.append((min(set.union(*held) - set.intersection(*held)), s))
    if not splits:
        return True, None
    (t, a), s = min(splits)
    block = partition.blocks[s]
    return False, FsViolation(
        s_block=s, t_block=t, label=nfa.alphabet[a],
        covered=next(x for x in block if (t, a) in pairs[x]),
        uncovered=next(x for x in block if (t, a) not in pairs[x]))


def random_partitions(rng, nfa):
    """Stable and unstable partitions of the states: the coarsest and the
    discrete one, refinements and coarsenings of the coarsest, and random
    ones."""
    n = nfa.n_states
    coarse = coarsest_fs_partition(nfa).block_of
    k = rng.randint(1, n)
    block_ofs = [coarse, list(range(n)), [min(b, k) for b in coarse],
                 [b if rng.random() < 0.8 else n + x for x, b in enumerate(coarse)],
                 [rng.randrange(k) for _ in range(n)]]
    return [Partition.from_block_of(b) for b in block_ofs]


class TestSignatureReference:
    """The sort-based stability test against per-state signature sets, and
    the quotient against a set of block-level triples."""

    @staticmethod
    def automata():
        rng = random.Random(5)
        for seed in range(60):
            n = rng.randint(2, 120)
            yield gen_random(n, rng.randint(1, 4), rng.uniform(1.0, 4.0) / n, seed)
        for k, length, pattern in ((3, 7, "aab"), (6, 12, "abbab"), (30, 20, "ba")):
            yield comb(k, length, pattern)
        yield unary_path(300)

    def test_same_verdict_and_violation(self):
        rng = random.Random(8)
        stable = unstable = 0
        for nfa in self.automata():
            for p in random_partitions(rng, nfa):
                got = is_forward_stable(nfa, p)
                assert got == signature_forward_stable(nfa, p)
                stable += got[0]
                unstable += not got[0]
        assert stable > 100 and unstable > 100

    def test_quotient_equals_set_of_triples(self):
        rng = random.Random(9)
        valid = invalid = discrete = 0
        for nfa in self.automata():
            for p in random_partitions(rng, nfa):
                beta = p.block_of
                triples = sorted({(beta[u], a, beta[v]) for (u, a, v) in nfa.transitions})
                names = ["+".join(nfa.names[x] for x in b) for b in p.blocks]
                try:
                    expected = Nfa(p.n_blocks, beta[nfa.initial], triples, names=names)
                except ValidationError as exc:
                    with pytest.raises(QuotientInvalid) as err:
                        build_quotient(nfa, p)
                    assert str(err.value) == f"quotient is not a valid automaton: {exc}"
                    invalid += 1
                else:
                    qm = build_quotient(nfa, p)
                    assert qm.quotient == expected
                    # The automaton itself, exactly when the partition is discrete.
                    assert (qm.quotient is nfa) == (p.n_blocks == nfa.n_states)
                    discrete += qm.quotient is nfa
                    valid += 1
        assert valid > 100 and invalid > 40 and discrete > 60

    def test_quotient_message_for_an_edge_into_the_initial_block(self, fig2):
        with pytest.raises(QuotientInvalid) as err:
            build_quotient(fig2, Partition(7, [[0, 1], [2], [3], [4], [5], [6]]))
        assert str(err.value) == ("quotient is not a valid automaton: initial state "
                                  "has incoming transition u0+u1 a u0+u1")


class TestStabilitySelfCheck:
    def test_rejects_unstable_partition(self, fig2):
        ok, violation = is_forward_stable(fig2, Partition(7, [range(7)]))
        assert not ok and violation is not None

    def test_rejects_partition_split_by_one_label(self, fig2):
        # u1 and u3 both enter on a from u0, but only u1 also has an
        # a-predecessor inside their block (itself)
        ok, violation = is_forward_stable(fig2, Partition(7, [[0], [1, 2, 3, 4], [5, 6]]))
        assert not ok
        assert violation == FsViolation(
            s_block=1, t_block=1, label="a", covered=1, uncovered=3)

    @pytest.mark.parametrize("trans,blocks,expected", [
        # Block 1, {1, 2}, is split by (1, b); the later block 2, {3, 4},
        # by the smaller (0, a), so block 2 is reported.
        ([(0, "b", 1), (0, "b", 2), (1, "b", 1), (0, "a", 3), (2, "a", 4)],
         [[0], [1, 2], [3, 4]], FsViolation(2, 0, "a", covered=3, uncovered=4)),
        # Block 1 is split by (0, a), held by 2 and 4, and by (0, b), held
        # by 1 and 3: the smaller key's least holder is 2, not the block's 1.
        ([(0, "b", 1), (0, "a", 2), (0, "b", 3), (0, "a", 4)],
         [[0], [1, 2, 3, 4]], FsViolation(1, 0, "a", covered=2, uncovered=1)),
    ], ids=["later-block-smaller-key", "least-holder-is-not-least-member"])
    def test_first_split_tie_breaks(self, trans, blocks, expected):
        nfa = Nfa(sum(map(len, blocks)), 0, trans)
        p = Partition(nfa.n_states, blocks)
        got = is_forward_stable(nfa, p)
        assert got == (False, expected)
        assert got == image_scan_forward_stable(nfa, p) == signature_forward_stable(nfa, p)

    def test_accepts_stable_partitions(self, fig2):
        assert is_forward_stable(fig2, Partition(7, [[0], [1, 2], [3, 4], [5, 6]])) == (True, None)
        assert is_forward_stable(fig2, Partition(7, [[u] for u in range(7)])) == (True, None)

    def test_coarsest_partition_is_checked(self, fig2, monkeypatch):
        # One block label for every state: a single block, which fig2 splits.
        monkeypatch.setattr(fs_partition, "_refine", lambda nfa: [0] * nfa.n_states)
        with pytest.raises(InternalInvariantViolation, match="not forward stable"):
            coarsest_fs_partition(fig2)


class TestQuotient:
    def test_fig2_quotient_edges(self, fig2):
        qm = build_quotient(fig2, coarsest_fs_partition(fig2))
        q = qm.quotient
        assert q.n_states == 4
        assert q.names == ("u0", "u1+u2", "u3+u4", "u5+u6")
        assert q.names[q.initial] == "u0"
        edges = {(q.names[u], a, q.names[v]) for (u, a, v) in q.transitions}
        assert edges == {
            ("u0", "a", "u1+u2"), ("u0", "a", "u3+u4"),
            ("u1+u2", "a", "u1+u2"), ("u1+u2", "b", "u5+u6"),
            ("u3+u4", "b", "u5+u6"), ("u5+u6", "b", "u5+u6"),
        }

    def test_colliding_joined_names_get_block_indices(self):
        nfa = parse_nfa("initial s\ntrans s a x\ntrans s a y\ntrans s b x+y\n")
        qm = build_quotient(nfa, coarsest_fs_partition(nfa))
        assert qm.partition.blocks_by_name(nfa.names) == [["s"], ["x", "y"], ["x+y"]]
        assert qm.quotient.names == ("0:s", "1:x+y", "2:x+y")

    def test_invalid_for_partition_merging_into_initial(self, fig2):
        p = Partition(7, [[0, 1], [2], [3], [4], [5], [6]])
        with pytest.raises(QuotientInvalid):
            build_quotient(fig2, p)

    def test_size_mismatch(self, fig2):
        with pytest.raises(SizeMismatch):
            build_quotient(fig2, Partition(2, [[0], [1]]))

    @given(seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_quotient_of_coarsest_is_always_valid(self, seed):
        nfa = gen_random(6, 2, 0.4, seed)
        qm = build_quotient(nfa, coarsest_fs_partition(nfa))
        assert qm.quotient.n_states == qm.partition.n_blocks
        # every source edge projects to a quotient edge
        beta = qm.partition.block_of
        qedges = set(qm.quotient.transitions)
        for (u, a, v) in nfa.transitions:
            assert (beta[u], a, beta[v]) in qedges
