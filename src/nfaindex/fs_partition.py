"""Forward-stable partitions of NFA states and the quotient construction.

A partition P of the states is forward stable when for every pair of
blocks S, T and every label a, the a-image of T either covers S or misses
it entirely.  Forward stability is closed under coarsest-common-coarsening,
so every NFA has a unique coarsest forward-stable partition.

It is computed by the partition refinement of Paige and Tarjan (SIAM J.
Comput. 1987) on the label-wise reversed edges, with three-way splitting.
Besides the partition being refined, a coarser partition of compound
blocks is kept, and the fine partition is stable with respect to every
compound block.  Each step takes a compound block S holding at least two
fine blocks, makes its smaller block B a compound block of its own, and
for every label a splits the fine blocks by delta(B, a) and then by
delta(B, a) minus delta(S - B, a).  The second set holds the states whose
number of a-predecessors in B equals their number in S; these counts are
kept per (state, label, compound block).  A state lies in a block taken as
B at most log2(n) times, and each time only its out-edges are walked, so
the refinement runs in O(m log n) for m transitions and n states.

The quotient automaton has one state per block and a block-level edge on a
whenever some member pair has one.  For a forward-stable partition the
quotient is always a valid NFA in this package's sense; for arbitrary
partitions it can violate the no-incoming-edges-into-the-initial-state
invariant, reported as QuotientInvalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automaton import Nfa
from .errors import (
    InternalInvariantViolation,
    QuotientInvalid,
    SizeMismatch,
    ValidationError,
)


class Partition:
    """Partition of 0..n-1 into non-empty blocks.

    Canonical form: each block sorted ascending, blocks ordered by their
    smallest element.  Equality and hashing use the canonical form.
    """

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blks = [tuple(sorted(set(b))) for b in blocks]
        if any(not b for b in blks):
            raise ValidationError("partition blocks must be non-empty")
        blks.sort(key=lambda b: b[0])
        covered: list[int] = [x for b in blks for x in b]
        if sorted(covered) != list(range(n)) or len(covered) != n:
            raise ValidationError(f"blocks do not partition 0..{n - 1}")
        self.n = n
        self.blocks: tuple[tuple[int, ...], ...] = tuple(blks)
        block_of = [0] * n
        for i, b in enumerate(self.blocks):
            for x in b:
                block_of[x] = i
        self.block_of: tuple[int, ...] = tuple(block_of)

    @classmethod
    def from_block_of(cls, block_of: Sequence[int]) -> "Partition":
        groups: dict[int, list[int]] = {}
        for x, b in enumerate(block_of):
            groups.setdefault(b, []).append(x)
        return cls(len(block_of), groups.values())

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside one block of other."""
        if self.n != other.n:
            raise SizeMismatch(f"partitions over {self.n} and {other.n} elements")
        return all(
            all(other.block_of[x] == other.block_of[b[0]] for x in b)
            for b in self.blocks
        )

    def blocks_by_name(self, names: Sequence[str]) -> list[list[str]]:
        return [[names[x] for x in b] for b in self.blocks]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, blocks={[list(b) for b in self.blocks]})"


@dataclass(frozen=True)
class FsViolation:
    """Witness that a partition is not forward stable.

    Block ``s_block`` is split by the a-image of block ``t_block``:
    ``covered`` is a member inside the image, ``uncovered`` one outside.
    """

    s_block: int
    t_block: int
    label: str
    covered: int
    uncovered: int

    def describe(self, nfa: Nfa) -> str:
        return (f"block {self.s_block} is split by the {self.label!r}-image of "
                f"block {self.t_block}: contains {nfa.names[self.covered]} "
                f"but not {nfa.names[self.uncovered]}")


def is_forward_stable(nfa: Nfa, partition: Partition) -> tuple[bool, FsViolation | None]:
    """Check forward stability; on failure also return the first violation.

    Scan order is deterministic: source blocks ascending, labels in label
    order, split blocks ascending.
    """
    if partition.n != nfa.n_states:
        raise SizeMismatch(
            f"partition over {partition.n} elements, automaton has {nfa.n_states} states")
    members = [frozenset(b) for b in partition.blocks]
    for t_idx, t_blk in enumerate(partition.blocks):
        for a in nfa.alphabet:
            image = nfa.delta_set(t_blk, a)
            if not image:
                continue
            for s_idx, s_set in enumerate(members):
                inter = s_set & image
                if inter and inter != s_set:
                    return False, FsViolation(
                        s_block=s_idx, t_block=t_idx, label=a,
                        covered=min(inter), uncovered=min(s_set - image))
    return True, None


def coarsest_fs_partition(nfa: Nfa) -> Partition:
    """Unique coarsest forward-stable partition, by Paige-Tarjan refinement.

    Starts from the single-block partition split by which labels enter each
    state, with one compound block holding everything.  While a compound
    block S holds two or more blocks, its smaller block B becomes a compound
    block of its own and, for each label a on an edge leaving B, every
    block is split by delta(B, a) and then by delta(B, a) minus
    delta(S - B, a), the states none of whose a-predecessors lie in S - B.
    Only the out-edges of B are walked, so the whole refinement is
    O(m log n).  Forward stability of the result is re-verified in O(m)
    before returning.
    """
    partition = Partition(nfa.n_states, _refine(nfa))
    _check_forward_stable(nfa, partition)
    return partition


def _refine(nfa: Nfa) -> list[list[int]]:
    # The blocks of the coarsest forward-stable partition, unordered.  Kept
    # apart so that its arrays are freed before the result is built and checked.
    n = nfa.n_states
    lab, tgt = nfa.lab.tolist(), nfa.dst.tolist()
    # The out-edges of u are the transitions out_start[u]..out_start[u+1]-1.
    out_start = nfa.src.searchsorted(range(n + 1)).tolist()

    # Fine partition as one array: block b is elems[first[b]:end[b]], and
    # its marked members sit at the front, in elems[first[b]:mid[b]].
    elems = list(range(n))
    loc = list(range(n))
    blk = [0] * n
    first, end, mid = [0], [n], [0]
    touched: list[int] = []
    # Compound blocks: the fine blocks of each, and those holding two or more.
    cblk = [0]
    members: list[list[int]] = [[0]]
    ready: list[int] = []

    def mark(x: int) -> None:
        b = blk[x]
        m = mid[b]
        i = loc[x]
        if i >= m:
            if m == first[b]:
                touched.append(b)
            y = elems[m]
            elems[i], loc[y] = y, i
            elems[m], loc[x] = x, m
            mid[b] = m + 1

    def split() -> None:
        # The marked part of each partly marked block becomes a new block
        # in the same compound block.
        for b in touched:
            m, start = mid[b], first[b]
            mid[b] = start
            if m == end[b]:
                continue
            nb = len(first)
            first.append(start)
            end.append(m)
            mid.append(start)
            first[b] = mid[b] = m
            for i in range(start, m):
                blk[elems[i]] = nb
            c = cblk[b]
            cblk.append(c)
            members[c].append(nb)
            if len(members[c]) == 2:
                ready.append(c)
        touched.clear()

    # cnt[rec[e]] counts the a-predecessors of v in the compound block of u,
    # for edge e = (u, a, v); all such edges share one record.
    rec_of: dict[tuple[int, int], int] = {}
    rec = [rec_of.setdefault((v, a), len(rec_of)) for v, a in zip(tgt, lab)]
    cnt = [0] * len(rec_of)
    for r in rec:
        cnt[r] += 1

    # Make the partition stable with respect to the one compound block.
    entered: list[list[int]] = [[] for _ in nfa.alphabet]
    for (v, a) in rec_of:
        entered[a].append(v)
    for targets in entered:
        for v in targets:
            mark(v)
        split()

    while ready:
        s = ready.pop()
        if len(members[s]) < 2:
            continue
        # B, the smaller of two blocks of S, leaves S as a compound block.
        b, other = members[s].pop(), members[s].pop()
        if end[b] - first[b] > end[other] - first[other]:
            b, other = other, b
        members[s].append(other)
        if len(members[s]) >= 2:
            ready.append(s)
        cblk[b] = len(members)
        members.append([b])

        # Out-edges of B by label, collected before B itself may split.
        by_label: dict[int, list[int]] = {}
        for x in elems[first[b]:end[b]]:
            for e in range(out_start[x], out_start[x + 1]):
                by_label.setdefault(lab[e], []).append(e)
        for edges in by_label.values():
            hits: dict[int, int] = {}
            for e in edges:
                v = tgt[e]
                hits[v] = hits.get(v, 0) + 1
            for v in hits:
                mark(v)
            split()
            old = {tgt[e]: rec[e] for e in edges}
            for v, k in hits.items():
                if k == cnt[old[v]]:
                    mark(v)
            split()
            new: dict[int, int] = {}
            for v, k in hits.items():
                cnt[old[v]] -= k
                new[v] = len(cnt)
                cnt.append(k)
            for e in edges:
                rec[e] = new[tgt[e]]

    return [elems[first[b]:end[b]] for b in range(len(first))]


def _check_forward_stable(nfa: Nfa, partition: Partition) -> None:
    """Raise InternalInvariantViolation unless the partition is forward stable.

    Forward stability holds exactly when all members of each block have the
    same set of (label, predecessor block) pairs, which takes O(m) to test.
    """
    beta = partition.block_of
    pairs: list[set[tuple[int, int]]] = [set() for _ in range(nfa.n_states)]
    for u, a, v in zip(nfa.src.tolist(), nfa.lab.tolist(), nfa.dst.tolist()):
        pairs[v].add((a, beta[u]))
    for i, block in enumerate(partition.blocks):
        want = pairs[block[0]]
        for x in block[1:]:
            if pairs[x] != want:
                raise InternalInvariantViolation(
                    f"coarsest forward-stable partition is not forward stable: "
                    f"block {i} holds {nfa.names[block[0]]} and {nfa.names[x]}, "
                    f"whose (label, predecessor block) pairs differ")


@dataclass(frozen=True)
class QuotientMap:
    """A source automaton, a partition of its states and the quotient NFA.

    Quotient state ids coincide with block indices of the (canonicalized)
    partition, so ``partition.block_of`` is also the state projection map.
    """

    source: Nfa
    partition: Partition
    quotient: Nfa


def build_quotient(nfa: Nfa, partition: Partition) -> QuotientMap:
    """Quotient automaton under a partition.

    Block names join their member names with '+'.  Raises QuotientInvalid
    when the result breaks an automaton invariant, which can only happen
    for partitions that are not forward stable.
    """
    if partition.n != nfa.n_states:
        raise SizeMismatch(
            f"partition over {partition.n} elements, automaton has {nfa.n_states} states")
    beta = partition.block_of
    qtrans = sorted({(beta[u], a, beta[v]) for (u, a, v) in nfa.transitions})
    qnames = ["+".join(nfa.names[x] for x in b) for b in partition.blocks]
    try:
        quotient = Nfa(partition.n_blocks, beta[nfa.initial], qtrans, names=qnames)
    except ValidationError as exc:
        raise QuotientInvalid(f"quotient is not a valid automaton: {exc}") from exc
    return QuotientMap(source=nfa, partition=partition, quotient=quotient)
