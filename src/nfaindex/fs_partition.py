"""Forward-stable partitions of NFA states and the quotient construction.

A partition P of the states is forward stable when for every pair of
blocks S, T and every label a, the a-image of T either covers S or misses
it entirely, that is when the members of each block share one set of
(predecessor block, label) pairs; ``is_forward_stable`` tests this with
two sorts of the edges, in O(m log m).  Forward stability is closed under
coarsest-common-coarsening, so every NFA has a unique coarsest
forward-stable partition.

It is computed in two parts.  Forward stability is bisimulation on the
reversed automaton, so, after the rank-based step of Dovier, Piazza and
Policriti (TCS 2004), the states with no cycle above them are settled in
one topological pass (Kahn's algorithm from the initial state): each
state's block is looked up by its set of (predecessor block, label) pairs,
its predecessors' blocks being final already, at one hash lookup per state
and edge.  No such state shares a block with a state below a cycle, and
none has a predecessor below one.

The states below cycles are first split in rounds of signature
refinement (Blom and Orzan, 2005): each round groups them by their sets
of (predecessor block, label) pairs, a settled predecessor's block being
final and the others' their blocks of the round before, the first round
starting from one block.  Each round refines the one before it, and
rounds go on while each at least doubles the number of blocks, so there
are at most log2(n) + 1 of them, each one sort of the m edges into
those states.  They are then refined by the algorithm of Paige and Tarjan
(SIAM J. Comput. 1987) on the label-wise reversed edges, with three-way
splitting.  Besides the partition being refined, a coarser partition of
compound blocks is kept, and the fine partition is stable with respect to
every compound block.  The last round's blocks are the fine partition,
the blocks its pairs were taken over are the compound blocks, and each
settled block is a compound block of its own; when the last round split
nothing, no compound block holds two fine blocks and the partition is
final.  Each step takes a compound block S holding at least two
fine blocks, makes its smaller block B a compound block of its own, and
for every label a splits the fine blocks by delta(B, a) and then by
delta(B, a) minus delta(S - B, a).  The second set holds the states whose
number of a-predecessors in B equals their number in S; these counts are
kept per (state, label, compound block).  A state lies in a block taken as
B at most log2(n) times, and each time only its out-edges are walked, so
this part runs in O(m log n) for its m edges.  Neither the rounds nor
the splitting walk an edge between two settled states.

The quotient automaton has one state per block and a block-level edge on a
whenever some member pair has one; one sort of the edges' (block, label,
block) codes finds those edges; a discrete partition's quotient is the
automaton itself.  For a forward-stable partition the quotient is always
a valid NFA in this package's sense; for arbitrary partitions it can
violate the no-incoming-edges-into-the-initial-state invariant, reported
as QuotientInvalid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .automaton import Nfa, _lex_order, _run_starts
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
    ``block_array`` is ``block_of`` as a read-only numpy intp array; with
    it are kept the members in block order, block b being
    ``_members[_starts[b]:_starts[b + 1]]``.  The tuples ``blocks`` and
    ``block_of`` are built from these arrays when first read.
    """

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if isinstance(n, bool):
            raise ValidationError(f"partition size {n!r} is not an integer")
        try:
            n = operator.index(n)
        except TypeError:
            raise ValidationError(f"partition size {n!r} is not an integer") from None
        if n < 0:
            raise ValidationError(f"partition size {n} is negative")
        blks = [tuple(b) for b in blocks]
        if any(not b for b in blks):
            raise ValidationError("partition blocks must be non-empty")
        for b in blks:
            for x in b:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise ValidationError(f"partition member {x!r} is not an integer")
        owner = {int(x): i for i, b in enumerate(blks) for x in b}
        if sorted(owner) != list(range(n)) or sum(len(set(b)) for b in blks) != n:
            raise ValidationError(f"blocks do not partition 0..{n - 1}")
        vars(self).update(vars(self.from_block_of([owner[x] for x in range(n)])))

    @classmethod
    def from_block_of(cls, block_of: Sequence[int]) -> "Partition":
        """x and y share a block exactly when block_of[x] == block_of[y].  One
        stable argsort of the labels lists each group's members in ascending
        order; the groups are then numbered by their least member, counted
        off in a mask over the elements, and moved to that order."""
        label = np.asarray(block_of)
        partition, n = cls.__new__(cls), len(label)
        order = label.argsort(kind="stable")
        ordered = label[order]
        head = np.ones(n, bool)  # the first, least member of each group
        head[1:] = ordered[1:] != ordered[:-1]
        if head.all():  # one block per element, or no element
            members = beta = np.arange(n)
            starts = np.arange(n + 1)
        else:
            group, first = head.cumsum() - 1, np.flatnonzero(head)
            least = np.empty_like(head)
            least[order] = head
            block = (least.cumsum() - 1)[order[first]][group]  # in sorted order
            beta = np.empty_like(order)
            beta[order] = block
            starts = np.arange(len(first) + 1)
            np.cumsum(np.bincount(block), out=starts[1:])
            members = np.empty_like(order)
            members[starts[block] + np.arange(n) - first[group]] = order
        for a in (beta, members, starts):
            a.flags.writeable = False
        partition.n, partition.block_array = n, beta
        partition._members, partition._starts = members, starts
        return partition

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        if self.n_blocks == self.n:
            return tuple(zip(range(self.n)))
        members, starts = self._members.tolist(), self._starts.tolist()
        return tuple([tuple(members[i:j]) for i, j in zip(starts, starts[1:])])

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        return tuple(self.block_array.tolist())

    @property
    def n_blocks(self) -> int:
        return len(self._starts) - 1

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside one block of other."""
        if self.n != other.n:
            raise SizeMismatch(f"partitions over {self.n} and {other.n} elements")
        # Each element lies in other's block of its own block's least member.
        leader = self._members[self._starts[:-1]][self.block_array]
        return bool((other.block_array == other.block_array[leader]).all())

    def blocks_by_name(self, names: Sequence[str]) -> list[list[str]]:
        return [[names[x] for x in b] for b in self.blocks]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.block_array, other.block_array)

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

    The a-image of block T splits block S exactly when the members of S
    disagree on having an a-predecessor in T.  So the partition is stable
    when, for each (T, a) that some member of S holds, as many members hold
    it as S has; both counts come from sorting the edges' (target,
    predecessor block, label) codes, in O(m log m).  The violation reported
    is the first split in the order source block T ascending, labels in
    label order, split block S ascending: the group (S, (T, a)) held by too
    few members with least (T, a), then least S.  The sorts are stable, so
    ``covered`` is its first holder; ``uncovered`` is S's least non-holder.
    A partition into singletons is stable without a sort: no block of one
    state can be split.
    """
    if partition.n != nfa.n_states:
        raise SizeMismatch(
            f"partition over {partition.n} elements, automaton has {nfa.n_states} states")
    if partition.n_blocks == partition.n:  # no singleton can be split
        return True, None
    beta = partition.block_array
    k, sigma = partition.n_blocks, len(nfa.alphabet)
    key = beta[nfa.src] * sigma + nfa.lab
    # The distinct (state, key) pairs, then the (block, key) groups they form.
    order = _lex_order(nfa.dst, key, nfa.n_states, k * sigma)
    dst, key = nfa.dst[order], key[order]
    held = _run_starts(dst, key)
    blk, key = beta[dst[held]], key[held]
    order = _lex_order(blk, key, k, k * sigma)
    blk, key = blk[order], key[order]
    group = _run_starts(blk, key)
    holders = np.bincount(group.cumsum() - 1)
    short = holders != np.diff(partition._starts)[blk[group]]
    if not short.any():
        return True, None
    # Groups run in (block, key) order: the first of least key is in the least block.
    g = np.flatnonzero(short)[key[group][short].argmin()]
    i = np.flatnonzero(group)[g]
    inside = dst[held][order][i:i + holders[g]].tolist()
    (t, a), s = divmod(int(key[i]), sigma), int(blk[i])
    block = partition._members[partition._starts[s]:partition._starts[s + 1]].tolist()
    return False, FsViolation(s, t, nfa.alphabet[a], covered=inside[0],
                              uncovered=min(set(block).difference(inside)))


def coarsest_fs_partition(nfa: Nfa) -> Partition:
    """Unique coarsest forward-stable partition, as described in the module
    docstring: a topological pass settles the states with no cycle above
    them, in O(n + m) hash lookups.  The states below cycles are split by
    rounds of signature refinement while each round at least doubles the
    blocks, at most log2(n) + 1 rounds of O(m log m), and Paige-Tarjan
    refinement, in O(m log n), starts from the last two rounds' partitions.
    Forward stability of the result is re-verified by is_forward_stable
    before returning; a partition into singletons is stable by definition.
    """
    partition = Partition.from_block_of(_refine(nfa))
    ok, viol = is_forward_stable(nfa, partition)
    if not ok:
        raise InternalInvariantViolation(
            f"coarsest forward-stable partition is not forward stable: "
            f"{viol.describe(nfa)}")
    return partition


def _group_runs(key: np.ndarray, code: np.ndarray) -> tuple[np.ndarray, int]:
    """Number the runs of equal key, in order, by their sequences of codes,
    compared as bytes: equal sequences share a number, counted from 0 in
    order of first appearance.  Also returns how many numbers there are."""
    raw = code.tobytes()
    cut = (np.append(np.flatnonzero(_run_starts(key)), len(key)) * code.itemsize).tolist()
    sig: dict[bytes, int] = {}
    group = np.array([sig.setdefault(raw[i:j], len(sig)) for i, j in zip(cut, cut[1:])],
                     np.intp)
    return group, len(sig)


def _refine(nfa: Nfa) -> np.ndarray:
    # A block label per state of the coarsest forward-stable partition: the
    # settled states' blocks from the topological pass, then Paige-Tarjan's
    # fine blocks, written in bulk.  Kept apart so that its arrays are freed
    # before the result is built and checked.
    n, sigma = nfa.n_states, len(nfa.alphabet)
    lab, tgt = nfa.lab.tolist(), nfa.dst.tolist()
    out_start = nfa.out_start.tolist()

    # Kahn's algorithm from the initial state: done lists the states with no
    # cycle above them, in topological order.  Each gets its final block
    # from its set of (predecessor block, label) codes, a one-element set
    # keyed by its code.
    indeg = np.bincount(nfa.dst, minlength=n).tolist()
    block = [-1] * n
    block[nfa.initial] = 0
    codes: list = [None] * n
    ids: dict = {}
    done = [nfa.initial]
    for u in done:  # the loop reaches the states appended while it runs
        base = block[u] * sigma
        for e in range(out_start[u], out_start[u + 1]):
            v, c = tgt[e], base + lab[e]
            s = codes[v]
            if s is None or s == c:
                codes[v] = c
            elif s.__class__ is int:
                codes[v] = {s, c}
            else:
                s.add(c)
            indeg[v] -= 1
            if not indeg[v]:
                s = codes[v]
                block[v] = ids.setdefault(s if s.__class__ is int else frozenset(s),
                                          len(ids) + 1)
                done.append(v)
    beta = np.array(block, np.intp)
    if len(done) == n:
        return beta

    # The remaining states lie below a cycle.  Round by round they are split
    # by their sets of (predecessor block, label) codes, where a finished
    # predecessor's block is final and a remaining one's is its block of the
    # round before; the first round starts from one block.  Equal codes over
    # finer blocks stay equal over coarser ones, so each round refines the
    # one before it.  Rounds go on while each at least doubles the number of
    # blocks, at most log2(n) + 1 of them.  No finished state has a remaining
    # predecessor, so the splitters below never walk an edge of the finished
    # part.
    settled = len(ids) + 1
    rest = np.flatnonzero(beta < 0)
    into = np.flatnonzero(beta[nfa.dst] < 0)
    into_src, into_dst, into_lab = nfa.src[into], nfa.dst[into], nfa.lab[into]
    group, k = np.zeros(len(rest), np.intp), 1
    while True:
        beta[rest] = settled + group
        code = beta[into_src] * sigma + into_lab
        order = _lex_order(into_dst, code, n, (settled + k) * sigma)
        dst, code = into_dst[order], code[order]
        held = _run_starts(dst, code)
        # Each remaining state has an in-edge, all of them in into, so the
        # distinct codes of the x-th remaining state are the x-th run of dst.
        fine, k_fine = _group_runs(dst[held], code[held])
        if k_fine < 2 * k:
            break
        group, k = fine, k_fine

    # Paige-Tarjan starts from the last two rounds: the last round's blocks
    # are the fine partition, and the blocks its codes were taken over are
    # the compound blocks (each finished block is a compound block of its
    # own).  The fine blocks' members share their sets of (compound block,
    # label) codes, so the fine partition is stable with respect to every
    # compound block.  cnt[rec[e]] counts the a-predecessors of v in the
    # compound block of u, for edge e = (u, a, v) leaving a remaining state;
    # all such edges share one record, their run of (v, code) in the last
    # round's sorted edges.
    run = held.cumsum() - 1
    rec_at = np.zeros(len(tgt), np.intp)
    rec_at[into[order]] = run
    rec, cnt = rec_at.tolist(), np.bincount(run).tolist()

    # Fine partition as one array: block b is elems[first[b]:end[b]], and
    # its marked members sit at the front, in elems[first[b]:mid[b]].
    order = np.argsort(fine, kind="stable")
    elems = rest[order].tolist()
    loc_of, blk_of = np.zeros(n, np.intp), np.zeros(n, np.intp)
    loc_of[rest[order]] = np.arange(len(rest))
    blk_of[rest] = fine
    loc, blk = loc_of.tolist(), blk_of.tolist()
    end = np.bincount(fine).cumsum().tolist()
    first = [0] + end[:-1]
    mid = first[:]
    touched: list[int] = []
    # Compound blocks: the fine blocks of each, and those holding two or more.
    cblk_of = np.zeros(len(first), np.intp)
    cblk_of[fine] = group
    cblk = cblk_of.tolist()
    members: list[list[int]] = [[] for _ in range(k)]
    for b, c in enumerate(cblk):
        members[c].append(b)
    ready = [c for c in range(k) if len(members[c]) >= 2]

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

    beta[rest] = np.array(blk, np.intp)[rest] + settled
    return beta


@dataclass(frozen=True)
class QuotientMap:
    """A source automaton, a partition of its states and the quotient NFA.

    Quotient state ids coincide with block indices of the (canonicalized)
    partition, so ``partition.block_of`` is also the state projection map.
    ``quotient is source`` exactly when the partition is discrete.
    """

    source: Nfa
    partition: Partition
    quotient: Nfa


def build_quotient(nfa: Nfa, partition: Partition) -> QuotientMap:
    """Quotient automaton under a partition.

    Block names join their member names with '+', one join per block over
    the names taken in the partition's member order.  When two blocks would
    get one name, as {x, y} and {x+y} both would, every name is prefixed
    with its block index and ':' instead (0:s, 1:x+y, 2:x+y), which no two
    blocks share.  A discrete partition's block i is {i}, so its quotient
    has the automaton's names, edges and initial state: the automaton
    itself is returned as the quotient, neither copied nor re-validated.
    Otherwise raises QuotientInvalid when the result breaks an automaton
    invariant, which can only happen for partitions that are not forward
    stable.
    """
    if partition.n != nfa.n_states:
        raise SizeMismatch(
            f"partition over {partition.n} elements, automaton has {nfa.n_states} states")
    if partition.n_blocks == nfa.n_states:
        return QuotientMap(source=nfa, partition=partition, quotient=nfa)
    beta = partition.block_array
    sigma = len(nfa.alphabet)
    # The distinct (block of u, label, block of v) codes of the edges u-a->v.
    head, tail = beta[nfa.src] * sigma + nfa.lab, beta[nfa.dst]
    order = _lex_order(head, tail, partition.n_blocks * sigma, partition.n_blocks)
    head, tail = head[order], tail[order]
    keep = _run_starts(head, tail)
    qsrc, qlab = np.divmod(head[keep], sigma)
    alphabet, names = nfa.alphabet, nfa.names
    qlabs = [alphabet[a] for a in qlab.tolist()]
    # Block b's name joins names[starts[b]:starts[b + 1]], its members' names.
    names = [names[x] for x in partition._members.tolist()]
    starts = partition._starts.tolist()
    qnames = ["+".join(names[i:j]) for i, j in zip(starts, starts[1:])]
    if len(set(qnames)) < len(qnames):
        qnames = [f"{i}:{nm}" for i, nm in enumerate(qnames)]
    try:
        quotient = Nfa._from_columns(qnames, qsrc, qlabs, tail[keep],
                                     initial=int(beta[nfa.initial]))
    except ValidationError as exc:
        raise QuotientInvalid(f"quotient is not a valid automaton: {exc}") from exc
    return QuotientMap(source=nfa, partition=partition, quotient=quotient)
