"""Co-lexicographic state orderings: the maximum relation and the
coarsest-forward-stable order.

Two constructions are provided and compared.  ``max_colex_relation``
computes the union of all co-lex relations of an automaton, which is
always a preorder: a distinct pair (u, v) belongs to it exactly when no
pair of equally labelled paths into u and v passes through a pair of
states whose incoming-label sets are out of order.  One fixpoint
implements that characterization: an n*n mark matrix starts from pairs
known to lie outside the relation, "badness" is propagated forward
through the pair graph from frontiers of marked pairs until nothing more
is marked, and the unmarked pairs, with the diagonal, form the relation.
Two sources feed it marks and frontiers: ``max_colex_relation`` seeds the
label-violating pairs from per-state incoming-label ranks, and the
quotient route below starts from the forward-stable quotient's order.
Propagation runs on numpy arrays and picks a direction per round, as
direction-optimising breadth-first search does (Beamer, Asanovic and
Patterson, SC 2012).

A push round expands only the pairs marked in the round before: each
out-edge u -a-> x of a pair (u, v) looks up the count and first offset of
v's a-edges in one (state, label) table, each such edge v -a-> y gives the
candidate (x, y), and the unmarked distinct candidates form the next
frontier.  Every pair is pushed at most once, with one lookup per out-edge
of u, so for n states, m edges and the a-edges E_a pushing costs
O(n*m + sum_a |E_a|^2) whatever the alphabet.

A pull round works on a list of cells, the pairs of same-label edges whose
target pair is distinct and unmarked: it marks the target pair of every
cell whose source pair is marked, then drops the cells whose target pair
is now marked.  The seed leaves a pair (x, y) of a-successors unmarked only
when a is both the highest label into x and the lowest into y, so the list
is built from those edges alone, in time proportional to its length.
Before anything is built, exact counts of these cells, S0, and of the P0
candidates a push of the seed would expand, O(m log m) each for m edges,
choose the first round: a pull only when S0 < P0.  Pulling goes on while
each round leaves at most half of the list, and ends when a round drops
no cell, having marked nothing; a round that leaves more hands off: the
pairs it marked, sorted once, are pushed from then on and the list is
dropped.  The rounds thus look at fewer than 2*S0 cells in all, below
2*P0 (the geometric bound of the partition refinement's doubling rounds),
so no shape is bounded worse than by pushing alone.  A dense seed, where
most pairs are out of order, is settled by looking at the few unmarked
pairs' incoming edges instead of the many marked pairs' outgoing ones,
while sparse seeds (unary paths, tries, combs) never build the list.  The
fixpoint is unique, so the direction never changes the result.  Memory is
the n*n mark matrix, the push's n*n int32 index array, the table (16 bytes
per state and label; every other count is taken per edge), 8 bytes per
cell, 4 bytes per frontier pair and batches cut on the running count of
frontier pairs, of their first states' out-edges and of candidates.

``cfs_order`` is the maximum co-lex order of the quotient by the coarsest
forward-stable partition, lifted to the states: a preorder whose classes
are the blocks.  ``cfs_order``, ``cfs_width`` and ``compare_report`` take
the order on the blocks from one helper; ``cfs_width`` splices the blocks
into its certificate and ``cfs_order`` lifts it to n*n.  The preorder
always contains the maximum co-lex relation, has at most its width, and
never has more classes.  ``compare_report`` takes containment and
equality from the quotient route below, which marks pairs out of the lift
and returns the lift itself exactly when the two are equal; it
cross-checks the classes and widths, raising InternalInvariantViolation on
any discrepancy.  When the partition is discrete the quotient is the
automaton itself, so the order on the blocks is the maximum co-lex
relation and its own lift; whenever the two relations are equal the width
is reused.

``compare_report`` (and ``max_colex_relation_from_quotient``) run the
label seed's propagation once, on the quotient Q, and derive the
automaton's maximum co-lex relation from Q's order by the quotient route:
the mark matrix starts as the complement of the lift L of that order,
gathered in one pass from the complement of the order on the blocks,
every distinct pair of states in one block with two or more (predecessor
block, label) codes is marked too, and the fixpoint pushes those
within-block pairs alone, a block of rows at a time.
Every member of a forward-stable block holds all of the block's codes, so
a block's codes are its in-edges in Q.  The result is the maximum co-lex
relation, by three facts about the marked pairs M of the automaton:

1. Every pair outside L is marked, as L contains the maximum co-lex
   relation; such a pair lies in two blocks.  The members of a block
   share their incoming labels, so an axiom-1 seed in two blocks projects
   onto a seed of Q and lies outside L.  An a-successor pair (x, y) in two
   blocks of a pair (u, v) outside L lies outside L too: were (beta(x),
   beta(y)) in Q's order, Q's axiom 2 would put (beta(u), beta(v)) there.
2. Every distinct pair (x, y) of a block with two codes is marked.  With
   two labels it is an axiom-1 seed, the highest label into x being above
   the lowest into y.  With codes (B, a) and (C, a), B != C, x and y each
   have a-predecessors in both B and C, and one of (B, C) and (C, B) lies
   outside the antisymmetric order, so one of x's and y's predecessor
   pairs lies outside L and is marked by fact 1.  An a-successor (x, y),
   in one block, of a pair (u, v) in two blocks gives that block the two
   codes (beta(u), a) and (beta(v), a): it is seeded too.
3. A pair in a block with one code (B, a) has all its predecessor pairs
   inside B, so it is marked exactly when one of them is; the push carries
   those marks.  With no block of two states and two codes nothing inside
   a block is marked, and the relation is L itself, which the route then
   returns without building the marks; with one, that block's pairs lie in
   L and are marked, so the two differ.

So the marked set holds every axiom-1 seed and is closed under
successors, and each of its pairs is marked in the automaton: it is M,
and a pair in two blocks is marked exactly when it lies outside L.  The
fixpoint self-checks the result as it does the label seed's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .automaton import Nfa, _bfs_distances
from .errors import InternalInvariantViolation
from .fs_partition import QuotientMap, build_quotient, coarsest_fs_partition
# Re-exported.  perfbench/layertrace.py counts calls by wrapping
# colex.PairGraph.successors, so its --trace 1 pass needs the name here.
from .oracle import PairGraph
from .relations import (
    _BLOCK_CELLS,
    _EDGE_PAIR_CELLS,
    Relation,
    WidthCertificate,
    _require_dense,
    _spread,
    check_colex_relation,
    induced_equivalence,
    width,
)


# Frontier pairs taken per numpy batch during a push, and the running count
# of candidate pairs at which a batch is cut; an out-edge of a frontier pair
# with more candidates makes its batch that large.
_CHUNK = 1 << 12
# Running count of out-edges of the frontier pairs' first states at which a
# push batch is cut; a pair whose first state has more makes its batch.
_FANOUT = 1 << 16


def _edge_table(nfa: Nfa) -> tuple[np.ndarray, np.ndarray]:
    """For s labels, ``deg[v*s + a]`` a-edges leave v, the first at
    ``ptr[v*s + a]`` in transition order (by source, then label)."""
    sigma = len(nfa.alphabet)
    deg = np.bincount(nfa.src * sigma + nfa.lab, minlength=nfa.n_states * sigma)
    ptr = np.cumsum(deg)
    ptr -= deg
    return deg, ptr


def _round0_costs(nfa: Nfa, hi: np.ndarray, lo: np.ndarray,
                  deg: np.ndarray) -> tuple[int, int]:
    """Pair-graph edges a pull and a push would examine in the first round.

    The first count is the number of cells: pairs (i, j) of same-label edges
    whose target pair is distinct and not marked by the seed.  The seed
    leaves (x, y) unmarked when hi[x] <= lo[y], so for a-edges, with a of
    rank r, exactly when hi[x] = r = lo[y]; pairs of edges into one such x
    are subtracted.  The second is the number of candidates a push of the
    seed expands: pairs of a-edges whose source pair (u, v) has hi[u] >
    lo[v], less those leaving one state u.  Both take O(m log m).
    """
    lab, src, dst = nfa.lab, nfa.src, nfa.dst
    sigma = len(nfa.alphabet)
    rank = lab + 1
    into = np.bincount(dst, minlength=nfa.n_states)
    cells = (np.bincount(lab[hi[dst] == rank], minlength=sigma)
             @ np.bincount(lab[lo[dst] == rank], minlength=sigma))
    cells -= int(np.square(into[hi == lo]).sum())
    # Per label, the sources' lows sorted; each edge counts the lows below
    # its source's high.
    key = lab * (sigma + 2)
    lows = np.sort(key + lo[src])
    pushed = int((lows.searchsorted(key + hi[src]) - lows.searchsorted(key)).sum())
    # Each (u, a) with d edges and hi[u] > lo[u] pairs them d*d times.
    pushed -= int(deg[src * sigma + lab][hi[src] > lo[src]].sum())
    return int(cells), pushed


def _pull_cells(nfa: Nfa, hi: np.ndarray, lo: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``size`` cells counted by _round0_costs, as int32 flat indices
    of their source pairs and of their target pairs."""
    n = nfa.n_states
    pre = np.empty(size, dtype=np.int32)
    post = np.empty(size, dtype=np.int32)
    filled = 0
    src, _, dst, ends = nfa._label_major
    for rank, (b, e) in enumerate(zip(ends, ends[1:]), 1):
        s, t = src[b:e], dst[b:e]
        rows, cols = hi[t] == rank, lo[t] == rank
        rs, rd, cs, cd = s[rows] * n, t[rows], s[cols], t[cols]
        step = max(1, _EDGE_PAIR_CELLS // max(1, len(cd)))
        for r in range(0, len(rd), step):
            d = rd[r:r + step, None]
            keep = d != cd
            k = filled + int(keep.sum())
            pre[filled:k] = (rs[r:r + step, None] + cs)[keep]
            post[filled:k] = (d * n + cd)[keep]
            filled = k
    return pre, post


def _pull(nfa: Nfa, flat: np.ndarray, hi: np.ndarray, lo: np.ndarray,
          size: int) -> np.ndarray:
    """Pull rounds over the cell list, as the module docstring describes;
    returns the frontier left to push."""
    pre, post = _pull_cells(nfa, hi, lo, size)
    while len(pre):
        flat[post[flat[pre]]] = True
        # The cells' target pairs were all unmarked, so the dropped cells
        # lead to exactly the pairs this round marked.
        drop = flat[post]
        dropped = int(np.count_nonzero(drop))
        if not dropped:
            break
        if 2 * dropped < len(pre):
            return np.unique(post[drop])
        keep = ~drop
        pre, post = pre[keep], post[keep]
    return post[:0]


def _push(nfa: Nfa, flat: np.ndarray, frontier: np.ndarray,
          deg: np.ndarray, ptr: np.ndarray) -> None:
    """Push rounds from ``frontier`` to the fixpoint: each round expands
    the pairs marked in the round before and marks the unmarked distinct
    candidates.  ``deg`` and ``ptr`` are from _edge_table."""
    if not len(frontier):
        return
    n, sigma = nfa.n_states, len(nfa.alphabet)
    first, outdeg = nfa.out_start[:-1], np.diff(nfa.out_start)
    top = int(outdeg.max())
    # Flat pair indices, and positions within a batch, are held as int32:
    # max_colex_relation refuses more than MAX_DENSE_STATES states, so
    # n*n <= 2**24.
    assert n * n < 2**31
    # slot[c] == position of c in its batch marks a first occurrence.
    slot = np.empty(n * n, dtype=np.int32)
    while len(frontier):
        found = []
        f = 0
        while f < len(frontier):
            u, v = np.divmod(frontier[f:f + _CHUNK], n)
            # Each out-edge u -a-> x of a pair (u, v) looks up v's a-edges.
            od = outdeg[u]
            if len(od) * top > _FANOUT:  # else the cut cannot bind
                k = max(1, int(np.cumsum(od).searchsorted(_FANOUT, side="right")))
                u, v, od = u[:k], v[:k], od[:k]
            f += len(u)
            e = _spread(first[u], od)
            key = (v * sigma).repeat(od) + nfa.lab[e]
            hit = deg[key] > 0
            x, key, cnt = nfa.dst[e[hit]], key[hit], deg[key[hit]]
            cuts = np.flatnonzero(np.diff(np.cumsum(cnt) // _CHUNK)) + 1
            for s, t in zip([0, *cuts], [*cuts, len(cnt)]):
                xs = x[s:t].repeat(cnt[s:t])
                y = nfa.dst[_spread(ptr[key[s:t]], cnt[s:t])]
                cand = xs * n + y
                cand = cand[(xs != y) & ~flat[cand]]
                pos = np.arange(len(cand))
                slot[cand] = pos
                cand = cand[slot[cand] == pos]
                flat[cand] = True
                found.append(cand.astype(np.int32))
        frontier = np.concatenate(found)


def _fixpoint(nfa: Nfa, marks: np.ndarray, frontiers) -> Relation:
    """The maximum co-lex relation from ``marks``, a row-major n*n matrix,
    owned by the call, of pairs that lie outside it: the diagonal is
    cleared, each frontier of ``frontiers(flat, deg)`` is pushed to the
    fixpoint, and the pairs left unmarked form the result, self-checked.
    ``flat`` is the marks' flat view, which a pull may mark, and ``deg``
    is from _edge_table."""
    np.fill_diagonal(marks, False)
    # The push marks through this flat view: were ``marks`` column-major,
    # reshape would return a copy and the marks would be lost.
    flat = marks.reshape(-1)
    assert flat.base is marks
    deg, ptr = _edge_table(nfa)
    for frontier in frontiers(flat, deg):
        _push(nfa, flat, frontier, deg, ptr)
        del frontier
    del flat, deg, ptr
    # from_matrix copies: the marks are freed before the self-check.
    rel = Relation.from_matrix(np.logical_not(marks, out=marks))
    del marks
    return _checked(nfa, rel)


def max_colex_relation(nfa: Nfa) -> Relation:
    """Union of all co-lex relations of the automaton; always a preorder.

    The pairs left unmarked by the pull and push rounds of the module
    docstring, plus the diagonal, form the result.  Transitivity and both
    co-lex axioms are re-verified before returning.  Raises TooLarge, before
    allocating anything, for automata of more than MAX_DENSE_STATES states.
    """
    _require_dense(nfa.n_states, "the maximum co-lex relation")
    hi, lo = nfa.label_bounds

    def seeded(flat, deg):
        cells, pushed = _round0_costs(nfa, hi, lo, deg)
        return [_pull(nfa, flat, hi, lo, cells) if cells < pushed else np.flatnonzero(flat)]
    return _fixpoint(nfa, hi[:, None] > lo[None, :], seeded)


def _checked(nfa: Nfa, rel: Relation) -> Relation:
    """``rel``, found transitive and to satisfy both co-lex axioms: the
    self-check of either route to the maximum co-lex relation."""
    witness = rel.transitivity_witness()
    if witness is not None:
        raise InternalInvariantViolation(
            f"maximum co-lex relation is not transitive, witness {witness}")
    ok, viol = check_colex_relation(nfa, rel)
    if not ok:
        raise InternalInvariantViolation(
            f"maximum co-lex relation fails its own axioms: {viol}")
    return rel


def max_colex_order(nfa: Nfa) -> Relation | None:
    """The maximum co-lex order, or None when no maximum order exists.

    A maximum exists exactly when the maximum co-lex relation is
    antisymmetric (equivalently, when it has as many classes as states).
    """
    rel = max_colex_relation(nfa)
    return rel if rel.is_antisymmetric() else None


def cfs_order(nfa: Nfa) -> tuple[Relation, QuotientMap]:
    """The forward-stable preorder, lifted to the states, and the quotient map.

    The forward-stable quotient always admits a maximum co-lex order; a
    quotient relation that is not antisymmetric is a bug, raised as
    InternalInvariantViolation.  The lifted preorder is stored densely, so
    automata of more than MAX_DENSE_STATES states raise TooLarge before the
    partition is refined.
    """
    _require_dense(nfa.n_states, "the forward-stable preorder")
    qm, order = _fs_order(nfa)
    return _lifted(order, qm), qm


def cfs_width(nfa: Nfa) -> WidthCertificate:
    """``width(cfs_order(nfa)[0])``, taken on the forward-stable quotient:
    the quotient order's certificate, spliced into the blocks.  Only that
    order is stored densely, so the automaton may have any size; a quotient
    of more than MAX_DENSE_STATES states raises TooLarge before its order
    is allocated.
    """
    qm, order = _fs_order(nfa)
    return width(order).spliced(qm.partition)


def _fs_order(nfa: Nfa) -> tuple[QuotientMap, Relation]:
    """The forward-stable quotient map and the preorder on its blocks,
    checked antisymmetric: the maximum co-lex relation of the quotient."""
    qm = build_quotient(nfa, coarsest_fs_partition(nfa))
    _require_dense(qm.quotient.n_states, "the co-lex order of the forward-stable quotient")
    order = max_colex_relation(qm.quotient)
    if not order.is_antisymmetric():
        raise InternalInvariantViolation(
            "maximum co-lex relation of the forward-stable quotient is not antisymmetric")
    return qm, order


def _lifted(order: Relation, qm: QuotientMap) -> Relation:
    # The order on the blocks, lifted to their states; the quotient by a
    # discrete partition is the automaton, whose states are the blocks.
    if qm.quotient is qm.source:
        return order
    beta = qm.partition.block_array
    return Relation.from_matrix(order.bits[beta][:, beta])


def _quasi_wheeler(nfa: Nfa, rel_fs: Relation) -> bool:
    # rel_fs is the forward-stable preorder, on the states or on the blocks:
    # one is total exactly when the other is.  hi == lo: one label per state.
    return rel_fs.is_total() and np.array_equal(*nfa.label_bounds)


def is_quasi_wheeler(nfa: Nfa) -> tuple[bool, Relation | None]:
    """Detect whether the automaton admits a Wheeler preorder.

    True exactly when the lifted order from cfs_order is a total preorder
    (width 1) and every state has a single incoming label; the lifted
    preorder is then itself a Wheeler preorder and is returned as witness.
    """
    rel, _ = cfs_order(nfa)
    return (True, rel) if _quasi_wheeler(nfa, rel) else (False, None)


def source_distances(nfa: Nfa) -> tuple[int, ...]:
    """Length of the shortest string from the initial state to each state."""
    return tuple(_bfs_distances(nfa.initial, nfa.out_start, nfa.dst))


@dataclass(frozen=True)
class CompareReport:
    """Side-by-side summary of the two constructions on one automaton."""

    n_states: int
    classes_R: int
    classes_FS: int
    width_R: int
    width_FS: int
    superset_holds: bool
    quasi_wheeler: bool
    max_order_exists: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _quotient_route(nfa: Nfa) -> tuple[QuotientMap, Relation, Relation, bool]:
    """The forward-stable quotient map, the order on its blocks, the
    maximum co-lex relation derived from it by the quotient route of the
    module docstring, and whether that relation is the order lifted to the
    states.  Raises TooLarge, before the partition is refined, above
    MAX_DENSE_STATES states."""
    n = nfa.n_states
    _require_dense(n, "the maximum co-lex relation")
    qm, order = _fs_order(nfa)
    beta, k = qm.partition.block_array, qm.partition.n_blocks
    split = ((np.bincount(qm.quotient.dst, minlength=k) > 1)
             & (np.bincount(beta, minlength=k) > 1))
    if not split.any():
        # Fact 3 alone: no pair inside a block is marked.  A discrete
        # partition's lift is the order itself, checked already.
        lifted = _lifted(order, qm)
        return qm, order, lifted if qm.quotient is nfa else _checked(nfa, lifted), True

    def within_blocks(flat, deg):
        # A pair pushes nothing unless both of its states have out-edges.
        # The states of a block of ``split`` with out-edges share its number
        # as key; every other state has a key of its own.
        live = split[beta] & (np.diff(nfa.out_start) > 0)
        if not live.any():
            return
        key = np.where(live, beta, np.arange(k, k + n))
        # The fixpoint is unique, so the seeds may be pushed a row block at
        # a time; each block's 8-byte pair indices stay small.  The flat
        # indices of the diagonal are the multiples of n + 1.
        rows = max(1, _BLOCK_CELLS // n)
        for r in range(0, n, rows):
            seed = np.flatnonzero(key[r:r + rows, None] == key) + r * n
            yield seed[seed % (n + 1) != 0]
    # Marked: the pairs outside the lifted order, and those inside a block
    # of ``split``, whose own pair (b, b) is marked before the gather.
    rel = _fixpoint(nfa, (np.diag(split) | ~order.bits)[np.ix_(beta, beta)], within_blocks)
    return qm, order, rel, False


def max_colex_relation_from_quotient(nfa: Nfa) -> Relation:
    """``max_colex_relation(nfa)`` by the quotient route of the module
    docstring: the propagation runs on the forward-stable quotient alone,
    and the result gets max_colex_relation's self-check."""
    return _quotient_route(nfa)[2]


def compare_report(nfa: Nfa) -> CompareReport:
    """Evaluate both constructions and cross-check the guaranteed inequalities.

    The maximum co-lex relation is derived from the quotient's order by the
    quotient route of the module docstring, so the propagation runs once,
    on the quotient.  The route builds that relation inside the lifted
    forward-stable preorder and returns the lift itself exactly when the
    two are equal, so containment holds by construction and equality is
    read off the route; the width is then taken once, on the quotient's
    order.  The preorder must have no more classes and no
    larger width, and equal the relation exactly when the two class
    partitions coincide.  Any failed guarantee raises
    InternalInvariantViolation.
    """
    qm, order, rel_r, same = _quotient_route(nfa)
    partition = qm.partition
    classes_r = induced_equivalence(rel_r)
    # The preorder's classes are the blocks, listed by least state as the
    # quotient's states are: its order on them is ``order`` and its width is
    # width(order), which is also the relation's when the route returned the
    # lift.
    width_fs = width(order).width
    width_r = width_fs if same else width(rel_r).width
    report = CompareReport(
        n_states=nfa.n_states,
        classes_R=classes_r.n_blocks,
        classes_FS=partition.n_blocks,
        width_R=width_r,
        width_FS=width_fs,
        superset_holds=True,
        quasi_wheeler=_quasi_wheeler(nfa, order),
        max_order_exists=rel_r.is_antisymmetric(),
    )
    if report.classes_FS > report.classes_R:
        raise InternalInvariantViolation(
            f"forward-stable construction has more classes "
            f"({report.classes_FS} > {report.classes_R})")
    if report.width_FS > report.width_R:
        raise InternalInvariantViolation(
            f"forward-stable construction has larger width "
            f"({report.width_FS} > {report.width_R})")
    if same != (classes_r == partition):
        raise InternalInvariantViolation(
            "relation equality and class-partition equality disagree")
    if report.max_order_exists != (report.classes_R == nfa.n_states):
        raise InternalInvariantViolation(
            "antisymmetry disagrees with the class count")
    return report
