"""Exhaustive reference implementations for cross-checking the fast paths.

Everything here trades time for obviousness and shares no algorithmic
ideas with the production code.  Partitions are enumerated outright and
kept when the members of each block share one set of (predecessor block,
label) pairs.  The maximum co-lex relation is found by greatest-fixpoint
deletion over a pair graph, width by scanning all subsets of the classes,
and reach sets by walking every string up to a length bound.  Edges are
read from the list of transitions and relations from their matrix alone,
through no index, product or check of the production code.  Guards raise
TooLarge beyond the exhaustive-search bounds.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .automaton import Nfa, lambda_leq
from .errors import (EqualPair, InternalInvariantViolation, InvalidParameter, NotPreorder,
                     TooLarge)
from .fs_partition import Partition
from .relations import Relation

MAX_BRUTE_STATES = 8
MAX_BRUTE_CLASSES = 15
MAX_REACH_LEN = 8


def _growth_strings(n: int) -> Iterator[list[int]]:
    # Restricted growth strings a: a[0] = 0, a[i] <= max(a[:i]) + 1.
    # They enumerate set partitions without duplicates.
    a = [0] * n

    def rec(i: int, mx: int) -> Iterator[list[int]]:
        if i == n:
            yield list(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def enumerate_fs_partitions(nfa: Nfa) -> list[Partition]:
    """Every forward-stable partition, by filtering all set partitions."""
    if nfa.n_states > MAX_BRUTE_STATES:
        raise TooLarge(
            f"partition enumeration is limited to {MAX_BRUTE_STATES} states, "
            f"got {nfa.n_states}")
    found = []
    for rgs in _growth_strings(nfa.n_states):
        pairs: list[set[tuple[int, str]]] = [set() for _ in range(nfa.n_states)]
        for (u, a, v) in nfa.transitions:
            pairs[v].add((rgs[u], a))
        head: dict[int, int] = {}  # the first member of each block
        if all(pairs[x] == pairs[head.setdefault(b, x)] for x, b in enumerate(rgs)):
            found.append(Partition.from_block_of(rgs))
    return found


def brute_coarsest_fs(nfa: Nfa) -> Partition:
    """The forward-stable partition that every other one refines."""
    candidates = enumerate_fs_partitions(nfa)
    coarsest = [p for p in candidates if all(c.refines(p) for c in candidates)]
    if len(coarsest) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one coarsest forward-stable partition, "
            f"found {len(coarsest)}")
    return coarsest[0]


class PairGraph:
    """Directed graph on ordered pairs of distinct states.

    There is an edge (u', v') -> (u, v) whenever u and v are a-successors
    of u' and v' for the same label a.  Walking it forward visits the pairs
    whose path history includes (u', v'); walking it backward from (u, v)
    enumerates the pairs preceding (u, v), i.e. the pairs through which
    equally labelled path pairs into u and v travel.  It indexes the edges itself.
    """

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self._out: dict[tuple[int, str], list[int]] = {}
        self._in: dict[tuple[int, str], list[int]] = {}
        for (u, a, v) in nfa.transitions:
            self._out.setdefault((u, a), []).append(v)
            self._in.setdefault((v, a), []).append(u)

    def successors(self, u: int, v: int):
        return self._pairs(self._out, u, v)

    def predecessors(self, u: int, v: int):
        return self._pairs(self._in, u, v)

    def _pairs(self, adj: dict[tuple[int, str], list[int]], u: int, v: int):
        for a in self.nfa.alphabet:
            for x in adj.get((u, a), ()):
                for y in adj.get((v, a), ()):
                    if x != y:
                        yield (x, y)


def preceding_pairs_oracle(nfa: Nfa, u: int, v: int) -> frozenset[tuple[int, int]]:
    """All pairs of distinct states preceding (u, v), including (u, v) itself.

    A pair (u', v') precedes (u, v) when some pair of equally labelled
    paths leads from u' to u and from v' to v through pairwise distinct
    intermediate pairs.  Computed by backward search over the pair graph;
    exponential-path enumeration is never needed because precedence only
    depends on pair reachability.
    """
    if u == v:
        raise EqualPair(f"preceding pairs are defined for distinct states, got ({u},{u})")
    for x in (u, v):
        if not 0 <= x < nfa.n_states:
            raise InvalidParameter(f"state {x} out of range")
    pg = PairGraph(nfa)
    seen = {(u, v)}
    queue = deque([(u, v)])
    while queue:
        pair = queue.popleft()
        for pred in pg.predecessors(*pair):
            if pred not in seen:
                seen.add(pred)
                queue.append(pred)
    return frozenset(seen)


def brute_max_colex_relation(nfa: Nfa) -> Relation:
    """Greatest fixpoint: start from the label-compatible pairs and delete
    every pair with an unrelated distinct predecessor pair until stable."""
    n = nfa.n_states
    if n > MAX_BRUTE_STATES:
        raise TooLarge(
            f"relation search is limited to {MAX_BRUTE_STATES} states, got {n}")
    live = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and lambda_leq(nfa.lambda_sets[u], nfa.lambda_sets[v])
    }
    pg = PairGraph(nfa)
    changed = True
    while changed:
        changed = False
        for (u, v) in sorted(live):
            if any(p not in live for p in pg.predecessors(u, v)):
                live.discard((u, v))
                changed = True
    return Relation(n, live)


def brute_width(rel: Relation) -> int:
    """Largest antichain size, by scanning every subset of the classes.
    Raises NotPreorder with the first (u, v, w) by u, w, then v, that has
    (u, v) and (v, w) but not (u, w); that loop suits a few dozen states."""
    r = rel.bits.tolist()
    n = len(r)
    for u in range(n):
        for w in range(n):
            vs = [v for v in range(n) if r[u][v] and r[v][w]]
            if vs and not r[u][w]:
                raise NotPreorder((u, vs[0], w))
    # The least member of each class: no earlier state is mutually related.
    reps = [u for u in range(n) if not any(r[u][x] and r[x][u] for x in range(u))]
    m = len(reps)
    if m > MAX_BRUTE_CLASSES:
        raise TooLarge(
            f"width search is limited to {MAX_BRUTE_CLASSES} classes, got {m}")
    comp = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and (r[reps[i]][reps[j]] or r[reps[j]][reps[i]]):
                comp[i] |= 1 << j
    best = 0
    for mask in range(1, 1 << m):
        rest = mask
        antichain = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if comp[i] & mask:
                antichain = False
                break
            rest &= rest - 1
        if antichain:
            best = max(best, bin(mask).count("1"))
    return best


def reach_sets(nfa: Nfa, max_len: int) -> tuple[frozenset[tuple[str, ...]], ...]:
    """For each state, the set of strings of length <= max_len reaching it.

    Strings are tuples of labels; the empty tuple reaches the initial
    state.  Walks every live string level by level.
    """
    if max_len < 0:
        raise InvalidParameter(f"max_len must be >= 0, got {max_len}")
    if max_len > MAX_REACH_LEN:
        raise TooLarge(
            f"string enumeration is limited to length {MAX_REACH_LEN}, got {max_len}")
    per_state: list[set[tuple[str, ...]]] = [set() for _ in range(nfa.n_states)]
    frontier: dict[tuple[str, ...], frozenset[int]] = {
        (): frozenset((nfa.initial,))}
    per_state[nfa.initial].add(())
    for _ in range(max_len):
        nxt: dict[tuple[str, ...], frozenset[int]] = {}
        for word, states in frontier.items():
            for a in nfa.alphabet:
                image = frozenset(v for (u, b, v) in nfa.transitions
                                  if b == a and u in states)
                if image:
                    longer = word + (a,)
                    nxt[longer] = image
                    for u in image:
                        per_state[u].add(longer)
        frontier = nxt
    return tuple(frozenset(s) for s in per_state)
