"""Co-lexicographic state orderings: the maximum relation and the
coarsest-forward-stable order.

Two constructions are provided and compared.  ``max_colex_relation``
computes the union of all co-lex relations of an automaton, which is
always a preorder: a distinct pair (u, v) belongs to it exactly when no
pair of equally labelled paths into u and v passes through a pair of
states whose incoming-label sets are out of order.  That characterization
is implemented by seeding the label-violating pairs from per-state
incoming-label ranks and propagating "badness" forward through the pair
graph to a fixpoint.  Propagation is semi-naive and runs on numpy arrays:
each round expands only the pairs marked in the previous round, (u, v) to
targets(u, a) x targets(v, a) for every label a, using one out-edge CSR
per label, and the unmarked distinct candidates form the next frontier.
Every pair is expanded at most once, but for each label a of the alphabet
Sigma, and the CSRs hold |Sigma|*(n+1) offsets, so for n states and the
a-edges E_a the work is O(|Sigma|*n^2 + sum_a |E_a|^2) and the memory
O(n^2 + |Sigma|*n): the mark matrix, the frontier, the CSRs and bounded batches.

``cfs_order`` computes the maximum co-lex relation of the quotient by the
coarsest forward-stable partition, where it is guaranteed antisymmetric,
and lifts it back to the states.  The lifted preorder always contains the
maximum co-lex relation, has at most its width, and never has more
classes; ``compare_report`` evaluates both and cross-checks those
guarantees, raising InternalInvariantViolation on any discrepancy.  When
the partition is discrete the quotient is a renaming of the automaton, so
``compare_report`` reuses the maximum co-lex relation as the lifted order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .automaton import Nfa, _bfs_distances
from .errors import InternalInvariantViolation, TooLarge
from .fs_partition import QuotientMap, build_quotient, coarsest_fs_partition
from .oracle import PairGraph, preceding_pairs_oracle  # re-exported
from .relations import (
    Relation,
    _classes,
    _width,
    check_colex_relation,
    label_bounds,
    label_edges,
)


# Most states whose maximum co-lex relation is computed.  The relation and
# its propagation are stored densely, about 20 bytes per state pair at peak
# (the mark matrix, an n*n index array and the self-checks' matrices):
# some 350 MB at this limit.
MAX_DENSE_STATES = 4096

# Frontier pairs taken per numpy batch during propagation, and the most
# candidate pairs one batch expands to for one label; a single frontier pair
# with a larger product is expanded in a batch of its own.
_CHUNK = 1 << 12


def _successor_pairs(ptr: np.ndarray, tgt: np.ndarray, deg: np.ndarray,
                     u: np.ndarray, v: np.ndarray,
                     cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (x, y) in targets(u[i]) x targets(v[i]), over all i, for one label.

    ``ptr``/``tgt`` are the label's out-edge CSR, ``deg`` its out-degrees
    and ``cnt[i] = deg[u[i]] * deg[v[i]]``.
    """
    pair = np.repeat(np.arange(len(u)), cnt)
    k = np.arange(len(pair)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    dv = deg[v][pair]
    return tgt[ptr[u][pair] + k // dv], tgt[ptr[v][pair] + k % dv]


def max_colex_relation(nfa: Nfa) -> Relation:
    """Union of all co-lex relations of the automaton; always a preorder.

    Seeds the distinct pairs whose incoming-label sets are out of order and
    spreads that mark forward through the pair graph, one frontier of newly
    marked pairs per round; the surviving pairs, plus the diagonal, form the
    result.  Transitivity and both co-lex axioms are re-verified before
    returning.  Raises TooLarge, before allocating anything, for automata
    of more than MAX_DENSE_STATES states.
    """
    n = nfa.n_states
    if n > MAX_DENSE_STATES:
        raise TooLarge(
            f"the maximum co-lex relation is stored densely and is limited to "
            f"{MAX_DENSE_STATES} states, got {n}")
    hi, lo = label_bounds(nfa)
    bad = hi[:, None] > lo[None, :]
    np.fill_diagonal(bad, False)
    flat = bad.reshape(-1)
    csr = []
    for src, dst in label_edges(nfa):
        ptr = np.searchsorted(src, np.arange(n + 1))
        csr.append((ptr, dst, np.diff(ptr)))
    # slot[c] == position of c in its batch marks a first occurrence.
    slot = np.empty(n * n, dtype=np.intp)
    frontier = np.flatnonzero(flat)
    while len(frontier):
        found = []
        for f in range(0, len(frontier), _CHUNK):
            u, v = np.divmod(frontier[f:f + _CHUNK], n)
            for ptr, tgt, deg in csr:
                cnt = deg[u] * deg[v]
                cuts = np.flatnonzero(np.diff(np.cumsum(cnt) // _CHUNK)) + 1
                for s, e in zip([0, *cuts], [*cuts, len(cnt)]):
                    x, y = _successor_pairs(ptr, tgt, deg, u[s:e], v[s:e], cnt[s:e])
                    cand = x * n + y
                    cand = cand[(x != y) & ~flat[cand]]
                    pos = np.arange(len(cand))
                    slot[cand] = pos
                    cand = cand[slot[cand] == pos]
                    flat[cand] = True
                    found.append(cand)
        frontier = np.concatenate(found)

    rel = Relation.from_matrix(~bad)
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
    """Preorder induced by the maximum co-lex order of the forward-stable quotient.

    The quotient by the coarsest forward-stable partition always admits a
    maximum co-lex order; lifting it along the projection gives a preorder
    on the original states whose classes are exactly the partition blocks.
    Returns the lifted preorder and the quotient map.  Antisymmetry of the
    quotient relation is guaranteed; its failure means a bug and raises
    InternalInvariantViolation.
    """
    qm = build_quotient(nfa, coarsest_fs_partition(nfa))
    return _lifted_quotient_order(qm), qm


def _require_antisymmetric(rel: Relation) -> Relation:
    if not rel.is_antisymmetric():
        raise InternalInvariantViolation(
            "maximum co-lex relation of the forward-stable quotient is not antisymmetric")
    return rel


def _lifted_quotient_order(qm: QuotientMap) -> Relation:
    qrel = _require_antisymmetric(max_colex_relation(qm.quotient))
    beta = np.array(qm.partition.block_of)
    return Relation.from_matrix(qrel.bits[beta[:, None], beta[None, :]])


def _quasi_wheeler(nfa: Nfa, rel_fs: Relation) -> bool:
    # rel_fs is the lifted order from cfs_order.
    return rel_fs.is_total() and all(len(s) == 1 for s in nfa.lambda_sets)


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
    return tuple(_bfs_distances(nfa.n_states, nfa.initial, nfa.transitions))


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


def compare_report(nfa: Nfa) -> CompareReport:
    """Evaluate both constructions and cross-check the guaranteed inequalities.

    The lifted forward-stable preorder must contain the maximum co-lex
    relation, have no more classes and no larger width, and coincide with
    it exactly when the two class partitions coincide.  Any failed
    guarantee raises InternalInvariantViolation.
    """
    rel_r = max_colex_relation(nfa)
    partition = coarsest_fs_partition(nfa)
    if partition.n_blocks == nfa.n_states:
        # A discrete partition makes the quotient a renaming of the
        # automaton, so its lifted maximum co-lex order is rel_r itself.
        rel_fs = _require_antisymmetric(rel_r)
    else:
        rel_fs = _lifted_quotient_order(build_quotient(nfa, partition))
    # Both relations are preorders by construction (max_colex_relation has
    # checked transitivity), and the classes of rel_fs are the partition's
    # blocks because the quotient's relation is antisymmetric.
    classes_r = _classes(rel_r)
    width_r = _width(rel_r, classes_r).width
    width_fs = width_r if rel_fs is rel_r else _width(rel_fs, partition).width
    superset = rel_fs.superset_of(rel_r)
    report = CompareReport(
        n_states=nfa.n_states,
        classes_R=classes_r.n_blocks,
        classes_FS=partition.n_blocks,
        width_R=width_r,
        width_FS=width_fs,
        superset_holds=superset,
        quasi_wheeler=_quasi_wheeler(nfa, rel_fs),
        max_order_exists=rel_r.is_antisymmetric(),
    )
    if not superset:
        raise InternalInvariantViolation(
            "forward-stable preorder does not contain the maximum co-lex relation")
    if report.classes_FS > report.classes_R:
        raise InternalInvariantViolation(
            f"forward-stable construction has more classes "
            f"({report.classes_FS} > {report.classes_R})")
    if report.width_FS > report.width_R:
        raise InternalInvariantViolation(
            f"forward-stable construction has larger width "
            f"({report.width_FS} > {report.width_R})")
    if (rel_r == rel_fs) != (classes_r == partition):
        raise InternalInvariantViolation(
            "relation equality and class-partition equality disagree")
    if report.max_order_exists != (report.classes_R == nfa.n_states):
        raise InternalInvariantViolation(
            "antisymmetry disagrees with the class count")
    return report
