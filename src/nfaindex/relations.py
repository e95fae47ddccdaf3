"""Binary relations over NFA states: order axioms, width, certificates.

Relations are reflexive by construction and stored as dense boolean
matrices.  The checkers verify the two co-lex axioms (incoming-label sets
must not decrease along the relation; relatedness of distinct successors
propagates to predecessors) and the Wheeler axioms for total orders and
total preorders.  ``width`` computes the Dilworth width of a preorder
together with a certificate: a maximum antichain and a minimum chain cover
of matching size, obtained from a maximum bipartite matching and the
Koenig vertex-cover construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .automaton import HASH, Nfa, label_key
from .errors import (
    InternalInvariantViolation,
    NotPreorder,
    PartitionMismatch,
    SizeMismatch,
    ValidationError,
)
from .fs_partition import Partition, build_quotient, coarsest_fs_partition


class Relation:
    """Reflexive relation on 0..n-1 as a dense bool matrix.

    The matrix is frozen after construction; the diagonal is forced on.
    """

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        bits = np.zeros((n, n), dtype=bool)
        for (u, v) in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise SizeMismatch(f"pair ({u},{v}) out of range for n={n}")
            bits[u, v] = True
        np.fill_diagonal(bits, True)
        bits.setflags(write=False)
        self.n = n
        self.bits = bits

    @classmethod
    def from_matrix(cls, bits: np.ndarray) -> "Relation":
        m = np.array(bits, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SizeMismatch(f"expected a square matrix, got shape {m.shape}")
        np.fill_diagonal(m, True)
        m.setflags(write=False)
        rel = cls.__new__(cls)
        rel.n = m.shape[0]
        rel.bits = m
        return rel

    def contains(self, u: int, v: int) -> bool:
        return bool(self.bits[u, v])

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self.contains(*pair)

    def pairs(self) -> list[tuple[int, int]]:
        """Non-diagonal pairs, sorted."""
        return [(int(u), int(v)) for u, v in np.argwhere(self.bits) if u != v]

    def superset_of(self, other: "Relation") -> bool:
        if self.n != other.n:
            raise SizeMismatch(f"relations over {self.n} and {other.n} elements")
        return bool(np.all(self.bits | other.bits == self.bits))

    def is_antisymmetric(self) -> bool:
        off = self.bits & self.bits.T
        np.fill_diagonal(off, False)
        return not off.any()

    def is_total(self) -> bool:
        """Every pair related one way or the other (connex)."""
        return bool(np.all(self.bits | self.bits.T))

    def _compose(self) -> np.ndarray:
        # float32 counts the middle elements exactly up to 2**24; uint8 would
        # wrap at 256 and hide a gap shared by 256 middles.
        a = self.bits.astype(np.float32)
        return (a @ a) > 0

    def transitivity_witness(self) -> tuple[int, int, int] | None:
        """First (u, v, w) with (u,v),(v,w) in R but (u,w) not, or None."""
        gaps = self._compose() & ~self.bits
        hits = np.argwhere(gaps)
        if len(hits) == 0:
            return None
        u, w = (int(x) for x in hits[0])
        via = np.flatnonzero(self.bits[u] & self.bits[:, w])
        return (u, int(via[0]), w)

    def is_transitive(self) -> bool:
        return self.transitivity_witness() is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, pairs={self.pairs()})"


def relation_to_json_dict(rel: Relation, names: Sequence[str]) -> dict:
    """External JSON form: {"n": n, "pairs": [[uName, vName], ...]}.

    Pairs are non-diagonal and sorted by state id; the diagonal is implied.
    """
    if len(names) != rel.n:
        raise SizeMismatch(f"{len(names)} names for a relation over {rel.n}")
    return {"n": rel.n, "pairs": [[names[u], names[v]] for (u, v) in rel.pairs()]}


def relation_from_json_dict(obj, nfa: Nfa) -> Relation:
    """Parse the JSON form against an automaton's state names."""
    if not isinstance(obj, dict) or "n" not in obj or "pairs" not in obj:
        raise ValidationError('relation JSON must have keys "n" and "pairs"')
    if obj["n"] != nfa.n_states:
        raise SizeMismatch(
            f'relation is over {obj["n"]} states, automaton has {nfa.n_states}')
    pairs = []
    for item in obj["pairs"]:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValidationError(f"malformed relation pair {item!r}")
        u_name, v_name = item
        for nm in (u_name, v_name):
            if nm not in nfa.id_of:
                raise ValidationError(f"unknown state name {nm!r} in relation")
        pairs.append((nfa.id_of[u_name], nfa.id_of[v_name]))
    return Relation(nfa.n_states, pairs)


@dataclass(frozen=True)
class Violation:
    """Failed rule plus a deterministic first witness, in state ids."""

    rule: str
    witness: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


def _check_size(nfa: Nfa, rel: Relation) -> None:
    if rel.n != nfa.n_states:
        raise SizeMismatch(
            f"relation over {rel.n} elements, automaton has {nfa.n_states} states")


# Cells of one label's edge-pair mask examined per numpy batch.
_AXIOM2_CELLS = 1 << 14


def label_bounds(nfa: Nfa) -> tuple[np.ndarray, np.ndarray]:
    """Highest and lowest rank of each state's incoming labels.

    HASH ranks 0 and the alphabet 1, 2, ... in label order, so
    ``hi[u] <= lo[v]`` holds exactly when lambda_leq(λ(u), λ(v)).
    """
    rank = {a: i for i, a in enumerate(nfa.alphabet, 1)}
    rank[HASH] = 0
    hi = np.array([max(rank[a] for a in s) for s in nfa.lambda_sets], dtype=np.intp)
    lo = np.array([min(rank[a] for a in s) for s in nfa.lambda_sets], dtype=np.intp)
    return hi, lo


def label_edges(nfa: Nfa) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per label in alphabet order, its edges as (sources, targets) arrays
    sorted by source, then target."""
    by_label: dict[str, tuple[list[int], list[int]]] = {a: ([], []) for a in nfa.alphabet}
    for (u, a, v) in nfa.transitions:
        src, dst = by_label[a]
        src.append(u)
        dst.append(v)
    return [(np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))
            for src, dst in by_label.values()]


def _first_hit(mask: np.ndarray) -> tuple[int, int] | None:
    """Row-major first True cell of a 2-D mask, or None."""
    flat = int(mask.argmax())
    if not mask.flat[flat]:
        return None
    i, j = np.unravel_index(flat, mask.shape)
    return int(i), int(j)


def _axiom1_violation(nfa: Nfa, rel: Relation, strict_name: str) -> Violation | None:
    hi, lo = label_bounds(nfa)
    bad = rel.bits & (hi[:, None] > lo[None, :])
    np.fill_diagonal(bad, False)
    hit = _first_hit(bad)
    if hit is None:
        return None
    u, v = hit
    return Violation(
        "labels-decrease", (u, v),
        f"{nfa.names[u]} {strict_name} {nfa.names[v]} but incoming labels "
        f"{sorted(nfa.lambda_sets[u])} exceed {sorted(nfa.lambda_sets[v])}")


def _axiom2_violation(nfa: Nfa, rel: Relation, strict_name: str) -> Violation | None:
    # Cell (i, j) of a label's mask pairs its i-th and j-th edge, in the
    # order the edges are listed, so the first hit is the first witness of
    # a scan over edge pairs.
    bits = rel.bits
    for a, (src, dst) in zip(nfa.alphabet, label_edges(nfa)):
        rows = max(1, _AXIOM2_CELLS // len(dst))
        for r in range(0, len(dst), rows):
            s, d = src[r:r + rows, None], dst[r:r + rows, None]
            hit = _first_hit(bits[d, dst] & (d != dst) & ~bits[s, src])
            if hit is None:
                continue
            i, j = hit[0] + r, hit[1]
            up, u, vp, v = int(src[i]), int(dst[i]), int(src[j]), int(dst[j])
            return Violation(
                "predecessors-unrelated", (u, v, up, vp, a),
                f"{nfa.names[u]} {strict_name} {nfa.names[v]} via "
                f"{a!r}-edges from {nfa.names[up]}, {nfa.names[vp]} "
                f"but ({nfa.names[up]}, {nfa.names[vp]}) is not related")
    return None


def check_colex_relation(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Verify the two co-lex axioms for a reflexive relation.

    Axiom 1: related distinct states have non-decreasing incoming-label
    sets.  Axiom 2: if distinct a-successors are related, the corresponding
    predecessors must be related too.
    """
    _check_size(nfa, rel)
    v = _axiom1_violation(nfa, rel, "~")
    if v is None:
        v = _axiom2_violation(nfa, rel, "~")
    return (v is None), v


def _partial_order_violation(nfa: Nfa, rel: Relation) -> Violation | None:
    sym = rel.bits & rel.bits.T
    np.fill_diagonal(sym, False)
    hits = np.argwhere(sym)
    if len(hits):
        u, v = (int(x) for x in hits[0])
        return Violation(
            "not-antisymmetric", (u, v),
            f"both ({nfa.names[u]}, {nfa.names[v]}) and the reverse are present")
    w = rel.transitivity_witness()
    if w is not None:
        u, v, x = w
        return Violation(
            "not-transitive", w,
            f"({nfa.names[u]},{nfa.names[v]}) and ({nfa.names[v]},{nfa.names[x]}) "
            f"present but ({nfa.names[u]},{nfa.names[x]}) absent")
    return None


def check_colex_order(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Co-lex axioms plus partial-order structure (antisymmetry, transitivity)."""
    _check_size(nfa, rel)
    viol = _partial_order_violation(nfa, rel)
    if viol is not None:
        return False, viol
    viol = _axiom1_violation(nfa, rel, "<")
    if viol is None:
        viol = _axiom2_violation(nfa, rel, "<")
    return (viol is None), viol


def check_wheeler_order(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Verify a total order with the initial state first and both Wheeler axioms.

    Axiom 1: targets of a smaller label strictly precede targets of a
    larger one.  Axiom 2: equal-label edges from strictly ordered sources
    have non-decreasing targets.
    """
    _check_size(nfa, rel)
    viol = _partial_order_violation(nfa, rel)
    if viol is not None:
        return False, viol
    conn = rel.bits | rel.bits.T
    miss = np.argwhere(~conn)
    if len(miss):
        u, v = (int(x) for x in miss[0])
        return False, Violation(
            "not-total", (u, v),
            f"{nfa.names[u]} and {nfa.names[v]} are incomparable")
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


def check_wheeler_preorder(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Total preorder whose classes are the coarsest forward-stable blocks
    and whose induced order is a Wheeler order of the quotient."""
    _check_size(nfa, rel)
    w = rel.transitivity_witness()
    if w is not None:
        u, v, x = w
        return False, Violation(
            "not-transitive", w,
            f"({nfa.names[u]},{nfa.names[v]}) and ({nfa.names[v]},{nfa.names[x]}) "
            f"present but ({nfa.names[u]},{nfa.names[x]}) absent")
    conn = rel.bits | rel.bits.T
    miss = np.argwhere(~conn)
    if len(miss):
        u, v = (int(x) for x in miss[0])
        return False, Violation(
            "not-total", (u, v),
            f"{nfa.names[u]} and {nfa.names[v]} are incomparable")
    classes = induced_equivalence(rel)
    coarsest = coarsest_fs_partition(nfa)
    if classes != coarsest:
        return False, Violation(
            "equivalence-mismatch", (),
            f"preorder classes {classes.blocks_by_name(nfa.names)} differ from the "
            f"coarsest forward-stable blocks {coarsest.blocks_by_name(nfa.names)}")
    qm = build_quotient(nfa, classes)
    ok, viol = check_wheeler_order(qm.quotient, induced_order(rel, classes))
    if not ok:
        return False, Violation("quotient-" + viol.rule, viol.witness, viol.detail)
    return True, None


def induced_equivalence(rel: Relation) -> Partition:
    """Classes of mutually related states.  Requires a preorder."""
    w = rel.transitivity_witness()
    if w is not None:
        raise NotPreorder(w)
    sym = rel.bits & rel.bits.T
    assigned = [-1] * rel.n
    blocks: list[list[int]] = []
    for u in range(rel.n):
        if assigned[u] < 0:
            members = [int(x) for x in np.flatnonzero(sym[u])]
            for x in members:
                assigned[x] = len(blocks)
            blocks.append(members)
    return Partition(rel.n, blocks)


def induced_order(rel: Relation, partition: Partition) -> Relation:
    """Partial order on class indices induced by a preorder.

    ``partition`` must equal induced_equivalence(rel); passing it
    explicitly keeps class indices aligned with the caller's quotient.
    """
    if partition != induced_equivalence(rel):
        raise PartitionMismatch("partition is not the class partition of the relation")
    reps = [b[0] for b in partition.blocks]
    return Relation.from_matrix(rel.bits[np.ix_(reps, reps)])


@dataclass(frozen=True)
class WidthCertificate:
    """Width of a preorder with a checkable certificate.

    ``antichain`` holds one representative state per pairwise-incomparable
    class; ``chains`` partition all states into totally ordered sequences.
    Both have exactly ``width`` entries / chains.
    """

    width: int
    antichain: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]

    def to_json_dict(self, names: Sequence[str]) -> dict:
        return {
            "width": self.width,
            "antichain": [names[u] for u in self.antichain],
            "chains": [[names[u] for u in c] for c in self.chains],
        }


def _max_matching(m: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Kuhn's augmenting paths; returns (match_left, match_right), -1 = free.

    Left vertices are tried in ascending order and adjacency lists are
    ascending, so the matching is deterministic.
    """
    match_left = [-1] * m
    match_right = [-1] * m

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] < 0 or try_augment(match_right[j], seen):
                    match_left[i] = j
                    match_right[j] = i
                    return True
        return False

    for i in range(m):
        try_augment(i, [False] * m)
    return match_left, match_right


def width(rel: Relation) -> WidthCertificate:
    """Dilworth width of a preorder, with antichain and chain-cover certificate.

    The width is computed on the induced order of the classes: a minimum
    chain cover comes from a maximum bipartite matching (each matched edge
    fuses two chains), a maximum antichain from the Koenig vertex cover of
    the same matching.  Equivalent states are spliced into their class's
    chain.  The certificate is re-validated before returning; a failure
    there is a bug, reported as InternalInvariantViolation.
    """
    classes = induced_equivalence(rel)  # raises NotPreorder on bad input
    order = induced_order(rel, classes)
    m = classes.n_blocks
    strict = order.bits.copy()
    np.fill_diagonal(strict, False)
    adj = [[int(j) for j in np.flatnonzero(strict[i])] for i in range(m)]

    match_left, match_right = _max_matching(m, adj)
    n_matched = sum(1 for j in match_left if j >= 0)
    w = m - n_matched

    chains: list[tuple[int, ...]] = []
    for start in range(m):
        if match_right[start] >= 0:
            continue
        states: list[int] = []
        c = start
        while True:
            states.extend(classes.blocks[c])
            if match_left[c] < 0:
                break
            c = match_left[c]
        chains.append(tuple(states))
    chains.sort(key=lambda c: c[0])

    # Koenig: alternate from unmatched left vertices; uncovered classes
    # (left side reached, right side not) form a maximum antichain.
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
    antichain = tuple(classes.blocks[i][0] for i in range(m)
                      if in_left[i] and not in_right[i])

    cert = WidthCertificate(width=w, antichain=antichain, chains=tuple(chains))
    _validate_certificate(rel, cert)
    return cert


def _validate_certificate(rel: Relation, cert: WidthCertificate) -> None:
    if len(cert.antichain) != cert.width or len(cert.chains) != cert.width:
        raise InternalInvariantViolation(
            f"certificate sizes {len(cert.antichain)}/{len(cert.chains)} "
            f"do not match width {cert.width}")
    for i, u in enumerate(cert.antichain):
        for v in cert.antichain[i + 1:]:
            if rel.bits[u, v] or rel.bits[v, u]:
                raise InternalInvariantViolation(
                    f"antichain members {u} and {v} are comparable")
    flat = sorted(x for c in cert.chains for x in c)
    if flat != list(range(rel.n)):
        raise InternalInvariantViolation("chains do not partition the elements")
    for chain in cert.chains:
        for i, u in enumerate(chain):
            for v in chain[i + 1:]:
                if not rel.bits[u, v]:
                    raise InternalInvariantViolation(
                        f"chain elements {u} and {v} are not ordered")
