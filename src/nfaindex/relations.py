"""Binary relations over NFA states: order axioms, width, certificates.

Relations are reflexive by construction and stored as dense boolean
matrices.  The checkers verify the two co-lex axioms (incoming-label sets
must not decrease along the relation; relatedness of distinct successors
propagates to predecessors) and the Wheeler axioms for total orders and
total preorders.  ``width`` computes the Dilworth width of a preorder
together with a certificate: a maximum antichain and a minimum chain cover
of matching size, obtained from a maximum bipartite matching and the
Koenig vertex-cover construction.

The work is done on arrays, never per pair in Python.  The axiom-2 and
Wheeler checks scan the O(m^2) cells of an edge-pair mask in row chunks
of bounded size; the first hit in row-major order is the witness a scan
over edge pairs in listed order would find.  The JSON form of a relation
is read with one name lookup per entry and a single scatter into the
matrix, and ``relation_to_json_text`` writes it without the generic JSON
encoder.  Inputs are re-scanned one item at a time only to word the error
for an input that is already rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .automaton import Nfa
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
        pairs = list(pairs)
        ids = np.array(pairs)
        if ids.size and ids.dtype.kind not in "biu":  # numpy would truncate or parse
            raise TypeError(f"relation pairs must hold integers, got {ids.dtype}")
        ids = ids.astype(np.intp).reshape(len(pairs), 2)
        outside = ((ids < 0) | (ids >= n)).any(axis=1)
        if outside.any():
            u, v = pairs[int(outside.argmax())]
            raise SizeMismatch(f"pair ({u},{v}) out of range for n={n}")
        bits = np.zeros((n, n), dtype=bool)
        bits[ids[:, 0], ids[:, 1]] = True
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
        us, vs = self._off_diagonal()
        return list(zip(us, vs))

    def _off_diagonal(self) -> tuple[list[int], list[int]]:
        # Sources and targets of the non-diagonal pairs, in row-major order.
        off = self.bits.copy()
        np.fill_diagonal(off, False)
        us, vs = np.nonzero(off)
        return us.tolist(), vs.tolist()

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


def relation_to_json_text(rel: Relation, names: Sequence[str]) -> str:
    """``json.dumps(relation_to_json_dict(rel, names), indent=2)``, byte for byte.

    Each name is encoded once and the fixed two-space layout is joined
    directly; with ``indent`` the json module falls back to its pure-Python
    encoder, which costs several times more on large relations.
    """
    if len(names) != rel.n:
        raise SizeMismatch(f"{len(names)} names for a relation over {rel.n}")
    quoted = [json.dumps(nm) for nm in names]
    head = [f"    [\n      {q},\n      " for q in quoted]
    tail = [f"{q}\n    ]" for q in quoted]
    us, vs = rel._off_diagonal()
    if not us:
        return f'{{\n  "n": {rel.n},\n  "pairs": []\n}}'
    body = ",\n".join([head[u] + tail[v] for u, v in zip(us, vs)])
    return f'{{\n  "n": {rel.n},\n  "pairs": [\n{body}\n  ]\n}}'


def relation_from_json_dict(obj, nfa: Nfa) -> Relation:
    """Parse the JSON form against an automaton's state names."""
    if not isinstance(obj, dict) or "n" not in obj or "pairs" not in obj:
        raise ValidationError('relation JSON must have keys "n" and "pairs"')
    if obj["n"] != nfa.n_states:
        raise SizeMismatch(
            f'relation is over {obj["n"]} states, automaton has {nfa.n_states}')
    items = obj["pairs"]
    if not isinstance(items, (list, tuple)):
        raise ValidationError('relation "pairs" must be a list of name pairs')
    id_of = nfa.id_of
    try:
        if not (all(issubclass(t, (list, tuple)) for t in set(map(type, items)))
                and set(map(len, items)) <= {2}):
            raise TypeError
        # A name that is not a string misses id_of (KeyError) or is unhashable.
        ids = np.array([id_of[nm] for item in items for nm in item], dtype=np.intp)
    except (KeyError, TypeError):
        _raise_first_bad_pair(items, id_of)
    bits = np.zeros((nfa.n_states, nfa.n_states), dtype=bool)
    bits[ids[0::2], ids[1::2]] = True
    return Relation.from_matrix(bits)


def _raise_first_bad_pair(items, id_of) -> None:
    # Words the error for the first item, in listed order, of pairs that
    # relation_from_json_dict rejected in bulk.
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValidationError(f"malformed relation pair {item!r}")
        for nm in item:
            if not isinstance(nm, str):
                raise ValidationError(f"state name {nm!r} in relation is not a string")
            if nm not in id_of:
                raise ValidationError(f"unknown state name {nm!r} in relation")
    raise InternalInvariantViolation("relation pairs rejected in bulk but not one by one")


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


# Cells of an edge-pair mask examined per numpy batch.
_EDGE_PAIR_CELLS = 1 << 14


def label_bounds(nfa: Nfa) -> tuple[np.ndarray, np.ndarray]:
    """Highest and lowest rank of each state's incoming labels.

    HASH ranks 0 and the alphabet 1, 2, ... in label order, so
    ``hi[u] <= lo[v]`` holds exactly when lambda_leq(λ(u), λ(v)).
    """
    hi = np.zeros(nfa.n_states, dtype=np.intp)
    lo = np.full(nfa.n_states, len(nfa.alphabet) + 1, dtype=np.intp)
    np.maximum.at(hi, nfa.dst, nfa.lab + 1)
    np.minimum.at(lo, nfa.dst, nfa.lab + 1)
    lo[nfa.initial] = 0  # the initial state alone is entered by no edge
    return hi, lo


def label_edges(nfa: Nfa) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per label in alphabet order, its edges as (sources, targets) arrays
    sorted by source, then target."""
    order = np.argsort(nfa.lab, kind="stable")
    ends = np.searchsorted(nfa.lab[order], np.arange(len(nfa.alphabet) + 1)).tolist()
    return [(nfa.src[order[b:e]], nfa.dst[order[b:e]]) for b, e in zip(ends, ends[1:])]


def _first_hit(mask: np.ndarray) -> tuple[int, int] | None:
    """Row-major first True cell of a 2-D mask, or None."""
    if not mask.any():  # also covers an empty mask, where argmax raises
        return None
    i, j = np.unravel_index(int(mask.argmax()), mask.shape)
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


def _first_edge_pair(m: int, mask_rows) -> tuple[int, int] | None:
    """Row-major first True cell of an m×m edge-pair mask, or None.

    ``mask_rows(r0, r1)`` returns rows r0..r1-1 of the mask; the rows are
    built in chunks of at most about _EDGE_PAIR_CELLS cells.
    """
    rows = max(1, _EDGE_PAIR_CELLS // max(1, m))
    for r in range(0, m, rows):
        hit = _first_hit(mask_rows(r, min(m, r + rows)))
        if hit is not None:
            return hit[0] + r, hit[1]
    return None


def _axiom2_violation(nfa: Nfa, rel: Relation, strict_name: str) -> Violation | None:
    # Cell (i, j) of a label's mask pairs its i-th and j-th edge, in the
    # order the edges are listed, so the first hit is the first witness of
    # a scan over edge pairs.
    bits = rel.bits
    for a, (src, dst) in zip(nfa.alphabet, label_edges(nfa)):
        def mask_rows(r0, r1):
            s, d = src[r0:r1, None], dst[r0:r1, None]
            return bits[d, dst] & (d != dst) & ~bits[s, src]
        hit = _first_edge_pair(len(dst), mask_rows)
        if hit is None:
            continue
        i, j = hit
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


def _transitivity_violation(nfa: Nfa, rel: Relation) -> Violation | None:
    w = rel.transitivity_witness()
    if w is None:
        return None
    u, v, x = w
    return Violation(
        "not-transitive", w,
        f"({nfa.names[u]},{nfa.names[v]}) and ({nfa.names[v]},{nfa.names[x]}) "
        f"present but ({nfa.names[u]},{nfa.names[x]}) absent")


def _totality_violation(nfa: Nfa, rel: Relation) -> Violation | None:
    hit = _first_hit(~(rel.bits | rel.bits.T))
    if hit is None:
        return None
    u, v = hit
    return Violation(
        "not-total", (u, v), f"{nfa.names[u]} and {nfa.names[v]} are incomparable")


def _partial_order_violation(nfa: Nfa, rel: Relation) -> Violation | None:
    sym = rel.bits & rel.bits.T
    np.fill_diagonal(sym, False)
    hit = _first_hit(sym)
    if hit is not None:
        u, v = hit
        return Violation(
            "not-antisymmetric", (u, v),
            f"both ({nfa.names[u]}, {nfa.names[v]}) and the reverse are present")
    return _transitivity_violation(nfa, rel)


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
    # Cell (i, j) pairs the i-th and j-th transition in listed order, so the
    # first hit is the first witness of a scan over transition pairs.
    src, lab, dst, bits = nfa.src, nfa.lab, nfa.dst, rel.bits

    def mask_rows(r0, r1):
        s, b, d = src[r0:r1, None], lab[r0:r1, None], dst[r0:r1, None]
        ordered = bits[d, dst]
        label_order = (b < lab) & ((d == dst) | ~ordered)
        target_order = (b == lab) & (s != src) & bits[s, src] & ~ordered
        return label_order | target_order

    hit = _first_edge_pair(len(dst), mask_rows)
    if hit is None:
        return True, None
    (up, a, u), (vp, b, v) = nfa.transitions[hit[0]], nfa.transitions[hit[1]]
    if a != b:
        return False, Violation(
            "label-order", (u, v, a, b),
            f"{a!r}-target {nfa.names[u]} must strictly precede "
            f"{b!r}-target {nfa.names[v]}")
    return False, Violation(
        "target-order", (up, vp, u, v, a),
        f"{nfa.names[up]} < {nfa.names[vp]} on {a!r}-edges "
        f"but target {nfa.names[u]} does not precede {nfa.names[v]}")


def check_wheeler_preorder(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Total preorder whose classes are the coarsest forward-stable blocks
    and whose induced order is a Wheeler order of the quotient."""
    _check_size(nfa, rel)
    viol = _transitivity_violation(nfa, rel) or _totality_violation(nfa, rel)
    if viol is not None:
        return False, viol
    classes = _classes(rel)
    coarsest = coarsest_fs_partition(nfa)
    if classes != coarsest:
        return False, Violation(
            "equivalence-mismatch", (),
            f"preorder classes {classes.blocks_by_name(nfa.names)} differ from the "
            f"coarsest forward-stable blocks {coarsest.blocks_by_name(nfa.names)}")
    qm = build_quotient(nfa, classes)
    ok, viol = check_wheeler_order(qm.quotient, _class_order(rel, classes))
    if not ok:
        return False, Violation("quotient-" + viol.rule, viol.witness, viol.detail)
    return True, None


def induced_equivalence(rel: Relation) -> Partition:
    """Classes of mutually related states.  Requires a preorder."""
    w = rel.transitivity_witness()
    if w is not None:
        raise NotPreorder(w)
    return _classes(rel)


def _classes(rel: Relation) -> Partition:
    # Classes of a transitive relation; a state's first mutual partner is its class minimum.
    if rel.n == 0:  # argmax raises on an empty axis
        return Partition(0, [])
    return Partition.from_block_of((rel.bits & rel.bits.T).argmax(axis=1).tolist())


def induced_order(rel: Relation, partition: Partition) -> Relation:
    """Partial order on class indices induced by a preorder.

    ``partition`` must equal induced_equivalence(rel); passing it
    explicitly keeps class indices aligned with the caller's quotient.
    """
    if partition != induced_equivalence(rel):
        raise PartitionMismatch("partition is not the class partition of the relation")
    return _class_order(rel, partition)


def _class_order(rel: Relation, classes: Partition) -> Relation:
    # Order on class indices, read off one representative per class.
    reps = [b[0] for b in classes.blocks]
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


def _max_matching(strict: np.ndarray) -> tuple[list[int], list[int]]:
    """Kuhn's augmenting paths over the edges i -> j of the True cells (i, j);
    returns (match_left, match_right), -1 = free.  Left vertices and the
    neighbours of each are tried in ascending order, so the matching is
    deterministic."""
    m = len(strict)
    # Row i as an int whose bit j is cell (i, j).
    rows = [int.from_bytes(r.tobytes(), "little")
            for r in np.packbits(strict, axis=1, bitorder="little")]
    match_left = [-1] * m
    match_right = [-1] * m
    for root in range(m):
        # Depth-first search on an explicit stack, immune to the recursion limit;
        # each neighbour tried is marked seen, so the lowest unseen one is next.
        seen = 0
        stack, path = [root], []
        while stack:
            untried = rows[stack[-1]] & ~seen
            if not untried:
                stack.pop()
                del path[-1:]  # the root was entered by no right vertex
                continue
            j = (untried & -untried).bit_length() - 1
            seen |= 1 << j
            path.append(j)
            i = match_right[j]
            if i < 0:
                for i, j in zip(stack, path):
                    match_left[i], match_right[j] = j, i
                break
            stack.append(i)
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
    return _width(rel, induced_equivalence(rel))  # raises NotPreorder on bad input


def _width(rel: Relation, classes: Partition) -> WidthCertificate:
    # Width of a preorder whose class partition the caller already holds.
    order = _class_order(rel, classes)
    m = classes.n_blocks
    strict = order.bits.copy()
    np.fill_diagonal(strict, False)
    match_left, match_right = _max_matching(strict)
    adj = [[int(j) for j in np.flatnonzero(strict[i])] for i in range(m)]
    w = match_left.count(-1)  # m classes less one per matched edge

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
    # The row-major first hit in a strict upper triangle is the pair (i, j),
    # i < j, that a loop over i and then over j > i would report first.
    a = np.array(cert.antichain, dtype=np.intp)
    comparable = rel.bits[np.ix_(a, a)]
    hit = _first_hit(np.triu(comparable | comparable.T, k=1))
    if hit is not None:
        raise InternalInvariantViolation(
            f"antichain members {cert.antichain[hit[0]]} and "
            f"{cert.antichain[hit[1]]} are comparable")
    flat = sorted(x for c in cert.chains for x in c)
    if flat != list(range(rel.n)):
        raise InternalInvariantViolation("chains do not partition the elements")
    # Elements listed chain by chain: a pair of one chain out of order is an
    # upper-triangle cell inside that chain's diagonal block.
    order = np.array([x for c in cert.chains for x in c], dtype=np.intp)
    chain_of = np.repeat(np.arange(len(cert.chains)), [len(c) for c in cert.chains])
    same_chain = chain_of[:, None] == chain_of[None, :]
    hit = _first_hit(np.triu(same_chain & ~rel.bits[np.ix_(order, order)], k=1))
    if hit is not None:
        raise InternalInvariantViolation(
            f"chain elements {order[hit[0]]} and {order[hit[1]]} are not ordered")
