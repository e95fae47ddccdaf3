"""Binary relations over NFA states: order axioms, width, certificates.

Relations are reflexive by construction and stored as dense boolean
matrices.  The checkers verify the two co-lex axioms (incoming-label sets
must not decrease along the relation; relatedness of distinct successors
propagates to predecessors) and the Wheeler axioms for total orders and
total preorders.  ``width`` computes the Dilworth width of a preorder
together with a certificate: a maximum antichain and a minimum chain cover
of matching size, obtained from a maximum bipartite matching, found by
Kuhn's augmenting paths in a linear extension of the class order, and the
Koenig vertex-cover construction.

The work is done on arrays, never per pair in Python.  The axiom-2 and
Wheeler checks scan the O(m^2) cells of an edge-pair mask in row chunks
of bounded size; the first hit in row-major order is the witness a scan
over edge pairs in listed order would find.  Transitivity is the float32
product R @ R in row blocks, n^3 multiply-adds, stopping at the first
block with a gap; an O(n^2) test of nested rows proves a total preorder,
such as a tree's maximum co-lex relation, transitive without it.  A
relation with few related pairs gets a sparse axiom-2 scan instead: it
visits only the a-edge pairs into a related distinct pair (u, v), the sum
of in_a(u) * in_a(v), for all labels in one pass over the edges listed
label by label, with the in-edges looked up by (label, target), and
reports the mask scans' first witness, the least hit in row-major order
of the first label with one.  It hands the check to the masks as soon as
its own count of its work shows that they cost less.  The JSON form of
a relation is read without json when its text has one of two plain
layouts, by its quotes and 8-byte words (``relation_from_plain_json``),
and otherwise decoded and read with one name lookup per entry; both end
in a single scatter into the matrix.  ``relation_to_json_text`` writes
it without the generic JSON encoder, as ``quotient_to_json_text`` writes
the quotient's blocks and text.
Inputs are re-scanned one item at a time only to word the error for an
input that is already rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .automaton import Nfa, _integer
from .errors import (
    InternalInvariantViolation,
    NotPreorder,
    PartitionMismatch,
    SizeMismatch,
    TooLarge,
    ValidationError,
)
from .fs_partition import Partition, QuotientMap, build_quotient, coarsest_fs_partition

# Most states of an automaton for which an n*n relation is built; the
# relation and its checks are stored densely.  The README lists the peaks
# of the maximum co-lex relation at this limit.
MAX_DENSE_STATES = 4096


def _require_dense(n: int, what: str) -> None:
    """Raise TooLarge when ``what``, an n*n relation, is over the limit."""
    if n > MAX_DENSE_STATES:
        raise TooLarge(f"{what} is stored densely and is limited to "
                       f"{MAX_DENSE_STATES} states, got {n}")


class Relation:
    """Reflexive relation on 0..n-1 as a dense bool matrix.

    The matrix is frozen after construction; the diagonal is forced on.
    So the transitivity witness and the class partition are each computed
    at most once per relation.
    """

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        n = _integer(n, "relation size {!r} is not an integer")
        if n < 0:
            raise ValidationError(f"relation size {n} is negative")
        pairs = list(pairs)
        try:
            ids = np.array(pairs)
        except ValueError:  # items of different lengths
            ids = None
        if ids is None or ids.shape not in ((0,), (len(pairs), 2)):
            raise ValidationError("relation items must be (u, v) pairs of states")
        if ids.size and ids.dtype.kind not in "biu":  # numpy would truncate or parse
            raise TypeError(f"relation pairs must hold integers, got {ids.dtype}")
        for x in (x for pair in pairs for x in pair):  # numpy reads a bool as 0 or 1
            if isinstance(x, (bool, np.bool_)):
                raise ValidationError(f"relation member {x!r} is not an integer")
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
        # Row-major whatever the input's layout, so that a flat view of the
        # matrix, or of an array computed from it, needs no copy.
        m = np.array(bits, dtype=bool, order="C")
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
        us, vs = _related_pairs(self.bits)
        return list(zip(us.tolist(), vs.tolist()))

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

    def transitivity_witness(self) -> tuple[int, int, int] | None:
        """First (u, v, w) with (u,v),(v,w) in R but (u,w) not, or None."""
        return self._witness

    @cached_property
    def _witness(self) -> tuple[int, int, int] | None:
        gap = self._first_gap()
        if gap is None:
            return None
        u, w = gap
        via = np.flatnonzero(self.bits[u] & self.bits[:, w])
        return (u, int(via[0]), w)

    def _first_gap(self) -> tuple[int, int] | None:
        # Row-major first (u, w) outside R that two related pairs lead to,
        # from the product R @ R in row blocks, unless the nested-rows test
        # proves R transitive first.  float32 counts the middle elements
        # exactly up to 2**24; uint8 would wrap at 256 and hide a gap
        # shared by 256 middles.
        if self._nested_transitive():
            return None
        a = self.bits.astype(np.float32)
        rows = max(1, _BLOCK_CELLS // max(1, self.n))
        for r in range(0, self.n, rows):
            hit = _first_hit(((a[r:r + rows] @ a) > 0) & ~self.bits[r:r + rows])
            if hit is not None:
                return hit[0] + r, hit[1]
        return None

    def _nested_transitive(self) -> bool:
        """A test in O(n^2) that proves some total preorders transitive.

        True when the rows R(u), sorted by size, each lie inside the next
        and no related (u, v) has |R(v)| > |R(u)|.  Nested rows of a
        reflexive relation make it total, and then R(v) lies inside R(u)
        exactly when it is no larger, which transitivity asks of every
        related (u, v).  False says nothing; a relation with fewer than
        n(n+1)/2 related pairs, diagonal included, cannot be total and
        costs one count of the whole matrix, several times cheaper than
        counting it row by row.
        """
        n, bits = self.n, self.bits
        if 2 * np.count_nonzero(bits) < n * (n + 1):
            return False
        size = np.count_nonzero(bits, axis=1)
        order = size.argsort(kind="stable")
        smaller, larger = order[:-1], order[1:]
        rows = max(1, _BLOCK_CELLS // max(1, n))
        for r in range(0, n, rows):
            # A cell of a row missing from the next row by size.
            if (bits[smaller[r:r + rows]] > bits[larger[r:r + rows]]).any():
                return False
            if (bits[r:r + rows] & (size > size[r:r + rows, None])).any():
                return False
        return True

    @cached_property
    def _partition(self) -> Partition:
        w = self.transitivity_witness()
        if w is not None:
            raise NotPreorder(w)
        # In a preorder a state's first mutual partner is its class minimum;
        # argmax raises on the empty axis of a relation over no elements.
        mutual = self.bits & self.bits.T
        return Partition.from_block_of(mutual.argmax(axis=1) if self.n else [])

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


# Cells of an n-column row block of a relation's matrix that the
# transitivity product takes at once.
_BLOCK_CELLS = 1 << 22


def _related_pairs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets of the distinct related pairs, in row-major order."""
    us, vs = np.divmod(np.flatnonzero(bits), len(bits))
    keep = us != vs
    return us[keep], vs[keep]


def _spread(first: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Indices first[i] .. first[i] + cnt[i] - 1, for every i in turn."""
    idx = (first - cnt.cumsum() + cnt).repeat(cnt)
    return idx + np.arange(len(idx))


def relation_to_json_dict(rel: Relation, names: Sequence[str]) -> dict:
    """External JSON form: {"n": n, "pairs": [[uName, vName], ...]}.

    Pairs are non-diagonal and sorted by state id; the diagonal is implied.
    """
    if len(names) != rel.n:
        raise SizeMismatch(f"{len(names)} names for a relation over {rel.n}")
    return {"n": rel.n, "pairs": [[names[u], names[v]] for (u, v) in rel.pairs()]}


def _json_quoted(names: Sequence[str]) -> list[str]:
    """Each name as json.dumps quotes it, from one call of the C encoder
    with a newline as item separator; encoded strings escape their
    newlines, so splitting there gives the quoted names."""
    if not names:
        return []
    return json.dumps(list(names), separators=("\n", ":"))[1:-1].split("\n")


def relation_to_json_text(rel: Relation, names: Sequence[str]) -> str:
    """``json.dumps(relation_to_json_dict(rel, names), indent=2)``, byte for byte.

    Each name is quoted once, by ``_json_quoted``, and the fixed two-space
    layout is joined directly; with ``indent`` the json module falls back
    to its pure-Python encoder, which costs several times more on large
    relations.  A row's pairs share their head, so its targets' quoted tails
    are picked from an object array by the row of the matrix, its diagonal
    cleared, and joined with the head between them.
    """
    if len(names) != rel.n:
        raise SizeMismatch(f"{len(names)} names for a relation over {rel.n}")
    quoted = _json_quoted(names)
    tail = np.array([f"{q}\n    ]" for q in quoted], object)
    rows = []
    for u, q in enumerate(quoted):
        row = rel.bits[u].copy()
        row[u] = False
        if row.any():
            head = f"    [\n      {q},\n      "
            rows.append(head + (",\n" + head).join(tail[row].tolist()))
    if not rows:
        return f'{{\n  "n": {rel.n},\n  "pairs": []\n}}'
    body = ",\n".join(rows)
    return f'{{\n  "n": {rel.n},\n  "pairs": [\n{body}\n  ]\n}}'


def quotient_to_json_text(qm: QuotientMap, names: Sequence[str]) -> str:
    """``json.dumps({"blocks": ..., "quotient": ...}, indent=2) + "\\n"``, byte
    for byte, where "blocks" holds each block's member names and "quotient"
    the quotient's text.

    Every name is quoted once, by ``_json_quoted``.  The blocks are joined
    at the fixed two-space layout; a discrete partition's block i is (i,),
    so its quoted names are joined in order, and otherwise they are taken
    in the partition's member order and joined a block's slice at a time.
    """
    if len(names) != qm.partition.n:
        raise SizeMismatch(f"{len(names)} names for a partition of {qm.partition.n}")
    quoted = _json_quoted(names)
    partition = qm.partition
    if partition.n_blocks == len(quoted):
        body = "\n    ],\n    [\n      ".join(quoted)
    else:
        quoted = [quoted[x] for x in partition._members.tolist()]
        starts = partition._starts.tolist()
        body = "\n    ],\n    [\n      ".join(
            [",\n      ".join(quoted[i:j]) for i, j in zip(starts, starts[1:])])
    return (f'{{\n  "blocks": [\n    [\n      {body}\n    ]\n  ],\n'
            f'  "quotient": {json.dumps(qm.quotient.serialize())}\n}}\n')


def relation_from_json_dict(obj, nfa: Nfa) -> Relation:
    """Parse the JSON form against an automaton's state names; automata of
    more than MAX_DENSE_STATES states raise TooLarge before ``obj`` is read."""
    _require_dense(nfa.n_states, "the relation")
    if not isinstance(obj, dict) or "n" not in obj or "pairs" not in obj:
        raise ValidationError('relation JSON must have keys "n" and "pairs"')
    if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):  # True == 1
        raise ValidationError(f'relation "n" must be an integer, got {obj["n"]!r}')
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
    return _relation_of_ids(nfa.n_states, ids)


def _relation_of_ids(n: int, ids: np.ndarray) -> Relation:
    # The relation of the pairs (ids[0], ids[1]), (ids[2], ids[3]), ...
    bits = np.zeros((n, n), dtype=bool)
    bits[ids[0::2], ids[1::2]] = True
    return Relation.from_matrix(bits)


# The two layouts of the JSON form read without json: json.dumps's default
# one, and the indented one of relation_to_json_text.  Each gives the text
# up to the first name's opening quote, with the relation's size for {n};
# the gap between a pair's two quoted names; the gap between two pairs; and
# the text from the last name's closing quote on.
_PLAIN_LAYOUTS = (
    ('{{"n": {n}, "pairs": [["', ', ', '], [', '"]]}'),
    ('{{\n  "n": {n},\n  "pairs": [\n    [\n      "', ',\n      ',
     '\n    ],\n    [\n      ', '"\n    ]\n  ]\n}'),
)

# Masks of the low k bytes of a little-endian 8-byte word, k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

# Quoted names handled at once by relation_from_plain_json.
_NAME_BATCH = 16384


def relation_from_plain_json(text: str, nfa: Nfa) -> Relation | None:
    """The relation of ``text`` when it is in one of the two plain layouts,
    with the automaton's size as "n", an optional final newline, at least
    one pair, and every name known and at most 8 UTF-8 bytes long; else
    None, and json must read it.

    Such a text is the layout's fixed pieces around its quoted names, so it
    is checked by its quotes, found by one byte compare: the gaps between
    them are compared with the layout's as 8-byte words, and each name,
    read as one word, is looked up among the words of the automaton's
    names.  A backslash, which starts an escape, is never read.  The names
    are taken in batches of _NAME_BATCH, so temporaries stay small.
    """
    _require_dense(nfa.n_states, "the relation")
    # Eight zero bytes after the text let a word be read at any offset in it.
    data = text.encode("utf-8") + bytes(8)
    stop = len(data) - 8 - text.endswith("\n")
    n = nfa.n_states
    for head, within, between, tail in _PLAIN_LAYOUTS:
        head, tail = head.format(n=n).encode(), tail.encode()
        if data.startswith(head) and data.startswith(tail, stop - len(tail)):
            break
    else:
        return None
    # From the first name's opening quote to the last name's closing one.
    start, stop = len(head) - 1, stop - len(tail) + 1
    # A NUL byte would read as the end of a name's word.
    if stop - start < 6 or data.find(b"\\", start, stop) >= 0 or data.find(b"\0", start, stop) >= 0:
        return None
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((stop - start + 1,), "<u8", buf, start, (1,))
    quotes = np.flatnonzero(buf[start:stop] == ord('"'))
    if len(quotes) % 4:
        return None
    names = _NameWords(nfa.names)
    within, between = within.encode(), between.encode()
    ids = np.empty(len(quotes) // 2, np.intp)
    for b in range(0, len(quotes), 2 * _NAME_BATCH):
        e = b + 2 * _NAME_BATCH
        opens, closes = quotes[b:e:2] + 1, quotes[b + 1:e:2]
        size = closes - opens
        if not (size.min() >= 1 and size.max() <= 8
                and _gaps_are(words, quotes[b + 1:e:4], quotes[b + 2:e + 1:4], within)
                and _gaps_are(words, quotes[b + 3:e:4], quotes[b + 4:e + 1:4], between)):
            return None
        at = names.lookup(words[opens] & _LOW_BYTES[size])
        if at is None:
            return None
        ids[b // 2:b // 2 + len(opens)] = at
    return _relation_of_ids(n, ids)


def _gaps_are(words: np.ndarray, closes: np.ndarray, opens: np.ndarray, gap: bytes) -> bool:
    """Whether the bytes between each closing quote and the opening quote
    after it are ``gap``, compared as words at a stride of 8 bytes."""
    closes = closes[:len(opens)]
    if not (opens - closes == len(gap) + 1).all():
        return False
    return all(((words[closes + 1 + o] & _LOW_BYTES[len(gap[o:o + 8])])
                == int.from_bytes(gap[o:o + 8], "little")).all()
               for o in range(0, len(gap), 8))


class _NameWords:
    """The names of at most 8 UTF-8 bytes as little-endian words, zero
    padded, and a lookup of such words by hash.

    A name's slot is the top bits of its word times an odd constant; a slot
    holds one of the names that hash there, and a word whose slot holds
    another is looked up among the sorted words instead."""

    _MULTIPLIER = 0x9E3779B97F4A7C15

    def __init__(self, names: Sequence[str]):
        encoded = [nm.encode("utf-8") for nm in names]
        ids = np.array([i for i, e in enumerate(encoded) if len(e) <= 8], np.intp)
        words = np.array([encoded[i] for i in ids.tolist()], "S8").view("<u8")
        order = words.argsort()
        self.words, self.ids = words[order], ids[order]
        # At least eight slots per name: 2**16 at the dense limit, whose
        # 4096 names an int16 slot indexes.
        self.shift = 64 - max(3, (8 * len(names)).bit_length())
        self.slots = np.zeros(1 << (64 - self.shift), np.int16)
        self.slots[self._slot(self.words)] = np.arange(len(self.words))

    def _slot(self, key: np.ndarray) -> np.ndarray:
        return (key * np.uint64(self._MULTIPLIER)) >> np.uint64(self.shift)

    def lookup(self, key: np.ndarray) -> np.ndarray | None:
        """The ids of the names whose words are ``key``, or None when some
        word is no name's."""
        if not len(self.words):
            return None
        at = self.slots[self._slot(key)].astype(np.intp)
        miss = self.words[at] != key
        if miss.any():
            at[miss] = self.words.searchsorted(key[miss]).clip(max=len(self.words) - 1)
            if not (self.words[at[miss]] == key[miss]).all():
                return None
        return self.ids[at]


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


def _first_hit(mask: np.ndarray) -> tuple[int, int] | None:
    """Row-major first True cell of a 2-D mask, or None."""
    if not mask.any():  # also covers an empty mask, where argmax raises
        return None
    i, j = np.unravel_index(int(mask.argmax()), mask.shape)
    return int(i), int(j)


def _axiom1_violation(nfa: Nfa, rel: Relation, strict_name: str) -> Violation | None:
    hi, lo = nfa.label_bounds
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


# Measured cost, in cells of an edge-pair mask, of a (row, v) item or a
# cell of the sparse axiom-2 scan: about 8 (6-7 on full scans of unary
# paths, more on small trie orders, where each label's fixed work weighs
# more).  The scan declines, before it lists the related pairs, when they
# times the labels (its count's entries) or its items at this cost exceed
# the masks' cells, and after, when its items and cells at this cost do.
_SPARSE_AXIOM2_COST = 8


def _sparse_first_edge_pair(bits: np.ndarray, src: np.ndarray, dst: np.ndarray,
                            lab: np.ndarray, mask_cells: int) -> tuple[int, int] | None | bool:
    """The first hit of the axiom-2 masks of all labels, in one pass that
    visits only the same-label edge pairs whose targets are a related
    distinct pair (u, v); False, with nothing scanned, when that costs more
    than the masks' ``mask_cells`` (see above).  The m edges are listed
    label by label, so the least hit (g, h), by g * m + h, is the first hit
    of the first label with one, as a scan of each label's mask in turn
    finds it.  Row g, for the edge into u on label a, is visited as the
    a-edges into each v related to u, looked up by (label, target): one
    item per (g, v) and one cell per item and such edge.  Rows are taken
    in order, in groups of at most about _EDGE_PAIR_CELLS items and cells
    (or one row), and the first group with a hit holds the least one."""
    m, n = len(dst), len(bits)
    sigma = int(lab[-1]) + 1 if m else 1  # the labels are sorted
    # The related pairs of the first rows, a lower bound read first, settle
    # most declines on large relations; the diagonal is set.
    for part in (bits[:_EDGE_PAIR_CELLS // max(1, n)], bits):
        if (np.count_nonzero(part) - len(part)) * sigma > mask_cells:
            return False
    row = bits.sum(axis=1, dtype=np.int32) - 1  # twice as fast as in intp
    items = row[dst]
    if _SPARSE_AXIOM2_COST * int(items.sum()) > mask_cells:
        return False
    us, vs = _related_pairs(bits)
    base = lab * n
    key = base + dst
    by_key = np.argsort(key, kind="stable")
    into = np.bincount(key, minlength=sigma * n)
    start, first = np.cumsum(row) - row, np.cumsum(into) - into
    # cells[a * n + u], the a-edges into the states related to u: each
    # related pair (u, v) adds into[a * n + v], for every label a, taken
    # for _EDGE_PAIR_CELLS (pair, label) entries at a time.
    label_at = np.arange(0, len(into), n)[:, None]
    cells = np.zeros(len(into))
    step = max(1, _EDGE_PAIR_CELLS // len(label_at))
    for r in range(0, len(us), step):
        cells += np.bincount((label_at + us[r:r + step]).ravel(),
                             into[label_at + vs[r:r + step]].ravel(), len(into))
    # Items and cells up to and including each row.
    ends = np.cumsum(items + cells[key])
    if m and _SPARSE_AXIOM2_COST * ends[-1] > mask_cells:
        return False
    i0 = 0
    while i0 < m:
        done = int(ends[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(ends.searchsorted(done + _EDGE_PAIR_CELLS, side="right")))
        d = dst[i0:i1]
        cnt = row[d]
        k = base[i0:i1].repeat(cnt) + vs[_spread(start[d], cnt)]
        per = into[k]
        i = np.arange(i0, i1).repeat(cnt).repeat(per)
        j = by_key[_spread(first[k], per)]
        hit = ~bits[src[i], src[j]]
        if hit.any():
            return divmod(int((i[hit] * m + j[hit]).min()), m)
        i0 = i1
    return None


def _axiom2_violation(nfa: Nfa, rel: Relation, strict_name: str) -> Violation | None:
    # Cell (i, j) of a label's mask pairs its i-th and j-th edge, in the
    # order the edges are listed, so the first hit is the first witness of
    # a scan over edge pairs.  When it costs less, only the cells whose
    # target pair is related and distinct are visited, for all labels in
    # one pass.  A label with fewer than two edges has no pair with
    # distinct targets.  Hits are (i, j) over all edges, label by label.
    bits = rel.bits
    src, lab, dst, ends = nfa._label_major
    mask_cells = sum((e - b) ** 2 for b, e in zip(ends, ends[1:]))
    hit = _sparse_first_edge_pair(bits, src, dst, lab, mask_cells)
    if hit is False:
        for b, e in zip(ends, ends[1:]):
            if e - b < 2:
                continue
            s_a, d_a = src[b:e], dst[b:e]

            def mask_rows(r0, r1):
                s, d = s_a[r0:r1, None], d_a[r0:r1, None]
                return bits[d, d_a] & (d != d_a) & ~bits[s, s_a]
            hit = _first_edge_pair(e - b, mask_rows)
            if hit is not None:
                hit = hit[0] + b, hit[1] + b
                break
    if not hit:
        return None
    i, j = hit
    up, u, vp, v = int(src[i]), int(dst[i]), int(src[j]), int(dst[j])
    a = nfa.alphabet[int(lab[i])]
    return Violation(
        "predecessors-unrelated", (u, v, up, vp, a),
        f"{nfa.names[u]} {strict_name} {nfa.names[v]} via "
        f"{a!r}-edges from {nfa.names[up]}, {nfa.names[vp]} "
        f"but ({nfa.names[up]}, {nfa.names[vp]}) is not related")


def check_colex_relation(nfa: Nfa, rel: Relation) -> tuple[bool, Violation | None]:
    """Verify the two co-lex axioms for a reflexive relation.

    Axiom 1: related distinct states have non-decreasing incoming-label
    sets.  Axiom 2: if distinct a-successors are related, the corresponding
    predecessors must be related too.
    """
    _check_size(nfa, rel)
    v = _axiom1_violation(nfa, rel, "~") or _axiom2_violation(nfa, rel, "~")
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
    viol = (_partial_order_violation(nfa, rel) or _axiom1_violation(nfa, rel, "<")
            or _axiom2_violation(nfa, rel, "<"))
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
    classes = induced_equivalence(rel)
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
    return rel._partition


def induced_order(rel: Relation, partition: Partition) -> Relation:
    """Partial order on class indices induced by a preorder.

    ``partition`` must equal induced_equivalence(rel); passing it
    explicitly keeps class indices aligned with the caller's quotient.
    """
    if partition != induced_equivalence(rel):
        raise PartitionMismatch("partition is not the class partition of the relation")
    return _class_order(rel, partition)


def _class_order(rel: Relation, classes: Partition) -> Relation:
    # Order on class indices, read off one representative per class; with
    # singleton classes, listed by least state, that is the relation itself.
    if classes.n_blocks == rel.n:
        return rel
    reps = classes._members[classes._starts[:-1]]
    return Relation.from_matrix(rel.bits.take(reps, 0).take(reps, 1))


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

    def spliced(self, partition: Partition) -> "WidthCertificate":
        """This certificate over block indices, over the blocks' states: the
        antichain takes each block's first state, and a chain its blocks'
        states in chain order.  Blocks are listed by least state, so the
        antichain stays sorted and the chains ordered by first element.  A
        discrete partition's block i is {i}: the certificate is returned."""
        if partition.n_blocks == partition.n:
            return self
        blocks = partition.blocks
        return WidthCertificate(
            width=self.width,
            antichain=tuple(blocks[c][0] for c in self.antichain),
            chains=tuple(tuple(x for c in chain for x in blocks[c])
                         for chain in self.chains))

    def to_json_dict(self, names: Sequence[str]) -> dict:
        return {
            "width": self.width,
            "antichain": [names[u] for u in self.antichain],
            "chains": [[names[u] for u in c] for c in self.chains],
        }


def _max_matching(rows: list[int]) -> tuple[list[int], list[int]]:
    """Kuhn's augmenting paths over the edges i -> j of the set bits j of
    rows[i]; returns (match_left, match_right), -1 = free.  Left vertices
    and the neighbours of each are tried in ascending order, so the
    matching is deterministic.

    A failed search changes nothing, and the right vertices it saw are all
    matched, their partners' neighbours all seen: no later search before
    the next augmentation finds a free vertex through them.  So the seen
    set is carried over failed searches and cleared after an augmentation,
    and a root with no unseen neighbour is skipped.  Each search then
    meets its unseen vertices in the order a fresh search would, and finds
    the same augmenting path: the matching is that of searches from
    scratch."""
    m = len(rows)
    match_left = [-1] * m
    match_right = [-1] * m
    everyone = unseen = (1 << m) - 1  # the seen set's complement
    for root in range(m):
        if not rows[root] & unseen:
            continue
        # Depth-first search on an explicit stack, immune to the recursion limit;
        # each neighbour tried is marked seen, so the lowest unseen one is next.
        stack, path = [root], []
        while stack:
            untried = rows[stack[-1]] & unseen
            if not untried:
                stack.pop()
                del path[-1:]  # the root was entered by no right vertex
                continue
            low = untried & -untried
            unseen ^= low
            j = low.bit_length() - 1
            path.append(j)
            i = match_right[j]
            if i < 0:
                for i, j in zip(stack, path):
                    match_left[i], match_right[j] = j, i
                unseen = everyone
                break
            stack.append(i)
    return match_left, match_right


def width(rel: Relation) -> WidthCertificate:
    """Dilworth width of a preorder, with antichain and chain-cover certificate.

    The width is computed on the induced order of the classes: a minimum
    chain cover comes from a maximum bipartite matching (each matched edge
    fuses two chains), a maximum antichain from the Koenig vertex cover of
    the same matching.  Kuhn's search takes the classes in a linear
    extension of their order, by down-set size, so on a total order each
    class is matched to the next at the first try; class-index order, which
    is not a linear extension, makes its augmenting paths run deep.  The
    search carries its seen set across failed searches, so no dead end is
    explored twice between two augmentations; the matching is the one that
    searches from scratch would find (see _max_matching).  The
    antichain, listed by state id, is the same for every maximum matching
    (Dulmage-Mendelsohn); the chains depend on the matching found.
    The certificate is found and re-validated on the class order, then
    spliced into the states; a failed validation is a bug, reported as
    InternalInvariantViolation.
    """
    classes = induced_equivalence(rel)  # raises NotPreorder on bad input
    order = _class_order(rel, classes)
    # Vertex i is class lin[i]: classes sorted by down-set size (the column
    # sums), a linear extension, so every edge i -> j has i < j.  Two takes,
    # rows and then columns, gather faster than one np.ix_.
    lin = np.argsort(order.bits.sum(axis=0), kind="stable")
    strict = order.bits.take(lin, 0).take(lin, 1)
    np.fill_diagonal(strict, False)
    # Row i of the strict order, as an int whose bit j is vertex i < vertex j.
    packed = np.packbits(strict, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    m = len(rows)
    match_left, match_right = _max_matching(rows)
    w = match_left.count(-1)  # m classes less one per matched edge

    chains: list[tuple[int, ...]] = []
    at = lin.tolist()
    for start in range(m):
        if match_right[start] >= 0:
            continue
        chain = [at[start]]
        c = start
        while match_left[c] >= 0:
            c = match_left[c]
            chain.append(at[c])
        chains.append(tuple(chain))
    chains.sort()  # by first class: chains share no class

    # Koenig: alternate from unmatched left vertices; uncovered classes
    # (left side reached, right side not) form a maximum antichain.
    # A reached left vertex is free or entered through its matched edge, so
    # every right vertex newly reached from it is on an unmatched edge.
    in_left = [j < 0 for j in match_left]
    in_right = 0
    queue = [i for i in range(m) if in_left[i]]
    while queue:
        new = rows[queue.pop()] & ~in_right
        in_right |= new
        while new:
            j = (new & -new).bit_length() - 1
            new &= new - 1
            i = match_right[j]
            if i >= 0 and not in_left[i]:
                in_left[i] = True
                queue.append(i)
    reached = np.unpackbits(np.frombuffer(in_right.to_bytes(packed.shape[1], "little"),
                                          np.uint8), count=m, bitorder="little")
    antichain = tuple(np.sort(lin[np.array(in_left, bool) & ~reached.view(bool)]).tolist())

    cert = WidthCertificate(width=w, antichain=antichain, chains=tuple(chains))
    _validate_certificate(order, cert)
    return cert.spliced(classes)


def _validate_certificate(rel: Relation, cert: WidthCertificate) -> None:
    if len(cert.antichain) != cert.width or len(cert.chains) != cert.width:
        raise InternalInvariantViolation(
            f"certificate sizes {len(cert.antichain)}/{len(cert.chains)} "
            f"do not match width {cert.width}")
    # An antichain of distinct members meets the reflexive relation on its
    # diagonal alone: its rows hold one member each.  On failure, the
    # row-major first hit in a strict upper triangle is the pair (i, j),
    # i < j, that a loop over i and then over j > i would report first.
    a = np.array(cert.antichain, dtype=np.intp)
    member = np.zeros(rel.n, dtype=bool)
    member[a] = True
    if (np.count_nonzero(member) != len(a)
            or np.count_nonzero(rel.bits[a] & member) != len(a)):
        comparable = rel.bits[np.ix_(a, a)]
        i, j = _first_hit(np.triu(comparable | comparable.T, k=1))
        raise InternalInvariantViolation(
            f"antichain members {cert.antichain[i]} and {cert.antichain[j]} are comparable")
    # n entries, none negative, that count each of 0..n-1: each exactly once.
    order = np.array([x for c in cert.chains for x in c], dtype=np.intp)
    if (len(order) != rel.n or order.min(initial=0) < 0
            or not np.bincount(order, minlength=rel.n)[:rel.n].all()):
        raise InternalInvariantViolation("chains do not partition the elements")
    # The relation is transitive, so a chain is ordered when each element
    # precedes the next; the first such pair out of order is reported.
    chain_of = np.repeat(np.arange(len(cert.chains)), [len(c) for c in cert.chains])
    bad = np.flatnonzero((chain_of[:-1] == chain_of[1:]) & ~rel.bits[order[:-1], order[1:]])
    if len(bad):
        i = int(bad[0])
        raise InternalInvariantViolation(
            f"chain elements {order[i]} and {order[i + 1]} are not ordered")
