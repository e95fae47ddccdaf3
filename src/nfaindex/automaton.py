"""Nondeterministic finite automata with ordered input labels.

The model used throughout the package: an NFA has states 0..n-1, a single
initial state with no incoming transitions, every state reachable from the
initial state, and an alphabet in which every label occurs on at least one
transition.  There are no final states; the objects of interest are the
states themselves and the sets of labels entering each state.

Labels are non-empty printable tokens without whitespace.  They are ordered
bytewise on their UTF-8 encoding, below which sits a single sentinel HASH
("#"): the incoming-label set of the initial state is {HASH}, and HASH
compares strictly less than every ordinary label.  "#" can never be an
ordinary label because the text format treats it as a comment starter.

Text format (UTF-8, line oriented)::

    # comment; '#' starts a comment anywhere on a line
    initial u0
    trans u0 a u1

The ``initial`` directive appears exactly once, before all transitions.
State ids are assigned in order of first appearance of each name, so the
initial state is always id 0.  Serialization emits the initial line and the
transitions sorted by (from-id, label, to-id); parsing a serialized
automaton reproduces it up to that renaming.

``parse_nfa`` splits the text into tokens once and hands ``Nfa`` its
from-id, label and to-id columns.  An ``Nfa`` stores its transitions as
arrays and builds per-edge and per-state Python objects only when they
are first asked for.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    InvalidParameter,
    NfaSyntaxError,
    UnknownFixture,
    UnknownLabel,
    ValidationError,
)

HASH = "#"

_FIXTURE_NAMES = ("fig2", "wheeler3")

# Most candidate transitions, states^2 * alphabet_size, that gen_random
# draws, one Python draw each: about 0.1 s at density 0.001, and 6 s and a
# 260 MB peak for the million edges drawn at density 1 (2-core Xeon).
MAX_RANDOM_CANDIDATES = 1 << 20

# Most states of gen_separation_family, which builds every name and edge in
# Python: about 1.1 KB and 8 us per state, so `gen --fixture sep:262144`
# takes 2.1 s and a 294 MB peak RSS (2-core Xeon).
MAX_SEPARATION_STATES = 1 << 18


def label_key(label: str) -> tuple[int, bytes]:
    """Sort key realizing the label order: HASH first, then bytewise UTF-8."""
    if label == HASH:
        return (0, b"")
    return (1, label.encode("utf-8"))


def lambda_leq(x: Iterable[str], y: Iterable[str]) -> bool:
    """Compare two incoming-label sets: true iff max(x) <= min(y).

    Equivalently, every pair (a, b) with a drawn from x and b from y
    satisfies a <= b.  Both sets must be non-empty; reachable states
    always have non-empty incoming-label sets.
    """
    x = list(x)
    y = list(y)
    if not x or not y:
        raise InvalidParameter("lambda_leq requires non-empty label sets")
    return max(label_key(a) for a in x) <= min(label_key(b) for b in y)


def _is_token(tok: str) -> bool:
    # U+0020 is the only printable whitespace code point, so once the token
    # is printable a search for " " finds any whitespace in it.
    return bool(tok) and tok.isprintable() and " " not in tok and HASH not in tok


def _check_token(tok: str, what: str) -> str:
    if not _is_token(tok):
        raise ValidationError(f"invalid {what} {tok!r}: expected a printable token "
                              f"without whitespace or '#'")
    return tok


def _integer(x, message: str) -> int:
    """``x`` as an int; a bool, or a value with no integer meaning, raises
    ValidationError(message.format(x))."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValidationError(message.format(x))


def _lex_order(major: np.ndarray, minor: np.ndarray, major_span: int, span: int) -> np.ndarray:
    """Stable order of the pairs (major[i], minor[i]), 0 <= major <
    major_span and 0 <= minor < span, by one int64 key when it fits."""
    if major_span * span > np.iinfo(np.int64).max:
        return np.lexsort((minor, major))
    return np.argsort(major * span + minor, kind="stable")


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the entries of columns, sorted together, that differ from
    the entry before them in some column."""
    starts = np.ones(len(columns[0]), bool)
    starts[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in columns])
    return starts


def _bfs_distances(source: int, start: np.ndarray, dst: np.ndarray) -> list[int]:
    """Edge count of a shortest path from ``source`` to each state u < n
    over the edges u -> dst[start[u]:start[u + 1]], for out-edge offsets
    ``start`` of length n + 1; -1 marks an unreachable state."""
    start, dst = start.tolist(), dst.tolist()
    dist = [-1] * (len(start) - 1)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop reaches the states appended while it runs
        d = dist[u] + 1
        for v in dst[start[u]:start[u + 1]]:
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def _reaches_all(initial: int, n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether ``initial`` reaches every state u < n over the edges src[i]
    -> dst[i], tested by following one in-edge back from every state, the
    one the scatter keeps, by pointer jumping in log2(n) gathers.  True is
    always right; False is right when no state has two in-edges, as in
    paths, tries and combs, and otherwise only a search decides."""
    up = np.arange(n)
    up[dst] = src
    up[initial] = initial
    for _ in range((n - 1).bit_length()):
        up = up[up]
    return bool((up == initial).all())


def _plain_edges(trans: list, n: int) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """The from-ids followed by the to-ids as one array, and the labels,
    when every item of ``trans`` is a tuple of two int ids in 0..n-1 around
    a str label; else None.  The labels are checked as tokens later, once
    per distinct label."""
    if set(map(type, trans)) != {tuple} or set(map(len, trans)) != {3}:
        return None
    us, labs, vs = zip(*trans)
    ids = us + vs
    if set(map(type, ids)) != {int} or set(map(type, labs)) != {str}:
        return None
    try:
        ids = np.array(ids, np.intp)
    except OverflowError:
        return None
    if ids.min() < 0 or ids.max() >= n:
        return None
    return ids, labs


def _checked_edges(transitions: Iterable, n: int, names: list[str]) -> list[tuple[int, str, int]]:
    """The transitions as (int, label, int) triples, checked edge by edge
    in listed order; raises on the first one that is malformed, out of
    range, with an invalid label or repeating an earlier one."""
    seen: dict[tuple[int, str, int], None] = {}
    for item in transitions:
        try:
            u, a, v = item
            t = (operator.index(u), a, operator.index(v))
            if not isinstance(a, str):
                raise TypeError
        except (TypeError, ValueError):
            raise ValidationError(f"malformed transition {item!r}: "
                                  f"expected (state id, label, state id)") from None
        if not (0 <= t[0] < n and 0 <= t[2] < n):
            raise ValidationError(f"transition ({u}, {a!r}, {v}) out of range")
        _check_token(a, "label")
        if t in seen:
            raise ValidationError(
                f"duplicate transition {names[t[0]]} {a} {names[t[2]]}")
        seen[t] = None
    return list(seen)


def _check_names(names: list[str]) -> None:
    # One check of the joined names, and a name by name one to word an error.
    if not (all(names) and _is_token("".join(names))):
        for nm in names:
            _check_token(nm, "state name")


class Nfa:
    """Immutable NFA over integer state ids with named states.

    Validation happens at construction: duplicate transitions, incoming
    edges on the initial state, unreachable states and unused alphabet
    labels all raise ValidationError naming the offending entity.  The
    checks run in bulk; labels are checked once per distinct label, and
    duplicates are found by the stable sort that orders the transitions.
    Input that fails one, or whose items are not plain (int, str, int)
    tuples, is re-scanned edge by edge in listed order, which words the
    first error and converts ids to int.  ``parse_nfa`` hands its id and
    label columns to the same checks without building triples.

    ``src``, ``lab`` and ``dst`` hold the transitions sorted by from-id,
    label order and to-id as read-only ``np.intp`` arrays, ``lab`` indexing
    ``alphabet``; they are the only edge storage.  The out-edge offsets
    ``out_start`` sit beside them.  Built from them on first use, and then
    kept: the (from, label, to) triples ``transitions``, the incoming-label
    sets ``lambda_sets``, the name-to-id dict ``id_of``, the
    incoming-label ranks ``label_bounds`` and, for a tree, the co-lex ranks
    of the words into the states ``tree_ranks``.  ``targets`` reads
    ``out_start``, ``sources`` scans all of ``dst`` and ``delta_set`` calls
    ``targets``.
    """

    def __init__(
        self,
        n_states: int,
        initial: int,
        transitions: Iterable[tuple[int, str, int]],
        names: Iterable[str] | None = None,
        alphabet: Iterable[str] | None = None,
    ):
        n_states = _integer(n_states, "number of states {!r} is not an integer")
        if n_states < 1:
            raise ValidationError("an automaton needs at least one state")
        initial = _integer(initial, "initial state {!r} is not an integer id")
        if not 0 <= initial < n_states:
            raise ValidationError(f"initial state {initial} out of range")
        if names is None:
            names = [f"q{i}" for i in range(n_states)]
        names = list(map(str, names))
        _check_names(names)
        if len(names) != n_states:
            raise ValidationError(f"got {len(names)} names for {n_states} states")
        if len(set(names)) != n_states:
            # The first name that repeats an earlier one, in one pass.
            earlier: set[str] = set()
            for nm in names:
                if nm in earlier:
                    raise ValidationError(f"duplicate state name {nm!r}")
                earlier.add(nm)

        trans = list(transitions)
        columns = _plain_edges(trans, n_states)
        if columns is None:
            trans = _checked_edges(trans, n_states, names)
            us, labs, vs = zip(*trans) if trans else ((), (), ())
            columns = np.array(us + vs, np.intp), labs
        ids, labs = columns
        self._validate(initial, names, ids[:len(labs)], labs, ids[len(labs):], alphabet)

    @classmethod
    def _from_columns(cls, names: list[str], src: np.ndarray, labs: list[str],
                      dst: np.ndarray, initial: int = 0) -> "Nfa":
        """The automaton with the given ``initial`` state, distinct ``names``
        and the edges src[i] -labs[i]-> dst[i] in listed order, ids in
        range: the columns parse_nfa and build_quotient build, which need
        no type or range check."""
        _check_names(names)
        nfa = cls.__new__(cls)
        nfa._validate(initial, names, src, labs, dst)
        return nfa

    def _validate(self, initial: int, names: list[str], src: np.ndarray, labs,
                  dst: np.ndarray, alphabet: Iterable[str] | None = None) -> None:
        """Sort the listed edges src[i] -labs[i]-> dst[i] into the arrays
        and run the checks that remain once names and ids are valid."""
        n_states = len(names)
        used = set(labs)
        # The labels are checked before label_key encodes them; the first
        # invalid label or duplicate, in listed order, is the one raised.
        if not all(map(_is_token, used)):
            _checked_edges(zip(src.tolist(), labs, dst.tolist()), n_states, names)
        self.alphabet = tuple(sorted(used, key=label_key))
        rank = dict(zip(self.alphabet, range(len(used))))
        lab = np.fromiter(map(rank.__getitem__, labs), np.intp, len(labs))
        order = _lex_order(src * len(used) + lab, dst, n_states * len(used), n_states)
        edges = np.stack((src[order], lab[order], dst[order]))
        if not _run_starts(*edges).all():
            _checked_edges(zip(src.tolist(), labs, dst.tolist()), n_states, names)
        if alphabet is not None:
            alpha = {_check_token(a, "label") for a in alphabet}
            if not used <= alpha:
                extra = sorted(used - alpha, key=label_key)[0]
                raise ValidationError(f"label {extra!r} used but not in the alphabet")
            unused = alpha - used
            if unused:
                lbl = sorted(unused, key=label_key)[0]
                raise ValidationError(f"label {lbl!r} declared but unused")

        self.n_states = n_states
        self.initial = initial
        self.names = tuple(names)
        edges.setflags(write=False)
        self.src, self.lab, self.dst = edges
        # The edges leaving u are out_start[u] to out_start[u + 1] - 1.
        self.out_start = self.src.searchsorted(np.arange(n_states + 1))
        self.out_start.setflags(write=False)

        into = np.flatnonzero(self.dst == initial)
        if len(into):
            # In source order, the first edge with the lowest label.
            e = into[self.lab[into].argmin()]
            raise ValidationError(
                f"initial state has incoming transition {self.names[self.src[e]]} "
                f"{self.alphabet[self.lab[e]]} {self.names[initial]}")

        if not _reaches_all(initial, n_states, self.src, self.dst):
            dist = _bfs_distances(initial, self.out_start, self.dst)
            if -1 in dist:
                missing = dist.index(-1)
                raise ValidationError(f"state {self.names[missing]!r} is unreachable")

    @cached_property
    def transitions(self) -> tuple[tuple[int, str, int], ...]:
        """The (from, label, to) triples, in the order of the arrays."""
        labels = list(self.alphabet)  # a list's __getitem__ maps faster than a tuple's
        return tuple(zip(self.src.tolist(), map(labels.__getitem__, self.lab.tolist()),
                         self.dst.tolist()))

    @cached_property
    def lambda_sets(self) -> tuple[frozenset[str], ...]:
        """Incoming-label set of each state; {HASH} for the initial state."""
        lam: list[set[str]] = [set() for _ in range(self.n_states)]
        for (v, a) in zip(self.dst.tolist(), self.lab.tolist()):
            lam[v].add(self.alphabet[a])
        lam[self.initial].add(HASH)
        return tuple(map(frozenset, lam))

    @cached_property
    def id_of(self) -> dict[str, int]:
        """Id of each state name."""
        return dict(zip(self.names, range(self.n_states)))

    @cached_property
    def label_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Highest and lowest rank (hi, lo) of each state's incoming labels.
        HASH ranks 0 and the alphabet 1, 2, ... in label order, so hi[u] <=
        lo[v] exactly when lambda_leq(λ(u), λ(v)), and hi[u] == lo[u] when
        u has one incoming label."""
        hi = np.zeros(self.n_states, dtype=np.intp)
        lo = np.full(self.n_states, len(self.alphabet) + 1, dtype=np.intp)
        np.maximum.at(hi, self.dst, self.lab + 1)
        np.minimum.at(lo, self.dst, self.lab + 1)
        lo[self.initial] = 0  # the initial state alone is entered by no edge
        hi.setflags(write=False)
        lo.setflags(write=False)
        return hi, lo

    @cached_property
    def tree_ranks(self) -> np.ndarray | None:
        """For a tree, the dense co-lexicographic ranks of the words
        reaching the states; None for any other automaton.

        Every state is reachable and the initial state has no in-edge, so
        the automaton is a tree, each other state entered by one edge,
        exactly when it has n - 1 edges.  Each state u is then reached by
        one word alpha_u, and rank[u] <= rank[v] exactly when alpha_u
        reversed is at most alpha_v reversed, in label order with a proper
        prefix first: equal ranks mean equal words.  The ranks come from
        prefix doubling over parent pointers (Manber and Myers, SIAM J.
        Comput. 1993).  Reversed, alpha_u is u's label, then its parent's
        reversed word, padded with the initial state's rank 0 below every
        label; after round i the ranks order the first 2**i of those
        symbols, each round ranking the pairs (rank of u, rank of u's
        2**i-th ancestor) and squaring the ancestor map, the initial state
        its own parent.  Rounds end when the ranks are distinct or a round
        adds no rank, a fixpoint: at most log2(depth) + 1 rounds of one
        sort of n keys.
        """
        n = self.n_states
        if len(self.dst) != n - 1:
            return None
        up = np.arange(n)  # the initial state, entered by no edge, keeps its own
        up[self.dst] = self.src
        rank = np.zeros_like(up)
        rank[self.dst] = self.lab + 1
        k = len(self.alphabet) + 1  # every label enters some state
        while k < n:
            key = rank * k + rank[up]
            order = key.argsort()
            rank[order] = _run_starts(key[order]).cumsum() - 1
            count = int(rank[order[-1]]) + 1
            if count == k:
                break
            k, up = count, up[up]
        rank.setflags(write=False)
        return rank

    @cached_property
    def _label_major(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
        """The edges' sources, labels and targets, label by label in alphabet
        order and each label's sorted by source, then target, with the offsets
        where each label's edges start and, last, their number."""
        order = np.argsort(self.lab, kind="stable")
        edges = self.src[order], self.lab[order], self.dst[order]
        for arr in edges:
            arr.setflags(write=False)
        ends = np.searchsorted(edges[1], np.arange(len(self.alphabet) + 1))
        return (*edges, tuple(ends.tolist()))

    # -- queries ---------------------------------------------------------

    def targets(self, u: int, a: str) -> tuple[int, ...]:
        """States reachable from u in one step on label a."""
        lo, hi = self.out_start[u:u + 2].tolist() if 0 <= u < self.n_states else (0, 0)
        return tuple([v for (_, b, v) in self.transitions[lo:hi] if b == a])

    def sources(self, u: int, a: str) -> tuple[int, ...]:
        """States with an a-transition into u."""
        edges = [self.transitions[e] for e in np.flatnonzero(self.dst == u).tolist()]
        return tuple([x for (x, b, _) in edges if b == a])

    def delta_set(self, states: Iterable[int], a: str) -> frozenset[int]:
        """Image of a state set under one step on label a."""
        return frozenset(v for u in states for v in self.targets(u, a))

    def lambda_set(self, u: int) -> frozenset[str]:
        """Incoming-label set of u; {HASH} for the initial state."""
        return self.lambda_sets[u]

    def serialize(self) -> str:
        names, alphabet = self.names, self.alphabet
        lines = [f"initial {names[self.initial]}"]
        lines += [f"trans {names[u]} {alphabet[a]} {names[v]}"
                  for u, a, v in zip(self.src.tolist(), self.lab.tolist(), self.dst.tolist())]
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (self.n_states, self.initial, self.names, self.alphabet,
                self.transitions) == (other.n_states, other.initial,
                                      other.names, other.alphabet,
                                      other.transitions)

    def __hash__(self) -> int:
        return hash((self.n_states, self.initial, self.names, self.transitions))

    def __repr__(self) -> str:
        return (f"Nfa(n_states={self.n_states}, initial={self.names[self.initial]!r}, "
                f"alphabet={list(self.alphabet)}, transitions={len(self.src)})")


def delta_string(nfa: Nfa, source: int | str, word: Iterable[str]) -> frozenset[int]:
    """Set of states reached from ``source`` by reading ``word``.

    ``word`` is any iterable of labels; a plain str iterates per character,
    which matches single-character alphabets.  Labels outside the alphabet
    raise UnknownLabel.
    """
    if isinstance(source, str):
        if source not in nfa.id_of:
            raise ValidationError(f"unknown state name {source!r}")
        source = nfa.id_of[source]
    elif not 0 <= source < nfa.n_states:
        raise ValidationError(f"state {source} out of range for {nfa.n_states} states")
    current = frozenset((source,))
    for a in word:
        if a not in nfa.alphabet:
            raise UnknownLabel(f"label {a!r} is not in the alphabet")
        current = nfa.delta_set(current, a)
    return current


def parse_nfa(text: str) -> Nfa:
    """Parse the line-oriented text format; see the module docstring.

    The text, its comments cut off, is split into tokens once; each line
    gives only its token count, so no per-line token lists are kept.  The
    names are interned by first appearance in one hash pass, and the id
    and label columns go to the automaton as they are.
    """
    lines = text.splitlines()
    if HASH in text:
        lines = [raw.partition(HASH)[0] for raw in lines]
    counts = list(filter(None, map(len, map(str.split, lines))))
    tokens = (" ".join(lines) if HASH in text else text).split()
    del lines
    if not (counts[:1] == [2] and counts.count(4) == len(counts) - 1
            and tokens[0] == "initial" and set(tokens[2::4]) <= {"trans"}):
        raise _syntax_error(text)
    # Names by first appearance: the initial state's, then each edge's ends.
    ends = [tokens[1]] * (len(counts) * 2 - 1)
    ends[1::2], ends[2::2] = tokens[3::4], tokens[5::4]
    labels = tokens[4::4]
    # The tokens hold a "trans" per line and a copy of each name per use:
    # let them go before the automaton is built.
    del tokens
    # Each end's first-use position, in one hash pass; a name's id is the
    # rank of its first use among those of all names.
    first: dict[str, int] = {}
    used_at = np.fromiter(map(first.setdefault, ends, itertools.count()), np.intp, len(ends))
    del ends
    names = list(first)
    end_ids = np.fromiter(first.values(), np.intp, len(names)).searchsorted(used_at)
    del first, used_at
    return Nfa._from_columns(names, end_ids[1::2], labels, end_ids[2::2])


def _syntax_error(text: str) -> NfaSyntaxError:
    """The first syntax error among the lines of ``text``, which parse_nfa
    found to hold one."""
    rows = [raw.partition(HASH)[0].split() for raw in text.splitlines()]
    initial_seen = False
    for line_no, tokens in enumerate(rows, start=1):
        if not tokens:
            continue
        if not initial_seen:
            if tokens[0] != "initial":
                return NfaSyntaxError(
                    f"expected 'initial <name>' before {tokens[0]!r}", line_no)
            if len(tokens) != 2:
                return NfaSyntaxError("expected 'initial <name>'", line_no)
            initial_seen = True
        elif tokens[0] == "initial":
            return NfaSyntaxError("duplicate 'initial' directive", line_no)
        elif tokens[0] != "trans":
            return NfaSyntaxError(f"unknown directive {tokens[0]!r}", line_no)
        elif len(tokens) != 4:
            return NfaSyntaxError("expected 'trans <from> <label> <to>'", line_no)
    return NfaSyntaxError("missing 'initial' directive", len(rows) or 1)


def serialize_nfa(nfa: Nfa) -> str:
    """Text-format rendering of ``nfa``; inverse of parse_nfa up to renaming."""
    return nfa.serialize()


# Fill colors for partition blocks in DOT output (colorbrewer Paired).
_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99",
    "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00", "#6a3d9a", "#b15928",
)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(nfa: Nfa, partition=None) -> str:
    """Deterministic DOT rendering; optional partition colors the blocks.

    ``partition`` is any object with a ``block_of`` sequence mapping state
    id to block index (a Partition works).  Blocks cycle through a fixed
    12-color palette.
    """
    lines = [
        "digraph nfa {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        "  __start [shape=point];",
    ]
    for u in range(nfa.n_states):
        attrs = [f"label={_dot_quote(nfa.names[u])}"]
        if partition is not None:
            b = partition.block_of[u]
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{_PALETTE[b % len(_PALETTE)]}"')
        lines.append(f"  n{u} [{', '.join(attrs)}];")
    lines.append(f"  __start -> n{nfa.initial};")
    quoted = [_dot_quote(a) for a in nfa.alphabet]
    lines += map("  n{} -> n{} [label={}];".format, nfa.src.tolist(), nfa.dst.tolist(),
                 map(quoted.__getitem__, nfa.lab.tolist()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def gen_fixture(name: str) -> Nfa:
    """Small named automata used in tests, demos and the CLI.

    ``fig2``: seven states over {a, b} whose coarsest forward-stable
    partition has four blocks ({u0}, {u1,u2}, {u3,u4}, {u5,u6}).

    ``wheeler3``: three states, one label, two sinks both entered from the
    initial state; the two sinks are order-equivalent, so no maximum
    co-lex order exists even though a Wheeler order does.
    """
    if name == "fig2":
        names = [f"u{i}" for i in range(7)]
        a, b = "a", "b"
        trans = [
            (0, a, 1), (0, a, 2), (0, a, 3), (0, a, 4),
            (1, a, 1), (2, a, 2),
            (2, b, 5), (2, b, 6), (3, b, 5), (4, b, 6),
            (5, b, 6), (6, b, 5),
        ]
        return Nfa(7, 0, trans, names=names)
    if name == "wheeler3":
        return Nfa(3, 0, [(0, "a", 1), (0, "a", 2)], names=["u1", "u2", "u3"])
    raise UnknownFixture(f"unknown fixture {name!r} (expected one of {_FIXTURE_NAMES})")


def gen_separation_family(n: int) -> Nfa:
    """The n-state witness family separating relation width from order width.

    States u1..un with initial u1; u2 is entered on a, u3 on b, u4 on b
    from u3, and every ui with i > 4 is entered on a from both u2 and u3.
    The maximum co-lex relation is discrete (n classes, width n-4 for
    n > 5) while the coarsest forward-stable construction collapses the
    sinks into one class and yields a total order (width 1).  More than
    MAX_SEPARATION_STATES states raise InvalidParameter before anything
    is built.
    """
    if n <= 4:
        raise InvalidParameter(f"separation family needs n > 4, got {n}")
    if n > MAX_SEPARATION_STATES:
        raise InvalidParameter(
            f"separation family is limited to {MAX_SEPARATION_STATES} states, got {n}")
    names = [f"u{i}" for i in range(1, n + 1)]
    trans = [(0, "a", 1), (0, "b", 2), (2, "b", 3)]
    for i in range(5, n + 1):
        trans.append((1, "a", i - 1))
        trans.append((2, "a", i - 1))
    return Nfa(n, 0, trans, names=names)


def gen_random(states: int, alphabet_size: int, density: float, seed: int) -> Nfa:
    """Random valid NFA, deterministic per seed.

    Draws each of the states^2 * alphabet_size candidate transitions
    independently with probability ``density``; more than
    MAX_RANDOM_CANDIDATES candidates raise InvalidParameter before any
    draw.  Then repairs the draw into a valid automaton: incoming edges of
    the initial state are dropped, unreachable states are pruned
    (re-adding one random edge out of the initial state first if pruning
    would collapse a multi-state request to a single state), and unused
    labels are dropped.  The result may therefore have fewer states and a
    smaller alphabet than requested.
    """
    if states < 1:
        raise InvalidParameter(f"states must be >= 1, got {states}")
    if not 1 <= alphabet_size <= 26:
        raise InvalidParameter(f"alphabet_size must be in 1..26, got {alphabet_size}")
    if not 0.0 <= density <= 1.0:
        raise InvalidParameter(f"density must be in [0, 1], got {density}")
    candidates = states * states * alphabet_size
    if candidates > MAX_RANDOM_CANDIDATES:
        raise InvalidParameter(
            f"random generation draws states^2 * alphabet_size candidate transitions "
            f"and is limited to {MAX_RANDOM_CANDIDATES}, got {candidates}")

    labels = [chr(ord("a") + i) for i in range(alphabet_size)]
    rng = random.Random(seed)
    edges = [
        (u, a, v)
        for u in range(states)
        for a in labels
        for v in range(states)
        if rng.random() < density
    ]
    edges = [(u, a, v) for (u, a, v) in edges if v != 0]

    if states > 1 and all(u != 0 for (u, _, _) in edges):
        t = rng.randrange(1, states)
        a = labels[rng.randrange(alphabet_size)]
        edges.append((0, a, t))

    src, dst = np.array(sorted((u, v) for (u, _, v) in edges), np.intp).reshape(-1, 2).T
    start = src.searchsorted(np.arange(states + 1))
    keep = [u for u, d in enumerate(_bfs_distances(0, start, dst)) if d >= 0]
    new_id = {old: i for i, old in enumerate(keep)}
    edges = [(new_id[u], a, new_id[v]) for (u, a, v) in edges if u in new_id]
    names = [f"q{i}" for i in range(len(keep))]
    return Nfa(len(keep), 0, sorted(set(edges)), names=names)
