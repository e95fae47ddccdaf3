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
"""

from __future__ import annotations

import random
from collections import deque
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


def _check_token(tok: str, what: str) -> str:
    # U+0020 is the only printable whitespace code point, so once the token
    # is printable a search for " " finds any whitespace in it.
    if not tok or not tok.isprintable() or " " in tok or HASH in tok:
        raise ValidationError(f"invalid {what} {tok!r}: expected a printable token "
                              f"without whitespace or '#'")
    return tok


def _bfs_distances(n: int, source: int,
                   edges: Iterable[tuple[int, str, int]]) -> list[int]:
    """Edge count of a shortest path from ``source`` to each of 0..n-1 over
    (from, label, to) edges; -1 marks an unreachable state."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for (u, _, v) in edges:
        succ[u].append(v)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class Nfa:
    """Immutable NFA over integer state ids with named states.

    Validation happens at construction: duplicate transitions, incoming
    edges on the initial state, unreachable states and unused alphabet
    labels all raise ValidationError naming the offending entity.

    ``transitions`` holds the (from, label, to) triples sorted by from-id,
    label order and to-id; ``src``, ``lab`` and ``dst`` hold them in that
    order as read-only ``np.intp`` arrays, ``lab`` indexing ``alphabet``.
    """

    def __init__(
        self,
        n_states: int,
        initial: int,
        transitions: Iterable[tuple[int, str, int]],
        names: Iterable[str] | None = None,
        alphabet: Iterable[str] | None = None,
    ):
        if n_states < 1:
            raise ValidationError("an automaton needs at least one state")
        if not 0 <= initial < n_states:
            raise ValidationError(f"initial state {initial} out of range")
        if names is None:
            names = [f"q{i}" for i in range(n_states)]
        names = [_check_token(str(nm), "state name") for nm in names]
        if len(names) != n_states:
            raise ValidationError(f"got {len(names)} names for {n_states} states")
        if len(set(names)) != n_states:
            dup = next(nm for i, nm in enumerate(names) if nm in names[:i])
            raise ValidationError(f"duplicate state name {dup!r}")

        seen: dict[tuple[int, str, int], None] = {}  # the transitions, in listed order
        for (u, a, v) in transitions:
            if not (0 <= u < n_states and 0 <= v < n_states):
                raise ValidationError(f"transition ({u}, {a!r}, {v}) out of range")
            _check_token(a, "label")
            t = (int(u), a, int(v))
            if t in seen:
                raise ValidationError(
                    f"duplicate transition {names[t[0]]} {a} {names[t[2]]}")
            seen[t] = None
        trans = list(seen)

        used = {a for (_, a, _) in trans}
        if alphabet is None:
            alpha = used
        else:
            alpha = {_check_token(a, "label") for a in alphabet}
            if not used <= alpha:
                extra = sorted(used - alpha, key=label_key)[0]
                raise ValidationError(f"label {extra!r} used but not in the alphabet")
            unused = alpha - used
            if unused:
                lbl = sorted(unused, key=label_key)[0]
                raise ValidationError(f"label {lbl!r} declared but unused")

        self.n_states = n_states
        self.initial = int(initial)
        self.names = tuple(names)
        self.id_of = {nm: i for i, nm in enumerate(self.names)}
        self.alphabet = tuple(sorted(alpha, key=label_key))
        rank = {a: i for i, a in enumerate(self.alphabet)}
        edges = np.array([(u, rank[a], v) for (u, a, v) in trans], np.intp).reshape(-1, 3)
        order = np.lexsort(edges.T[::-1])
        self.transitions = tuple([trans[e] for e in order.tolist()])
        columns = edges[order].T.copy()
        columns.setflags(write=False)
        self.src, self.lab, self.dst = columns

        out: dict[tuple[int, str], list[int]] = {}
        inc: dict[tuple[int, str], list[int]] = {}
        for (u, a, v) in self.transitions:
            out.setdefault((u, a), []).append(v)
            inc.setdefault((v, a), []).append(u)
        # The sorted, duplicate-free transitions list every run in order.
        self._out = {k: tuple(vs) for k, vs in out.items()}
        self._in = {k: tuple(us) for k, us in inc.items()}

        for a in self.alphabet:
            if (self.initial, a) in self._in:
                src = self._in[(self.initial, a)][0]
                raise ValidationError(
                    f"initial state has incoming transition "
                    f"{self.names[src]} {a} {self.names[self.initial]}")

        dist = _bfs_distances(n_states, self.initial, trans)
        if -1 in dist:
            missing = dist.index(-1)
            raise ValidationError(f"state {self.names[missing]!r} is unreachable")

        lam: list[list[str]] = [[] for _ in range(n_states)]
        for (v, a) in self._in:
            lam[v].append(a)
        lam[self.initial].append(HASH)
        self.lambda_sets = tuple(map(frozenset, lam))

    # -- queries ---------------------------------------------------------

    def targets(self, u: int, a: str) -> tuple[int, ...]:
        """States reachable from u in one step on label a."""
        return self._out.get((u, a), ())

    def sources(self, u: int, a: str) -> tuple[int, ...]:
        """States with an a-transition into u."""
        return self._in.get((u, a), ())

    def delta_set(self, states: Iterable[int], a: str) -> frozenset[int]:
        """Image of a state set under one step on label a."""
        out: set[int] = set()
        for u in states:
            out.update(self._out.get((u, a), ()))
        return frozenset(out)

    def lambda_set(self, u: int) -> frozenset[str]:
        """Incoming-label set of u; {HASH} for the initial state."""
        return self.lambda_sets[u]

    def serialize(self) -> str:
        lines = [f"initial {self.names[self.initial]}"]
        for (u, a, v) in self.transitions:
            lines.append(f"trans {self.names[u]} {a} {self.names[v]}")
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
                f"alphabet={list(self.alphabet)}, transitions={len(self.transitions)})")


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
    current = frozenset((source,))
    for a in word:
        if a not in nfa.alphabet:
            raise UnknownLabel(f"label {a!r} is not in the alphabet")
        current = nfa.delta_set(current, a)
    return current


def parse_nfa(text: str) -> Nfa:
    """Parse the line-oriented text format; see the module docstring."""
    initial_seen = False
    names: list[str] = []
    ids: dict[str, int] = {}
    transitions: list[tuple[int, str, int]] = []
    line_no = 0

    def intern(name: str) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(HASH, 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not initial_seen:
            if tokens[0] != "initial":
                raise NfaSyntaxError(
                    f"expected 'initial <name>' before {tokens[0]!r}", line_no)
            if len(tokens) != 2:
                raise NfaSyntaxError("expected 'initial <name>'", line_no)
            intern(tokens[1])
            initial_seen = True
        elif tokens[0] == "initial":
            raise NfaSyntaxError("duplicate 'initial' directive", line_no)
        elif tokens[0] == "trans":
            if len(tokens) != 4:
                raise NfaSyntaxError("expected 'trans <from> <label> <to>'", line_no)
            u = intern(tokens[1])
            v_label = tokens[2]
            v = intern(tokens[3])
            transitions.append((u, v_label, v))
        else:
            raise NfaSyntaxError(f"unknown directive {tokens[0]!r}", line_no)

    if not initial_seen:
        raise NfaSyntaxError("missing 'initial' directive", line_no or 1)
    return Nfa(len(names), 0, transitions, names=names)


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
    for (u, a, v) in nfa.transitions:
        lines.append(f"  n{u} -> n{v} [label={_dot_quote(a)}];")
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
    sinks into one class and yields a total order (width 1).
    """
    if n <= 4:
        raise InvalidParameter(f"separation family needs n > 4, got {n}")
    names = [f"u{i}" for i in range(1, n + 1)]
    trans = [(0, "a", 1), (0, "b", 2), (2, "b", 3)]
    for i in range(5, n + 1):
        trans.append((1, "a", i - 1))
        trans.append((2, "a", i - 1))
    return Nfa(n, 0, trans, names=names)


def gen_random(states: int, alphabet_size: int, density: float, seed: int) -> Nfa:
    """Random valid NFA, deterministic per seed.

    Draws each candidate transition independently with probability
    ``density``, then repairs the draw into a valid automaton: incoming
    edges of the initial state are dropped, unreachable states are pruned
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

    keep = [u for u, d in enumerate(_bfs_distances(states, 0, edges)) if d >= 0]
    new_id = {old: i for i, old in enumerate(keep)}
    edges = [(new_id[u], a, new_id[v]) for (u, a, v) in edges if u in new_id]
    names = [f"q{i}" for i in range(len(keep))]
    return Nfa(len(keep), 0, sorted(set(edges), key=lambda t: (t[0], t[1], t[2])),
               names=names)
