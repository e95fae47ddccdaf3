"""Seeded input generators of the benchmark.

They live here, not in the package, so that edits to ``gen_random`` or
``gen_separation_family`` cannot change a workload.  The generators take a
``random.Random`` made from the run's seed and return automata in the
package's text format, plus what the correctness checks need to know.
"""

from __future__ import annotations

import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _text(initial: str, edges) -> str:
    lines = [f"initial {initial}"]
    lines.extend(f"trans {u} {a} {v}" for (u, a, v) in edges)
    return "\n".join(lines) + "\n"


def random_nfa(rng: random.Random, n: int, sigma: int, degree: int) -> str:
    """Random NFA on n states over the first ``sigma`` letters.

    A random spanning tree rooted at the initial state q0 makes every state
    reachable; its first ``sigma`` edges carry each label once, so the whole
    alphabet is used.  Every state then gets random extra edges until it has
    ``degree`` outgoing edges.  No edge enters q0.
    """
    labels = LETTERS[:sigma]
    order = list(range(1, n))
    rng.shuffle(order)
    placed = [0]
    edges: set[tuple[int, str, int]] = set()
    out = [0] * n
    for i, v in enumerate(order):
        u = rng.choice(placed)
        a = labels[i] if i < sigma else rng.choice(labels)
        edges.add((u, a, v))
        out[u] += 1
        placed.append(v)
    for u in range(n):
        while out[u] < degree:
            e = (u, rng.choice(labels), rng.randrange(1, n))
            if e not in edges:
                edges.add(e)
                out[u] += 1
    lines = sorted(edges)
    rng.shuffle(lines)
    return _text("q0", ((f"q{u}", a, f"q{v}") for (u, a, v) in lines))


def unary_path(rng: random.Random, n: int) -> str:
    """Path p0 -> p1 -> ... -> p(n-1) on one label, transitions in random order.

    The parser numbers states by first appearance, so the shuffled lines give
    each seed its own state numbering of the same path.
    """
    a = rng.choice(LETTERS)
    edges = [(f"p{i}", a, f"p{i + 1}") for i in range(n - 1)]
    rng.shuffle(edges)
    return _text("p0", edges)


def comb(rng: random.Random, k: int, length: int, sigma: int) -> str:
    """k chains of ``length`` states hanging off s0, all with one label pattern.

    State c<i>_<j> is the j-th state of chain i; the chains are
    indistinguishable, so the coarsest forward-stable partition has one
    block per depth: length + 1 blocks in all.
    """
    pattern = [rng.choice(LETTERS[:sigma]) for _ in range(length)]
    edges = []
    for i in range(k):
        prev = "s0"
        for j, a in enumerate(pattern):
            cur = f"c{i}_{j}"
            edges.append((prev, a, cur))
            prev = cur
    rng.shuffle(edges)
    return _text("s0", edges)


def trie(rng: random.Random, nodes: int, max_len: int, sigma: int) -> tuple[str, dict[str, str]]:
    """Trie of random words, grown until it has at least ``nodes`` nodes.

    Returns the text and each node's word.  Node t0 is the root with the
    empty word; nodes are named in insertion order and the transitions are
    written in random order.
    """
    letters = LETTERS[:sigma]
    node_of = {"": "t0"}
    edges = []
    while len(node_of) < nodes:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
        for end in range(1, len(word) + 1):
            prefix = word[:end]
            if prefix not in node_of:
                node_of[prefix] = f"t{len(node_of)}"
                edges.append((node_of[prefix[:-1]], prefix[-1], node_of[prefix]))
    rng.shuffle(edges)
    return _text("t0", edges), {name: word for word, name in node_of.items()}


def colex_sorted(words: dict[str, str]) -> list[str]:
    """Node names sorted by reversed word: the Wheeler order of a trie."""
    return sorted(words, key=lambda name: words[name][::-1])


def total_order_json(order: list[str]) -> dict:
    """Relation JSON of the strict total order listed in ``order``."""
    return {"n": len(order),
            "pairs": [[u, v] for i, u in enumerate(order) for v in order[i + 1:]]}


def wide_middle_relation(middles: int = 256) -> tuple[str, dict]:
    """A star s0 -a-> s1..s(middles+2) and a non-transitive relation on it.

    s1 < sX < s(middles+2) for every middle sX, but not s1 < s(middles+2):
    ``middles`` distinct witnesses of one missing pair.
    """
    last = middles + 2
    edges = [("s0", "a", f"s{i}") for i in range(1, last + 1)]
    pairs = []
    for x in range(2, last):
        pairs.append(["s1", f"s{x}"])
        pairs.append([f"s{x}", f"s{last}"])
    return _text("s0", edges), {"n": last + 1, "pairs": pairs}
