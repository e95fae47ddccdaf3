"""The three workloads: their operations, input files and reference checks.

An operation is one ``nfaindex`` command line run on files this module
writes.  Each operation carries the exit code it must return, a check of
its output and the sha256 digest of the output the seed commit gave, from
digests.json; ``known_defect`` marks an operation whose correct answer the
program is known not to give yet, so the run reports it as failed without
calling the whole run incorrect.

Inputs come in blocks.  Every block has its workload's fixed mix of sizes
and shapes; the blocks form a fixed pool of ``POOL_BLOCKS`` per workload,
all with stored digests, and the run's seed only chooses the order in
which a run visits them, so every operation is compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import gen

EXIT_OK = 0
EXIT_INVALID = 4

CHECK_KINDS = ("wheeler-order", "colex-order", "colex-relation", "wheeler-preorder")


@dataclass
class Op:
    label: str
    argv: list[str]
    expect_rc: int
    check: Callable[[str], str | None]  # output text -> problem, or None
    out: str
    known_defect: str | None = None
    digest: str | None = None  # sha256 of the expected output; None: not compared


class _Writer:
    """Writes input files under ``root`` and hands out output paths."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "in"), exist_ok=True)
        os.makedirs(os.path.join(root, "out"), exist_ok=True)
        self.count = 0

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.root, "in", name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def op(self, label: str, argv: list[str], expect_rc: int,
           check, known_defect: str | None = None) -> Op:
        out = os.path.join(self.root, "out", f"{self.count}.out")
        self.count += 1
        return Op(label, argv + ["-o", out], expect_rc, check, out, known_defect)


# -- output checks ---------------------------------------------------------

def _analyze_check(n: int):
    keys = ["n_states", "classes_R", "classes_FS", "width_R", "width_FS",
            "superset_holds", "quasi_wheeler", "max_order_exists"]

    def check(text: str) -> str | None:
        r = json.loads(text)
        if list(r) != keys:
            return f"keys {list(r)}"
        if r["n_states"] != n:
            return f"n_states {r['n_states']} != {n}"
        if not 1 <= r["classes_FS"] <= r["classes_R"] <= n:
            return "classes out of order"
        if not 1 <= r["width_FS"] <= r["width_R"] <= n:
            return "widths out of order"
        if r["superset_holds"] is not True:
            return "superset_holds is false"
        if r["max_order_exists"] != (r["classes_R"] == n):
            return "max_order_exists disagrees with classes_R"
        return None
    return check


def _quotient_check(n: int, blocks: int):
    def check(text: str) -> str | None:
        r = json.loads(text)
        got = r["blocks"]
        if len(got) != blocks:
            return f"{len(got)} blocks, expected {blocks}"
        if sum(len(b) for b in got) != n:
            return "blocks do not cover the states"
        if not r["quotient"].startswith("initial "):
            return "quotient text malformed"
        return None
    return check


def _width_check(order: list[str]):
    def check(text: str) -> str | None:
        r = json.loads(text)
        if r["width"] != 1 or len(r["antichain"]) != 1:
            return f"width {r['width']}, expected 1"
        if r["chains"] != [order]:
            return "chain is not the co-lex order of the trie"
        return None
    return check


def _relation_check(expected: dict):
    pairs = sorted(map(tuple, expected["pairs"]))

    def check(text: str) -> str | None:
        r = json.loads(text)
        if r["n"] != expected["n"] or sorted(map(tuple, r["pairs"])) != pairs:
            return "relation is not the co-lex order of the trie"
        return None
    return check


def _verdict_check(kind: str, valid: bool, rule: str | None = None):
    def check(text: str) -> str | None:
        r = json.loads(text)
        if r["kind"] != kind or r["valid"] is not valid:
            return f"verdict valid={r['valid']}, expected {valid}"
        if valid and r["violation"] is not None:
            return "valid verdict with a violation"
        if not valid and rule is not None and r["violation"]["rule"] != rule:
            return f"rule {r['violation']['rule']!r}, expected {rule!r}"
        return None
    return check


# -- workloads -------------------------------------------------------------

# analyze-random: a size ladder spanning a factor of 4, one (alphabet,
# out-degree) shape per size.  Few distinct classes per block keep many
# samples in each, which steadies the percentiles.  The middle size is a
# class of its own, apart in time from its neighbours, so that the
# median falls in its centre; the two costliest classes take about the
# same time, so that p75 falls inside them.
RANDOM_LADDER = ((50, 3, 4), (71, 2, 3), (100, 2, 2), (141, 4, 6), (200, 2, 2))
ORACLE_SIZES = (5, 6, 7, 8)

# quotient-chains: paths and tries end discrete; combs (chains, length)
# collapse to length + 1 blocks.
PATH_SIZES = (400, 800)
TRIE_NODES = 800
COMBS = ((10, 50), (15, 100), (30, 100))

# certify-tries: trie sizes in nodes.
#
# Two large tries to one small: the three costliest operations of each
# large trie (width twice, maxrel) form a cluster of six, in whose middle
# p90 falls, and the checks on the large tries form a cluster of a dozen
# around the median.  With one large trie both percentiles fell between
# two kinds of operation, and their spread over ten runs reached 14-19% of
# the median.
CERTIFY_NODES = (120, 270, 270)

DEFECT = ("Relation._compose counts middles in uint8 and wraps at 256, so a "
          "pair with 256 witnesses of non-transitivity reads as transitive")


def analyze_random(w: _Writer, rng: random.Random) -> list[Op]:
    ops = []
    for n, sigma, degree in RANDOM_LADDER:
        path = w.file(f"r{n}-{sigma}-{degree}.nfa", gen.random_nfa(rng, n, sigma, degree))
        ops.append(w.op(f"analyze n={n} sigma={sigma} d={degree}",
                        ["analyze", path], EXIT_OK, _analyze_check(n)))
    return ops


def oracle_ops(w: _Writer, rng: random.Random) -> list[Op]:
    """``analyze --oracle`` on instances of at most 8 states from every generator.

    The CLI cross-checks the partition, the maximum co-lex relation and both
    widths against exhaustive search and exits 3 on any disagreement.
    """
    texts = []
    for n in ORACLE_SIZES:
        _, sigma, degree = RANDOM_LADDER[n % len(RANDOM_LADDER)]
        texts.append((f"random{n}", n, gen.random_nfa(rng, n, sigma, min(degree, n - 1))))
    texts.append(("path8", 8, gen.unary_path(rng, 8)))
    texts.append(("comb2x3", 7, gen.comb(rng, 2, 3, 2)))
    text, words = gen.trie(rng, 6, 3, 2)
    texts.append(("trie", len(words), text))
    ops = []
    for name, n, text in texts:
        path = w.file(f"oracle-{name}.nfa", text)
        ops.append(w.op(f"analyze --oracle {name}", ["analyze", "--oracle", path],
                        EXIT_OK, _analyze_check(n)))
    return ops


def quotient_chains(w: _Writer, rng: random.Random) -> list[Op]:
    ops = []
    fmt = ["--format", "json"]
    for n in PATH_SIZES:
        path = w.file(f"path{n}.nfa", gen.unary_path(rng, n))
        ops.append(w.op(f"quotient path n={n}", ["quotient", path] + fmt,
                        EXIT_OK, _quotient_check(n, n)))
    text, words = gen.trie(rng, TRIE_NODES, 12, 3)
    n = len(words)
    path = w.file("trie.nfa", text)
    ops.append(w.op(f"quotient trie n={n}", ["quotient", path] + fmt,
                    EXIT_OK, _quotient_check(n, n)))
    for k, length in COMBS:
        n = k * length + 1
        path = w.file(f"comb{k}x{length}.nfa", gen.comb(rng, k, length, 2))
        ops.append(w.op(f"quotient comb k={k} L={length}", ["quotient", path] + fmt,
                        EXIT_OK, _quotient_check(n, length + 1)))
    return ops


def certify_tries(w: _Writer, rng: random.Random) -> list[Op]:
    ops = []
    for k, nodes in enumerate(CERTIFY_NODES):
        text, words = gen.trie(rng, nodes, 8, 3)
        n = len(words)
        order = gen.colex_sorted(words)
        # Swap one adjacent pair: still a total order, but not a co-lex one.
        i = rng.randrange(len(order) - 1)
        corrupt = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
        nfa = w.file(f"trie{k}.nfa", text)
        good = w.file(f"trie{k}.order.json", json.dumps(gen.total_order_json(order)))
        bad = w.file(f"trie{k}.corrupt.json", json.dumps(gen.total_order_json(corrupt)))
        for rel in ("cfs", "maxrel"):
            ops.append(w.op(f"width --rel {rel} trie n={n}",
                            ["width", nfa, "--rel", rel], EXIT_OK, _width_check(order)))
        ops.append(w.op(f"maxrel trie n={n}", ["maxrel", nfa], EXIT_OK,
                        _relation_check(gen.total_order_json(order))))
        for kind in CHECK_KINDS:
            ops.append(w.op(f"check {kind} trie n={n}",
                            ["check", nfa, "--relation", good, "--kind", kind],
                            EXIT_OK, _verdict_check(kind, True)))
            ops.append(w.op(f"check {kind} corrupted trie n={n}",
                            ["check", nfa, "--relation", bad, "--kind", kind],
                            EXIT_INVALID, _verdict_check(kind, False)))
    text, rel = gen.wide_middle_relation(256)
    nfa = w.file("wide_middle.nfa", text)
    relf = w.file("wide_middle.rel.json", json.dumps(rel))
    ops.append(w.op("check colex-order 256 middles n=259",
                    ["check", nfa, "--relation", relf, "--kind", "colex-order"],
                    EXIT_INVALID,
                    _verdict_check("colex-order", False, "not-transitive"),
                    known_defect=DEFECT))
    return ops


WORKLOADS = {
    "analyze-random": analyze_random,
    "quotient-chains": quotient_chains,
    "certify-tries": certify_tries,
}


# The percentile op_s.tail reports on each workload: the highest of 50, 75,
# 90, 99 with at least 10 operations beyond it in every 25-second run on a
# 2-core machine, fixed so that the metric does not change its meaning with
# the machine's speed.  Runs of analyze-random make 60 to 135 operations,
# certify-tries 136 to 204 and quotient-chains 190 to 290.  Each falls
# inside a cluster of like operations of its workload's mix.
TAIL_PERCENTILE = {"analyze-random": 75, "quotient-chains": 90, "certify-tries": 90}

POOL_SEED = 20240604
POOL_BLOCKS = 32
ORACLE = "oracle"  # digests.json key of the oracle gate's operations
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    """digests.json: per workload one list of digests per pool block, and
    one list for the oracle gate; null where a known defect's output is
    wrong by definition."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def pool_order(seed: int) -> list[int]:
    """The pool blocks in the order a run with this seed visits them."""
    order = list(range(POOL_BLOCKS))
    random.Random(f"order:{seed}").shuffle(order)
    return order


def _attach(ops: list[Op], digests: list) -> list[Op]:
    if len(digests) != len(ops):
        raise ValueError(f"{len(digests)} stored digests for {len(ops)} operations")
    for op, want in zip(ops, digests):
        op.digest = None if op.known_defect else want
    return ops


def build(workload: str, block: int, root: str, digests: list) -> list[Op]:
    """Operations of pool block ``block``: the workload's fixed mix of sizes."""
    rng = random.Random(f"{workload}:{POOL_SEED}:{block}")
    return _attach(WORKLOADS[workload](_Writer(root), rng), digests)


def build_oracle(root: str, digests: list) -> list[Op]:
    return _attach(oracle_ops(_Writer(root), random.Random(f"{ORACLE}:{POOL_SEED}")), digests)


def family(label: str) -> str:
    """An operation's label without its size parameters, e.g. "quotient comb"."""
    return " ".join(tok for tok in label.split() if "=" not in tok)


def judge(op: Op, rc, data: bytes) -> str | None:
    """Why an operation's result is wrong, or None when it is right."""
    if rc != op.expect_rc:
        return f"exit {rc}, expected {op.expect_rc}"
    try:
        why = op.check(data.decode("utf-8", "replace"))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        why = f"malformed output ({type(exc).__name__}: {exc})"
    if why is None and op.digest is not None and digest(data) != op.digest:
        why = "output differs from the stored digest"
    return why
