"""Outside-in tracing of the nfaindex layers.

The package has no tracing of its own, so this module wraps its public
functions from the outside.  Each wrapped function is rebound everywhere a
caller looks it up: the module globals of ``cli``, ``colex``, ``relations``
and ``fs_partition``, the entries of ``cli._CHECKERS`` and the methods of
``Relation``, ``PairGraph`` and ``Nfa``.

Two kinds of pass use the same bindings:

* ``Spans`` records one span per call of a traced function (name, start,
  end, parent span, operation id, input size) and keeps them in memory.
* ``Counts`` only counts calls, including the high-frequency helpers that
  are too cheap to time, so that wrapper cost never inflates self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("automaton", "fs_partition", "colex", "relations", "cli")

# Span-traced functions: traced name -> (defining module, attribute).
TRACED = {
    "cli.main": ("cli", "main"),
    "automaton.parse_nfa": ("automaton", "parse_nfa"),
    "fs_partition.coarsest_fs_partition": ("fs_partition", "coarsest_fs_partition"),
    "fs_partition.build_quotient": ("fs_partition", "build_quotient"),
    "colex.max_colex_relation": ("colex", "max_colex_relation"),
    "colex.cfs_order": ("colex", "cfs_order"),
    "colex.compare_report": ("colex", "compare_report"),
    "relations.transitivity_witness": ("relations", "Relation.transitivity_witness"),
    "relations.induced_equivalence": ("relations", "induced_equivalence"),
    "relations.width": ("relations", "width"),
    "relations.check_colex_relation": ("relations", "check_colex_relation"),
    "relations.check_colex_order": ("relations", "check_colex_order"),
    "relations.check_wheeler_order": ("relations", "check_wheeler_order"),
    "relations.check_wheeler_preorder": ("relations", "check_wheeler_preorder"),
    "relations.relation_from_json_dict": ("relations", "relation_from_json_dict"),
    "relations.relation_to_json_dict": ("relations", "relation_to_json_dict"),
}

# Helpers only counted, in the counting pass.
COUNTED = {
    "automaton.lambda_leq": ("automaton", "lambda_leq"),
    "automaton.delta_set": ("automaton", "Nfa.delta_set"),
    "colex.pairgraph_successors": ("colex", "PairGraph.successors"),
}

# Functions whose call counts are reported: the ones a later change is
# expected to call less often.
REPORTED_CALLS = (
    "automaton.lambda_leq",
    "automaton.delta_set",
    "fs_partition.coarsest_fs_partition",
    "colex.max_colex_relation",
    "colex.pairgraph_successors",
    "relations.transitivity_witness",
    "relations.induced_equivalence",
    "relations.width",
)

# Modules whose globals callers resolve the functions through.
CALLER_MODULES = ("cli", "colex", "relations", "fs_partition")


def _modules():
    import nfaindex.automaton
    import nfaindex.cli
    import nfaindex.colex
    import nfaindex.fs_partition
    import nfaindex.relations
    return {
        "automaton": nfaindex.automaton,
        "cli": nfaindex.cli,
        "colex": nfaindex.colex,
        "fs_partition": nfaindex.fs_partition,
        "relations": nfaindex.relations,
    }


def _size(args, result) -> int:
    for a in args[:1]:
        for attr in ("n_states", "n"):
            if isinstance(getattr(a, attr, None), int):
                return getattr(a, attr)
    return getattr(result, "n_states", 0)


class _Patcher:
    """Replaces functions at every binding and restores them afterwards."""

    def __init__(self):
        self.mods = _modules()
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value, is_dict=False):
        if is_dict:
            self.undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def wrap(self, home: str, attr: str, make) -> None:
        mod = self.mods[home]
        if "." in attr:  # a method: patch it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for m in {home, *CALLER_MODULES}:
            g = vars(self.mods[m])
            if g.get(attr) is orig:
                self._set(self.mods[m], attr, new)
        checkers = self.mods["cli"]._CHECKERS
        for k, fn in list(checkers.items()):
            if fn is orig:
                self._set(checkers, k, new, is_dict=True)

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.undo.clear()


class Spans:
    """Span recorder for one traced pass.

    A span is [name, start, end, parent index, operation id, size, error].
    The innermost open span is the parent of the next one that starts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.patcher = _Patcher()

    def _make(self, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, 0, False]
                spans.append(span)
                stack.append(idx)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException:
                    span[6] = True
                    raise
                finally:
                    span[2] = clock()
                    stack.pop()
                    span[5] = _size(args, result)
            return traced
        return make

    def __enter__(self):
        for name, (home, attr) in TRACED.items():
            self.patcher.wrap(home, attr, self._make(name))
        return self

    def __exit__(self, *exc):
        self.patcher.restore()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


class Counts:
    """Call counter for one counting pass, plus the relation statistics.

    ``relations.dense_cells`` sums n*n over every matrix a Relation is built
    from; ``relations.transitivity_witness`` also tracks the distinct
    Relation objects it was called on.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.dense_cells = 0
        self.witness_targets: dict[int, object] = {}
        self.patcher = _Patcher()

    def _make(self, name: str):
        calls = self.calls

        def make(fn):
            if name == "relations.transitivity_witness":
                targets = self.witness_targets

                def counted_witness(rel, *args, **kwargs):
                    calls[name] += 1
                    targets.setdefault(id(rel), rel)  # keep it alive: ids stay unique
                    return fn(rel, *args, **kwargs)
                return functools.wraps(fn)(counted_witness)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)
        return make

    def __enter__(self):
        for name, (home, attr) in {**TRACED, **COUNTED}.items():
            self.patcher.wrap(home, attr, self._make(name))
        rel_cls = self.patcher.mods["relations"].Relation
        init = rel_cls.__dict__["__init__"]
        from_matrix = rel_cls.__dict__["from_matrix"].__func__

        def counted_init(rel, *args, **kwargs):
            init(rel, *args, **kwargs)
            self.dense_cells += rel.n * rel.n

        def counted_from_matrix(cls, *args, **kwargs):
            rel = from_matrix(cls, *args, **kwargs)
            self.dense_cells += rel.n * rel.n
            return rel

        self.patcher._set(rel_cls, "__init__", counted_init)
        self.patcher._set(rel_cls, "from_matrix", classmethod(counted_from_matrix))
        return self

    def __exit__(self, *exc):
        self.patcher.restore()
        self.witness_targets.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "dense_cells": self.dense_cells,
            "witness_relations": len(self.witness_targets),
        }
