import numpy as np
import pytest

from nfaindex import Nfa, Relation, colex, gen_fixture, gen_separation_family


@pytest.fixture
def fig2():
    return gen_fixture("fig2")


@pytest.fixture
def wheeler3():
    return gen_fixture("wheeler3")


@pytest.fixture
def sep6():
    return gen_separation_family(6)


@pytest.fixture
def no_dense_relation(monkeypatch):
    """Fail on any call that starts building dense storage: numpy's empty
    and zeros, and the automaton's label bounds that seed the maximum
    co-lex relation."""
    def no_allocation(*args, **kwargs):
        raise AssertionError("dense storage allocated above the limit")

    monkeypatch.setattr(Nfa, "label_bounds", property(no_allocation))
    monkeypatch.setattr(np, "empty", no_allocation)
    monkeypatch.setattr(np, "zeros", no_allocation)
    return no_allocation


@pytest.fixture
def no_dense_allocation(monkeypatch, no_dense_relation):
    """no_dense_relation, and no refinement that precedes the lifted
    forward-stable preorder either."""
    monkeypatch.setattr(colex, "coarsest_fs_partition", no_dense_relation)


@pytest.fixture
def products(monkeypatch):
    """The sizes of the n*n matrix products behind transitivity checks,
    in the order they run."""
    sizes = []
    real = Relation._first_gap

    def counted(rel):
        sizes.append(rel.n)
        return real(rel)

    monkeypatch.setattr(Relation, "_first_gap", counted)
    return sizes
