"""The public builders run with CPython's cyclic garbage collector paused.

build_tree, build_polytree, normalize_tree, contract and build_engine each
leave gc.isenabled() as they found it: enabled or disabled at entry, when
they raise, and when one calls another.  The pause rests on a premise that
is pinned here too: a build creates no cyclic garbage, so the collection
passes it would trigger find nothing.
"""

import gc

import numpy as np
import pytest

from logbel import (
    DimensionOverflow,
    FormatError,
    TreeTooSmall,
    build_engine,
    build_polytree,
    build_tree,
    contract,
    normalize_tree,
    random_polytree,
    tree_to_spec,
)
from logbel.generate import balanced_tree, random_tree
from logbel.model import collector_paused
from test_counts import star_tree
from test_model import _polytree_spec as polytree_spec


@pytest.fixture(autouse=True)
def collector():
    """Restore the collector's state after each test."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def builders():
    """(name, thunk) for each builder, over inputs made beforehand."""
    star = star_tree(300, np.random.default_rng(0))
    spec = tree_to_spec(star)
    normalized, _ = normalize_tree(star)
    pt = random_polytree(120, 3, (2, 3), np.random.default_rng(1))
    pt_spec = polytree_spec(pt)
    return [("build_tree", lambda: build_tree(spec)),
            ("normalize_tree", lambda: normalize_tree(star)),
            ("contract", lambda: contract(normalized)),
            ("build_polytree", lambda: build_polytree(pt_spec)),
            ("build_engine", lambda: build_engine(pt))]


def failing_builders():
    """(name, thunk) for builds that raise, with the error each raises."""
    lone = build_tree({"nodes": [{"id": "r", "domain": 2, "prior": [0.5, 0.5]}]})
    pt = random_polytree(6, 3, 3, np.random.default_rng(2))
    return [("build_tree", lambda: build_tree({"nodes": 3}), FormatError),
            ("build_polytree", lambda: build_polytree({"variables": 3}), FormatError),
            ("contract", lambda: contract(lone), TreeTooSmall),
            ("build_engine", lambda: build_engine(pt, state_cap=2), DimensionOverflow)]


def collections_during(thunk):
    """thunk's result and the generation of every collection pass it ran,
    counted from a fresh collection."""
    passes = []

    def note(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        result = thunk()
    finally:
        gc.callbacks.remove(note)
    return result, passes


def test_builders_run_no_collection_and_leave_it_enabled():
    gc.enable()
    for name, build in builders():
        _, passes = collections_during(build)
        assert passes == [], name
        assert gc.isenabled(), name


def test_builders_leave_a_disabled_collector_disabled():
    gc.disable()
    for name, build in builders():
        build()
        assert not gc.isenabled(), name


@pytest.mark.parametrize("enabled", [True, False])
def test_raising_builders_restore_the_collector(enabled):
    for name, build, error in failing_builders():
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(error):
            build()
        assert gc.isenabled() is enabled, name


def test_nested_builders_keep_the_outer_pause(monkeypatch):
    """A paused tree build calls normalize_tree, then contract: the first
    one's return does not re-enable the collector under the second, and the
    outer call re-enables it once."""
    seen, enables = [], []

    def spy(builder):
        def call(*args, **kwargs):
            seen.append((builder.__name__, gc.isenabled()))
            result = builder(*args, **kwargs)
            seen.append((builder.__name__, gc.isenabled()))
            return result
        return call

    normalize, build = spy(normalize_tree), spy(contract)

    @collector_paused
    def paused_tree_build(tree):
        return build(normalize(tree)[0])

    tree = star_tree(30, np.random.default_rng(3))
    enable = gc.enable

    def counted_enable():
        enables.append(1)
        enable()

    gc.enable()
    monkeypatch.setattr(gc, "enable", counted_enable)
    paused_tree_build(tree)
    assert seen == [("normalize_tree", False)] * 2 + [("contract", False)] * 2
    assert gc.isenabled() and len(enables) == 1


def tree_build(spec):
    return contract(normalize_tree(build_tree(spec))[0])


def polytree_build(spec):
    return build_engine(build_polytree(spec))


@pytest.mark.parametrize("build, make_spec", [
    (tree_build, lambda rng: tree_to_spec(star_tree(400, rng))),
    (tree_build, lambda rng: tree_to_spec(balanced_tree(255, 3, rng))),
    (polytree_build, lambda rng: polytree_spec(random_polytree(150, 3, (2, 3), rng))),
    (lambda rng: balanced_tree(255, 3, rng), lambda rng: rng),
    (lambda rng: random_tree(255, 3, rng), lambda rng: rng),
], ids=["star", "balanced", "polytree", "balanced_tree", "random_tree"])
def test_builds_create_no_cyclic_garbage(build, make_spec):
    """The premise of the pause: with the collector off, a collection right
    after a build finds nothing to free.  The tree generators, which build
    through build_tree, leave none either."""
    spec = make_spec(np.random.default_rng(4))
    gc.disable()
    gc.collect()
    built = build(spec)
    assert gc.collect() == 0
    del built
