"""The one likelihood check, as every evidence entry point sees it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logbel.model
from logbel import (
    AllZeroLikelihood,
    CausalTree,
    DimensionMismatch,
    Evidence,
    FormatError,
    InvalidProbability,
    LazyState,
    Node,
    Polytree,
    Variable,
    belief_query,
    build_engine,
    build_polytree,
    chain_tree,
    contract,
    full_propagate,
    lazy_query,
    lazy_update,
    load_network,
    load_polytree,
    polytree_query,
    polytree_update,
    set_evidence,
    update_evidence,
)
from logbel.cli import load_problem
from logbel.model import SHORT_LIKELIHOOD, _float_array, as_prob_vector, check_likelihood

VEE = {"variables": [
    {"id": "a", "domain": 2, "prior": [0.4, 0.6]},
    {"id": "b", "domain": 2, "prior": [0.7, 0.3]},
    {"id": "c", "domain": 2, "parents": ["a", "b"],
     "cpt": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.05, 0.95]]},
]}


def small_tree():
    return chain_tree(9, k=2, rng=np.random.default_rng(3))


ENTRY_POINTS = ("Evidence", "set_evidence", "update_evidence", "lazy_update",
                "polytree_update")


def installer(entry):
    """Callable installing a likelihood through the named entry point, on
    leaf e2 of small_tree() (variable c of VEE for polytree_update)."""
    if entry == "Evidence":
        tree = small_tree()
        return lambda vec: set_evidence(tree, "e2", Evidence(vec))
    if entry == "set_evidence":
        tree = small_tree()
        return lambda vec: set_evidence(tree, "e2", vec)
    if entry == "update_evidence":
        index = contract(small_tree())
        return lambda vec: update_evidence(index, "e2", vec)
    if entry == "lazy_update":
        state = LazyState(small_tree())
        return lambda vec: lazy_update(state, "e2", vec)
    engine = build_engine(build_polytree(VEE))
    return lambda vec: polytree_update(engine, "c", vec)


BAD_LIKELIHOODS = {
    "nan": ([np.nan, 1.0], InvalidProbability),
    "inf": ([np.inf, 1.0], InvalidProbability),
    # after a positive entry, where Python's min and max pass them over
    "nan-after-positive": ([1.0, np.nan], InvalidProbability),
    "inf-after-positive": ([1.0, np.inf], InvalidProbability),
    "negative": ([0.5, -0.1], InvalidProbability),
    "two-dimensional": ([[0.5, 0.5]], DimensionMismatch),
    "wrong-length": ([0.5, 0.5, 0.5], DimensionMismatch),
    "all-zero": ([0.0, 0.0], AllZeroLikelihood),
    "non-numeric": (["a", "b"], FormatError),
    # an object array, since np.array refuses a ragged list
    "ragged": (np.array([[1.0], [1.0, 2.0]], dtype=object), FormatError),
}


@pytest.mark.parametrize("bad", sorted(BAD_LIKELIHOODS))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_alike(entry, bad):
    install = installer(entry)
    vec, error = BAD_LIKELIHOODS[bad]
    with pytest.raises(error) as info:
        install(np.array(vec))
    if entry != "Evidence":  # an Evidence is checked before it meets a leaf
        assert repr("c" if entry == "polytree_update" else "e2") in str(info.value)


def numpy_check_likelihood(vec, domain):
    """check_likelihood without its short-vector path: one numpy min and max
    decide the valid case, then the same ordered checks name the fault."""
    vec = _float_array(vec, "likelihood")
    if vec.ndim == 1 and vec.shape[0] and (domain is None or vec.shape[0] == domain) \
            and vec.min() >= 0.0 and 0.0 < vec.max() < np.inf:
        return vec
    vec = as_prob_vector(vec, what="likelihood")
    if domain is not None and vec.shape[0] != domain:
        raise DimensionMismatch(f"likelihood has length {vec.shape[0]}, domain is {domain}")
    if not np.any(vec > 0.0):
        raise AllZeroLikelihood("likelihood has no positive entry")
    return vec


EDGE_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -1.0]),
    st.floats())


@st.composite
def likelihoods(draw):
    """Vectors of 0 to 2 SHORT_LIKELIHOOD entries in [0, 1], up to two of
    them replaced by NaN, +-inf, -0.0, a subnormal, a negative or any
    float."""
    n = draw(st.integers(0, 2 * SHORT_LIKELIHOOD))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        values[draw(st.integers(0, n - 1))] = draw(EDGE_FLOATS)
    return values


@settings(max_examples=300, derandomize=True, deadline=None)
@given(likelihoods(), st.sampled_from([None, 0, 1]))
def test_short_vector_check_decides_as_numpy(values, domain_shift):
    """On both sides of SHORT_LIKELIHOOD, check_likelihood accepts exactly
    the vectors the numpy check accepts and otherwise raises the same error
    with the same message."""
    domain = None if domain_shift is None else len(values) + domain_shift
    outcomes = []
    for check in (check_likelihood, numpy_check_likelihood):
        try:
            outcomes.append(check(np.array(values), domain).tolist())
        except (InvalidProbability, DimensionMismatch, AllZeroLikelihood) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


LIKELIHOOD_EDGES = {  # the values, and whether check_likelihood accepts them
    "valid": ([0.25, 1.0], True), "negative zero": ([-0.0, 1.0], True),
    "subnormal": ([5e-324, 0.0], True), "finite, sum overflows": ([1e308, 1e308], True),
    "NaN": ([np.nan, 1.0], False), "+inf": ([np.inf, 1.0], False),
    "-inf": ([-np.inf, 1.0], False), "+inf and -inf": ([np.inf, -np.inf], False),
    "negative": ([-1.0, 2.0], False), "all zero": ([0.0, 0.0], False),
}


@pytest.mark.parametrize("case", sorted(LIKELIHOOD_EDGES))
@pytest.mark.parametrize("length", [2, SHORT_LIKELIHOOD, SHORT_LIKELIHOOD + 1])
def test_likelihood_edges_decide_alike_on_both_paths(case, length):
    """Each edge case, padded with zeros to a short length (the sum-and-min
    path) and a long one (numpy's min and max): check_likelihood decides it
    as the numpy check does, accepting exactly the valid cases."""
    values, valid = LIKELIHOOD_EDGES[case]
    values = values + [0.0] * (length - len(values))
    outcomes = []
    for check in (check_likelihood, numpy_check_likelihood):
        try:
            outcomes.append(check(np.array(values), length).tolist())
        except (InvalidProbability, DimensionMismatch, AllZeroLikelihood) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] == values) is valid


@pytest.mark.parametrize("table", ["cpt", "prior"])
def test_constructors_name_a_string_table(table):
    tables = {"prior": [0.4, 0.6], "cpt": [[0.9, 0.1], [0.2, 0.8]]}
    tables[table] = [["x", "y"], ["z", "w"]] if table == "cpt" else ["x", "y"]
    named = "conditional table of 'c'" if table == "cpt" else "prior of 'a'"
    with pytest.raises(FormatError, match=f"{named} is not a numeric array"):
        CausalTree([Node("a", 2, prior=tables["prior"]),
                    Node("c", 2, parent="a", cpt=tables["cpt"], evidence=[1.0, 1.0])])
    with pytest.raises(FormatError, match=f"{named} is not a numeric array"):
        Polytree([Variable("a", 2, [], None, tables["prior"]),
                  Variable("c", 2, ["a"], tables["cpt"], None)])


@pytest.mark.parametrize("load", [load_network, load_polytree, load_problem])
def test_loaders_wrap_malformed_json(load, tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"nodes": [', encoding="utf-8")
    with pytest.raises(FormatError, match="invalid JSON"):
        load(path)


def _tree_engines(tree):
    """(update, beliefs) pairs for the full, lazy and contract engines."""
    full = tree.copy()
    lazy = LazyState(tree)
    index = contract(tree.copy())
    ids = list(tree.nodes)
    return [
        (lambda leaf, vec: set_evidence(full, leaf, vec),
         lambda: [full_propagate(full).beliefs[nid].dist for nid in ids]),
        (lambda leaf, vec: lazy_update(lazy, leaf, vec),
         lambda: [lazy_query(lazy, nid).dist for nid in ids]),
        (lambda leaf, vec: update_evidence(index, leaf, vec),
         lambda: [belief_query(index, nid).dist for nid in ids]),
    ]


def test_caller_array_mutation_moves_no_belief():
    for update, beliefs in _tree_engines(small_tree()):
        vec = np.array([0.2, 0.9])
        update("e2", vec)
        before = beliefs()
        vec[:] = [1.0, 0.0]
        np.testing.assert_array_equal(beliefs(), before)

    engine = build_engine(build_polytree(VEE))
    ev = Evidence(np.array([0.2, 0.9]))
    polytree_update(engine, "c", ev)
    before = [polytree_query(engine, vid).dist for vid in "abc"]
    ev.likelihood[:] = [1.0, 0.0]
    np.testing.assert_array_equal([polytree_query(engine, vid).dist for vid in "abc"], before)

    vec = np.array([0.2, 0.9])
    ev = Evidence(vec)
    vec[:] = [1.0, 0.0]
    np.testing.assert_array_equal(ev.likelihood, [0.2, 0.9])


def test_update_stores_one_vector():
    index = contract(small_tree())
    update_evidence(index, "e2", np.array([0.2, 0.9]))
    assert index.evidence["e2"] is index.tree.nodes["e2"].evidence

    engine = build_engine(build_polytree(VEE))
    polytree_update(engine, "c", np.array([0.2, 0.9]))
    leaf = engine.compiled.evidence_leaf["c"]
    assert engine.evidence["c"] is engine.index.tree.nodes[leaf].evidence
    np.testing.assert_array_equal(engine.evidence["a"], [1.0, 1.0])


def test_each_update_checks_once(monkeypatch):
    calls = []
    real = logbel.model.check_likelihood

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(logbel.model, "check_likelihood", spy)
    vec = np.array([0.2, 0.9])
    for entry in ("update_evidence", "lazy_update", "polytree_update"):
        install = installer(entry)
        calls.clear()
        install(vec)
        assert len(calls) == 1, entry
