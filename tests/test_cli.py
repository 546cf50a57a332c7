import copy
import csv
import itertools
import json

import numpy as np
import pytest

from logbel import (
    LogbelError,
    brute_polytree_marginal,
    build_polytree,
    build_tree,
    contract,
    normalize_tree,
    random_polytree,
    random_tree,
    tree_to_spec,
)
from logbel.cli import ENGINES, build_parser, cmd_verify, main
from logbel.contraction import Identity, materialize
from logbel.generate import random_likelihood
from test_counts import star_tree

EYE = [[1.0, 0.0], [0.0, 1.0]]

A_COPIES_C = {"variables": [
    {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
    {"id": "c", "domain": 2, "parents": ["a"], "cpt": EYE}]}

IDENTITY_NET = {"nodes": [
    {"id": "u", "domain": 2, "parent": None, "prior": [0.5, 0.5]},
    {"id": "e", "domain": 2, "parent": "u", "cpt": EYE, "evidence": [1.0, 1.0]},
    {"id": "f", "domain": 2, "parent": "u", "cpt": EYE, "evidence": [1.0, 1.0]},
]}

VEE_NET = {"variables": [
    {"id": "a", "domain": 2, "prior": [0.4, 0.6]},
    {"id": "b", "domain": 2, "prior": [0.7, 0.3]},
    {"id": "c", "domain": 2, "parents": ["a", "b"],
     "cpt": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.05, 0.95]]},
]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_stream(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def random_net(tmp_path, n=15, seed=0):
    tree = random_tree(n, k=2, rng=np.random.default_rng(seed))
    return write_json(tmp_path, f"net{seed}.json", tree_to_spec(tree)), tree


def polytree_spec(pt):
    return {"variables": [
        {"id": v.id, "domain": v.domain, "parents": list(v.parents),
         **({"cpt": v.cpt.tolist()} if v.parents else {"prior": v.prior.tolist()})}
        for v in pt.variables.values()]}


class TestRun:
    def test_identity_pinning(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "U e 0\nQ u\n")
        assert main(["run", "--network", net, "--ops", ops]) == 0
        assert capsys.readouterr().out == "Q u 1.000000000000 0.000000000000\n"

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt",
                           "# header\n\nU e 0   # pin state zero\nQ u\n")
        assert main(["run", "--network", net, "--ops", ops]) == 0
        assert capsys.readouterr().out.startswith("Q u 1.000000000000")

    def test_strategies_agree_byte_for_byte(self, tmp_path, capsys):
        net, tree = random_net(tmp_path, n=21, seed=5)
        rng = np.random.default_rng(6)
        lines = []
        leaves = tree.leaf_order()
        ids = list(tree.nodes)
        for _ in range(15):
            leaf = leaves[int(rng.integers(len(leaves)))]
            vals = " ".join(f"{v:.6f}" for v in 0.1 + rng.random(2))
            lines.append(f"S {leaf} {vals}")
            lines.append(f"Q {ids[int(rng.integers(len(ids)))]}")
        ops = write_stream(tmp_path, "ops.txt", "\n".join(lines) + "\n")
        outputs = []
        for strategy in ("full", "lazy", "contract"):
            assert main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_polytree_run_matches_brute(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", VEE_NET)
        ops = write_stream(tmp_path, "ops.txt", "U c 1\nQ a\n")
        assert main(["run", "--network", net, "--ops", ops,
                     "--strategy", "polytree"]) == 0
        out = capsys.readouterr().out
        pt = build_polytree(VEE_NET)
        want = brute_polytree_marginal(pt, {"c": np.array([0.0, 1.0])}, "a").dist
        got = np.array([float(v) for v in out.split()[2:]])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_one_node_network(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json",
                         {"nodes": [{"id": "r", "domain": 2, "prior": [0.3, 0.7]}]})
        ops = write_stream(tmp_path, "ops.txt", "Q r\n")
        for strategy in ("full", "lazy", "contract"):
            assert main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy]) == 0
            assert capsys.readouterr().out == "Q r 0.300000000000 0.700000000000\n"
        for oracle in ("brute", "full"):
            assert main(["verify", "--network", net, "--ops", ops,
                         "--oracle", oracle]) == 0
            assert capsys.readouterr().out.startswith("PASS")

    def test_one_node_network_takes_evidence_on_its_root(self, tmp_path, capsys):
        """The lone root is a leaf, so every engine updates its evidence."""
        net = write_json(tmp_path, "net.json",
                         {"nodes": [{"id": "r", "domain": 2, "prior": [0.3, 0.7]}]})
        ops = write_stream(tmp_path, "ops.txt", "U r 0\nQ r\nS r 0.5 1\nQ r\n")
        for strategy in ("full", "lazy", "contract"):
            assert main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy]) == 0
            assert capsys.readouterr().out == ("Q r 1.000000000000 0.000000000000\n"
                                               "Q r 0.176470588235 0.823529411765\n")
        for oracle in ("brute", "full"):
            assert main(["verify", "--network", net, "--ops", ops,
                         "--oracle", oracle]) == 0
            assert capsys.readouterr().out.startswith("PASS 2 queries")

    def test_parse_failure(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "X u 1\n")
        assert main(["run", "--network", net, "--ops", ops]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_network_file(self, tmp_path, capsys):
        ops = write_stream(tmp_path, "ops.txt", "Q u\n")
        bad = write_stream(tmp_path, "net.json", "{not json")
        assert main(["run", "--network", bad, "--ops", ops]) == 1
        missing = str(tmp_path / "nope.json")
        assert main(["run", "--network", missing, "--ops", ops]) == 1

    def test_unknown_node_in_stream(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "Q ghost\n")
        assert main(["run", "--network", net, "--ops", ops]) == 1

    def test_strategy_network_mismatch(self, tmp_path, capsys):
        """Rejected before any op runs, although every id in the streams exists."""
        for net, text, strategy in ((IDENTITY_NET, "U e 0\nQ u\n", "polytree"),
                                    (VEE_NET, "U c 1\nQ a\n", "contract")):
            path = write_json(tmp_path, "net.json", net)
            ops = write_stream(tmp_path, "ops.txt", text)
            assert main(["run", "--network", path, "--ops", ops,
                         "--strategy", strategy]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: strategy {strategy!r}")

    def test_default_strategy_follows_the_network_kind(self, tmp_path, capsys):
        """contract for trees, polytree for polytrees, as verify chooses."""
        for net, text, default in ((IDENTITY_NET, "S e 0.3 1.0\nQ u\nQ f\n", "contract"),
                                   (VEE_NET, "U c 1\nQ a\nS a 0.2 1.0\nQ b\n", "polytree")):
            path = write_json(tmp_path, "net.json", net)
            ops = write_stream(tmp_path, "ops.txt", text)
            outputs = []
            for flags in ([], ["--strategy", default]):
                assert main(["run", "--network", path, "--ops", ops, *flags]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1] and outputs[0].out.count("\n") == 2

    def test_impossible_polytree_evidence_names_the_variable(self, tmp_path, capsys):
        """Not the compiled clique node C:a the tree engine reports."""
        net = write_json(tmp_path, "net.json", A_COPIES_C)
        ops = write_stream(tmp_path, "ops.txt", "U a 0\nU c 1\nQ a\n")
        for command in (["run", "--strategy", "polytree"], ["run", "--strategy", "full"],
                        ["run", "--strategy", "lazy"], ["verify"]):
            assert main([command[0], "--network", net, "--ops", ops, *command[1:]]) == 2
            assert capsys.readouterr() == (
                "", "error: total probability mass is zero at variable 'a'\n")

    def test_overflowed_polytree_belief_names_the_variable(self, tmp_path, capsys):
        """A total mass past float64's range exits 1, not 2: it is not
        impossible evidence."""
        net = write_json(tmp_path, "net.json", A_COPIES_C)
        ops = write_stream(tmp_path, "ops.txt", "S a 1e300 1e300\nS c 1e300 1e300\nQ a\n")
        with np.errstate(over="ignore", invalid="ignore"):
            for strategy in ("polytree", "full", "lazy"):
                assert main(["run", "--strategy", strategy, "--network", net, "--ops", ops]) == 1
                assert capsys.readouterr() == (
                    "", "error: total probability mass overflows float64 at variable 'a'\n")

    def test_bad_polytree_likelihood_names_the_variable(self, tmp_path, capsys):
        """Not the compiled indicator leaf E:a the tree engine checks."""
        net = write_json(tmp_path, "net.json", VEE_NET)
        ops = write_stream(tmp_path, "ops.txt", "S a 1 1 1\nQ a\n")
        for command in (["run", "--strategy", "polytree"], ["run", "--strategy", "full"],
                        ["run", "--strategy", "lazy"], ["verify"]):
            assert main([command[0], "--network", net, "--ops", ops, *command[1:]]) == 1
            assert capsys.readouterr() == (
                "", "error: evidence of 'a' has length 3, domain is 2\n")

    def test_malformed_json_is_named(self, tmp_path, capsys):
        bad = write_stream(tmp_path, "net.json", '{"nodes": [')
        ops = write_stream(tmp_path, "ops.txt", "Q u\n")
        for command in ("run", "verify"):
            assert main([command, "--network", bad, "--ops", ops]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: invalid JSON in {bad}")

    def test_polytree_strategies_agree_byte_for_byte(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", VEE_NET)
        ops = write_stream(tmp_path, "ops.txt",
                           "U c 1\nQ a\nQ b\nS a 0.2 1.0\nQ c\nQ b\nU c 0\nQ a\n")
        outputs = []
        for strategy in ("polytree", "full", "lazy"):
            assert main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") == 5
        assert outputs == [outputs[0]] * 3

    def test_ids_normalize_tree_adds_are_unknown(self, tmp_path, capsys):
        """A 3-child root gains a splitter and a 1-child node a unit leaf;
        every engine rejects their ids as the loaded network does."""
        spec = {"nodes": [
            {"id": "r", "domain": 2, "prior": [0.5, 0.5]},
            *({"id": leaf, "domain": 2, "parent": "r", "cpt": EYE, "evidence": [1.0, 1.0]}
              for leaf in "ab"),
            {"id": "c", "domain": 2, "parent": "r", "cpt": EYE},
            {"id": "d", "domain": 2, "parent": "c", "cpt": EYE, "evidence": [1.0, 1.0]}]}
        net = write_json(tmp_path, "net.json", spec)
        tree = build_tree(spec)
        normalized, _ = normalize_tree(tree)
        dummies = [nid for nid in normalized.nodes if nid not in tree.nodes]
        assert len(dummies) == 2
        for dummy in dummies:
            op = f"S {dummy} 1" if normalized.nodes[dummy].domain == 1 else f"Q {dummy}"
            ops = write_stream(tmp_path, "ops.txt", f"U a 0\n{op}\n")
            for command in (["run", "--strategy", "full"], ["run", "--strategy", "lazy"],
                            ["run", "--strategy", "contract"], ["verify"]):
                assert main([command[0], "--network", net, "--ops", ops, *command[1:]]) == 1
                assert capsys.readouterr() == ("", f"error: no node {dummy!r}\n")

    def test_impossible_evidence_exit_code(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "U e 0\nU f 1\nQ u\n")
        for strategy in ("full", "lazy", "contract"):
            code = main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy])
            capsys.readouterr()
            assert code == 2

    def test_evidence_impossible_between_queries(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "U e 0\nU f 1\nU f 0\nQ u\n")
        outs = []
        for strategy in ("full", "lazy", "contract"):
            assert main(["run", "--network", net, "--ops", ops,
                         "--strategy", strategy]) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [outs[0]] * 3 and outs[0].startswith("Q u ")
        assert main(["verify", "--network", net, "--ops", ops, "--oracle", "full"]) == 0
        assert capsys.readouterr().out.startswith("PASS")


def _malformed(net, edit):
    bad = copy.deepcopy(net)
    edit(bad)
    return bad


MALFORMED_NETWORKS = {
    "list-as-parent": _malformed(
        IDENTITY_NET, lambda n: n["nodes"][1].update(parent=["u"])),
    "list-inside-parents": _malformed(
        VEE_NET, lambda n: n["variables"][2].update(parents=[["a"], "b"])),
    "non-object-variable": _malformed(VEE_NET, lambda n: n["variables"].append(5)),
    "string-prior": _malformed(IDENTITY_NET, lambda n: n["nodes"][0].update(prior="0.5 0.5")),
    "string-table": _malformed(VEE_NET, lambda n: n["variables"][2].update(cpt="high")),
    # domain true would read as 1, and the tables fit that domain
    "boolean-domain": _malformed(IDENTITY_NET, lambda n: n["nodes"][2].update(
        domain=True, cpt=[[1.0], [1.0]], evidence=[1.0])),
    "boolean-variable-domain": _malformed(VEE_NET, lambda n: (
        n["variables"][1].update(domain=True, prior=[1.0]),
        n["variables"][2].update(cpt=[[0.9, 0.1], [0.3, 0.7]]))),
    # parent "a" moved after its child, so the child's cpt check meets it first
    "string-parent-domain": _malformed(
        VEE_NET, lambda n: n["variables"].append(n["variables"].pop(0) | {"domain": "2"})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
def test_malformed_network_is_an_error_not_a_crash(case, tmp_path, capsys):
    net = write_json(tmp_path, "net.json", MALFORMED_NETWORKS[case])
    ops = write_stream(tmp_path, "ops.txt", "Q a\n")
    for command in ("run", "verify"):
        assert main([command, "--network", net, "--ops", ops]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestVerify:
    def _stream(self, tmp_path, tree, seed=1, ops=12):
        rng = np.random.default_rng(seed)
        leaves = tree.leaf_order()
        ids = list(tree.nodes)
        lines = []
        for _ in range(ops):
            leaf = leaves[int(rng.integers(len(leaves)))]
            vals = " ".join(f"{v:.6f}" for v in 0.1 + rng.random(2))
            lines.append(f"S {leaf} {vals}")
            lines.append(f"Q {ids[int(rng.integers(len(ids)))]}")
        return write_stream(tmp_path, "verify_ops.txt", "\n".join(lines) + "\n")

    def test_tree_oracles_pass(self, tmp_path, capsys):
        net, tree = random_net(tmp_path, n=15, seed=2)
        ops = self._stream(tmp_path, tree)
        for oracle in ("brute", "full"):
            assert main(["verify", "--network", net, "--ops", ops,
                         "--oracle", oracle]) == 0
            assert capsys.readouterr().out.startswith("PASS")

    def test_polytree_oracles_pass(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", VEE_NET)
        ops = write_stream(tmp_path, "ops.txt",
                           "S c 0.3 1.0\nQ a\nU b 0\nQ c\nQ b\n")
        for oracle in ("brute", "full"):
            assert main(["verify", "--network", net, "--ops", ops,
                         "--oracle", oracle]) == 0
            assert capsys.readouterr().out.startswith("PASS")

    @staticmethod
    def _corrupt_contract(monkeypatch):
        """Make verify's tree engine bend its last stored matrix after the
        build."""
        build = ENGINES["tree"]["contract"]

        def corrupted(tree):
            index = build(tree)
            slot = index.all_slots()[-1]
            bent = materialize(slot.coeff).copy()
            bent[0, 0] += 0.25
            slot.coeff = bent
            return index

        monkeypatch.setitem(ENGINES["tree"], "contract", corrupted)

    def test_detects_injected_corruption(self, tmp_path, capsys, monkeypatch):
        net, tree = random_net(tmp_path, n=15, seed=3)
        ops = write_stream(tmp_path, "ops.txt", f"Q {tree.root}\n")
        self._corrupt_contract(monkeypatch)
        args = build_parser().parse_args(
            ["verify", "--network", net, "--ops", ops, "--oracle", "brute"])
        assert cmd_verify(args) == 3
        out = capsys.readouterr().out
        assert out.startswith("FAIL query #1")
        assert repr(tree.root) in out

    def test_corruption_within_tolerance_passes(self, tmp_path, capsys, monkeypatch):
        net, tree = random_net(tmp_path, n=15, seed=3)
        ops = write_stream(tmp_path, "ops.txt", f"Q {tree.root}\n")
        self._corrupt_contract(monkeypatch)
        args = build_parser().parse_args(
            ["verify", "--network", net, "--ops", ops,
             "--oracle", "brute", "--tol", "10.0"])
        assert cmd_verify(args) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_impossible_evidence_exit_code(self, tmp_path, capsys):
        net = write_json(tmp_path, "net.json", IDENTITY_NET)
        ops = write_stream(tmp_path, "ops.txt", "U e 0\nU f 1\nQ u\n")
        assert main(["verify", "--network", net, "--ops", ops]) == 2

    def test_polytree_evidence_impossible_between_queries(self, tmp_path, capsys):
        """Like the subject, both oracles judge the evidence at queries."""
        net = write_json(tmp_path, "net.json", A_COPIES_C)
        ops = write_stream(tmp_path, "ops.txt", "U a 0\nU c 1\nU c 0\nQ a\n")
        for oracle in ("brute", "full"):
            assert main(["verify", "--network", net, "--ops", ops,
                         "--oracle", oracle]) == 0
            assert capsys.readouterr().out.startswith("PASS")

    def test_polytree_too_large_to_enumerate(self, tmp_path, capsys):
        pt = random_polytree(70, 3, 2, np.random.default_rng(0))
        net = write_json(tmp_path, "net.json", polytree_spec(pt))
        ops = write_stream(tmp_path, "ops.txt", "S v3 0.5 1.0\nQ v0\n")
        assert main(["verify", "--network", net, "--ops", ops]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEngineRegistry:
    @pytest.mark.parametrize("kind", ["tree", "polytree"])
    def test_every_engine_answers_alike(self, kind):
        """run's strategies and verify's oracles, replaying one stream."""
        rng = np.random.default_rng(21)
        if kind == "tree":
            problem = random_tree(11, (2, 3), rng)
            domains = {nid: node.domain for nid, node in problem.nodes.items()}
            targets = problem.leaf_order()
        else:
            problem = random_polytree(9, 2, (2, 3), rng)
            domains = {vid: var.domain for vid, var in problem.variables.items()}
            targets = list(domains)
        engines = {name: make(problem) for name, make in ENGINES[kind].items()}
        assert set(engines) == ({"full", "lazy", "contract", "brute"} if kind == "tree"
                                else {"polytree", "full", "lazy", "brute"})
        ids = list(domains)
        for _ in range(12):
            target = targets[int(rng.integers(len(targets)))]
            vec = random_likelihood(domains[target], rng)
            for engine in engines.values():
                engine.update(target, vec)
            node = ids[int(rng.integers(len(ids)))]
            answers = {name: engine.query(node).dist for name, engine in engines.items()}
            for (a, got), (b, want) in itertools.combinations(answers.items(), 2):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=f"{a} vs {b}")

    @pytest.mark.parametrize("kind", ["tree", "polytree"])
    def test_unknown_ids_are_errors(self, kind):
        rng = np.random.default_rng(3)
        problem = random_tree(7, 2, rng) if kind == "tree" else random_polytree(5, 2, 2, rng)
        for make in ENGINES[kind].values():
            engine = make(problem)
            with pytest.raises(LogbelError, match="ghost"):
                engine.update("ghost", np.ones(2))
            with pytest.raises(LogbelError, match="ghost"):
                engine.query("ghost")

    def test_contract_entry_leaves_the_callers_tree_alone(self):
        tree = random_tree(7, 2, np.random.default_rng(4))  # already complete binary
        leaf = tree.leaf_order()[0]
        before = tree.nodes[leaf].evidence.copy()
        ENGINES["tree"]["contract"](tree).update(leaf, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(tree.nodes[leaf].evidence, before)

    def test_contract_entry_stores_identity_edges_as_identity(self):
        """Each splitter normalize_tree names is stored as Identity, which
        costs nothing: fewer mult-adds than the dense normalized tree, and
        the same beliefs on every original node."""
        rng = np.random.default_rng(5)
        tree = star_tree(40, rng)
        normalized, identity_ids = normalize_tree(tree)
        assert len(identity_ids) == 38
        engine = ENGINES["tree"]["contract"](tree)
        dense = contract(normalized)
        for split in identity_ids:
            rec = engine.records[normalized.nodes[split].parent][0]
            assert isinstance((rec.left if rec.left_child == split else rec.right).coeff, Identity)
        for leaf in ("c0", "c17", "c39"):
            vec = random_likelihood(2, rng)
            engine.update(leaf, vec)
            dense.update(leaf, vec)
        for node_id in tree.nodes:
            np.testing.assert_array_equal(engine.query(node_id).dist, dense.query(node_id).dist)
        assert engine.counters.scalar_mult_adds < dense.counters.scalar_mult_adds


class TestBench:
    def test_csv_format_and_summary(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        assert main(["bench", "--shape", "chain", "--n", "63", "--k", "2",
                     "--cycles", "5", "--seed", "1", "--csv", out_csv]) == 0
        summary = capsys.readouterr().out
        assert "chain n=63 k=2: per-cycle mult_adds contract/full = " in summary
        ratio = float(summary.rsplit("=", 1)[1])
        assert 0.0 < ratio < 1.0
        with open(out_csv, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["shape", "n", "k", "strategy", "op",
                          "count", "mult_adds", "equation_evals", "wall_ns"]
        assert len(rows) == 6
        by_key = {(r[3], r[4]): r for r in rows}
        for strategy in ("full", "contract"):
            assert int(by_key[(strategy, "build")][5]) == 1
            assert int(by_key[(strategy, "update")][5]) == 5
            assert int(by_key[(strategy, "query")][5]) == 5
            for op in ("build", "update", "query"):
                assert int(by_key[(strategy, op)][6]) >= 0

    def test_deterministic_modulo_wall_time(self, tmp_path, capsys):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = str(tmp_path / name)
            assert main(["bench", "--shape", "balanced", "--n", "63",
                         "--cycles", "4", "--seed", "7", "--csv", path]) == 0
            capsys.readouterr()
            with open(path, newline="") as fh:
                rows = [row[:-1] for row in csv.reader(fh)]  # drop wall_ns
            csvs.append(rows)
        assert csvs[0] == csvs[1]

    def test_multiple_sizes(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        assert main(["bench", "--shape", "random", "--n", "31,63",
                     "--cycles", "3", "--csv", out_csv]) == 0
        capsys.readouterr()
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 12
        assert {r[1] for r in rows} == {"31", "63"}

    def test_counts_are_pinned(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        assert main(["bench", "--shape", "random", "--n", "31,63",
                     "--cycles", "3", "--seed", "0", "--csv", out_csv]) == 0
        capsys.readouterr()
        with open(out_csv, newline="") as fh:
            rows = [row[3:-1] for row in csv.reader(fh)][1:]  # drop shape, n, k and wall_ns
        assert rows == BENCH_COUNTS

    def test_argument_rejections(self, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        assert main(["bench", "--n", "abc", "--csv", out_csv]) == 1
        assert main(["bench", "--n", "63", "--cycles", "0", "--csv", out_csv]) == 1
        assert main(["bench", "--n", "63", "--cycles", "1",
                     "--csv", str(tmp_path / "no_dir" / "x.csv")]) == 1
        capsys.readouterr()


# strategy, op, count, mult_adds, equation_evals for n = 31, then n = 63;
# recorded with one adapter class per engine, before the engine registry.
# contract's update and query mult-adds were re-recorded when each rake kept
# its diagonal cached (128 and 156 for n = 31, 64 and 146 for n = 63 before).
# full's rows were re-recorded when FullState stopped propagating at build
# and at each update: the one pass per cycle moved from update to query, so
# the per-cycle totals are unchanged (build was 512, 45 for n = 31 and
# 1056, 93 for n = 63; update was what query is now, and query 0, 0).
# contract's update mult-adds were re-recorded when each rake also kept its
# scaled parent cached, so a chain step entered through the z-side slot
# does not scale the parent (112 for n = 31 and 56 for n = 63 before).
# contract's query rows were re-recorded when query walks took each owner's
# message once on the side they do not descend through, instead of
# rebuilding that side's lambda at each of its versions (148, 15 for n = 31
# and 130, 14 for n = 63 before).
BENCH_COUNTS = [
    ["full", "build", "1", "0", "0"],
    ["full", "update", "3", "0", "0"],
    ["full", "query", "3", "1536", "135"],
    ["contract", "build", "1", "224", "14"],
    ["contract", "update", "3", "100", "8"],
    ["contract", "query", "3", "118", "14"],
    ["full", "build", "1", "0", "0"],
    ["full", "update", "3", "0", "0"],
    ["full", "query", "3", "3168", "279"],
    ["contract", "build", "1", "480", "30"],
    ["contract", "update", "3", "52", "4"],
    ["contract", "query", "3", "96", "11"],
]
