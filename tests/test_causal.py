import numpy as np
import pytest

from histcmi import InputError, pc_stable_skeleton, precision_recall

from dsep import enumerate_dags, make_dsep_oracle


def _skeleton_edges(directed):
    return {tuple(sorted(e)) for e in directed}


class TestOracleStructures:
    def test_chain(self):
        edges = [("X", "Z"), ("Z", "Y")]  # X -> Z -> Y
        skel = pc_stable_skeleton(["X", "Y", "Z"], make_dsep_oracle(edges, ["X", "Y", "Z"]))
        assert skel.edges == {("X", "Z"), ("Y", "Z")}
        assert skel.separating_sets[("X", "Y")] == ("Z",)

    def test_collider(self):
        edges = [("X", "Z"), ("Y", "Z")]  # X -> Z <- Y
        skel = pc_stable_skeleton(["X", "Y", "Z"], make_dsep_oracle(edges, ["X", "Y", "Z"]))
        assert skel.edges == {("X", "Z"), ("Y", "Z")}
        assert skel.separating_sets[("X", "Y")] == ()

    def test_random_five_node_dags(self):
        rng = np.random.default_rng(0)
        nodes = list("ABCDE")
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        for _ in range(25):
            k = int(rng.integers(0, 7))
            idx = rng.choice(len(pairs), size=k, replace=False)
            edges = []
            for i in idx:
                a, b = pairs[i]
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
            # orientations drawn along the node order stay acyclic only if we
            # re-sort; accept cycles by skipping them
            from dsep import _is_acyclic
            if not _is_acyclic(nodes, edges):
                continue
            skel = pc_stable_skeleton(nodes, make_dsep_oracle(edges, nodes))
            assert skel.edges == _skeleton_edges(edges)


class TestPCStableMechanics:
    def test_order_invariance(self):
        edges = [("A", "C"), ("B", "C"), ("C", "D")]
        nodes = ["A", "B", "C", "D"]
        base = pc_stable_skeleton(nodes, make_dsep_oracle(edges, nodes))
        for perm in (["D", "C", "B", "A"], ["B", "D", "A", "C"]):
            other = pc_stable_skeleton(perm, make_dsep_oracle(edges, nodes))
            assert other.edges == base.edges

    def test_max_level_zero_only_marginal_tests(self):
        edges = [("A", "B"), ("B", "C")]
        nodes = ["A", "B", "C"]
        skel = pc_stable_skeleton(nodes, make_dsep_oracle(edges, nodes), max_level=0)
        # A-C cannot be removed without conditioning on B
        assert ("A", "C") in skel.edges

    def test_negative_max_level_rejected(self):
        def ci(*args):
            raise AssertionError("no CI test may run")
        with pytest.raises(InputError, match="max_level"):
            pc_stable_skeleton(["A", "B", "C"], ci, max_level=-1)

    @pytest.mark.parametrize("max_level", [1.5, True, "2", 0.0])
    def test_max_level_that_is_not_an_integer_rejected(self, max_level):
        def ci(*args):
            raise AssertionError("no CI test may run")
        with pytest.raises(InputError, match="max_level must be an integer"):
            pc_stable_skeleton(["A", "B", "C"], ci, max_level=max_level)

    def test_numpy_integer_max_level_accepted(self):
        edges = [("A", "B"), ("B", "C")]
        nodes = ["A", "B", "C"]
        oracle = make_dsep_oracle(edges, nodes)
        assert (pc_stable_skeleton(nodes, oracle, max_level=np.int64(0)).edges
                == pc_stable_skeleton(nodes, oracle, max_level=0).edges)

    def test_needs_two_variables(self):
        with pytest.raises(InputError):
            pc_stable_skeleton(["A"], lambda *a: True)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            pc_stable_skeleton(["A", "A"], lambda *a: True)

    def test_ci_failure_propagates(self):
        def broken(_ds, a, b, cond):
            raise RuntimeError("backend failure")

        with pytest.raises(RuntimeError, match="backend failure"):
            pc_stable_skeleton(["A", "B"], broken)


class TestPrecisionRecall:
    def test_perfect(self):
        truth = {("A", "B"), ("B", "C")}
        assert precision_recall(truth, truth) == (1.0, 1.0)

    def test_partial(self):
        found = {("A", "B"), ("A", "C")}
        truth = {("A", "B"), ("B", "C")}
        prec, rec = precision_recall(found, truth)
        assert prec == 0.5 and rec == 0.5

    def test_empty_found(self):
        assert precision_recall(set(), {("A", "B")}) == (1.0, 0.0)
