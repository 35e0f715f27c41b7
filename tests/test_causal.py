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


class TestPCStableCallSequence:
    # the diamond A -> B -> D <- C <- A with D -> E
    EDGES = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "E")]
    F, T = False, True
    CALLS = [
        # level 0: every pair, all dependent
        ("A", "B", (), F), ("A", "C", (), F), ("A", "D", (), F), ("A", "E", (), F),
        ("B", "C", (), F), ("B", "D", (), F), ("B", "E", (), F), ("C", "D", (), F),
        ("C", "E", (), F), ("D", "E", (), F),
        # level 1: both sides of each edge offer the same three subsets, each
        # tested once; B-C falls on its first, (A,), and the rest are skipped
        ("A", "B", ("C",), F), ("A", "B", ("D",), F), ("A", "B", ("E",), F),
        ("A", "C", ("B",), F), ("A", "C", ("D",), F), ("A", "C", ("E",), F),
        ("A", "D", ("B",), F), ("A", "D", ("C",), F), ("A", "D", ("E",), F),
        ("A", "E", ("B",), F), ("A", "E", ("C",), F), ("A", "E", ("D",), T),
        ("B", "C", ("A",), T),
        ("B", "D", ("A",), F), ("B", "D", ("C",), F), ("B", "D", ("E",), F),
        ("B", "E", ("A",), F), ("B", "E", ("C",), F), ("B", "E", ("D",), T),
        ("C", "D", ("A",), F), ("C", "D", ("B",), F), ("C", "D", ("E",), F),
        ("C", "E", ("A",), F), ("C", "E", ("B",), F), ("C", "E", ("D",), T),
        ("D", "E", ("A",), F), ("D", "E", ("B",), F), ("D", "E", ("C",), F),
        # level 2, over the adjacencies frozen after level 1: side a has no
        # pair for B-D or C-D, so their subsets come from side b
        ("A", "B", ("C", "D"), F), ("A", "C", ("B", "D"), F), ("A", "D", ("B", "C"), T),
        ("B", "D", ("A", "C"), F), ("B", "D", ("A", "E"), F), ("B", "D", ("C", "E"), F),
        ("C", "D", ("A", "B"), F), ("C", "D", ("A", "E"), F), ("C", "D", ("B", "E"), F),
        ("D", "E", ("A", "B"), F), ("D", "E", ("A", "C"), F), ("D", "E", ("B", "C"), F),
        # level 3: no edge has a side with three other neighbours, so the search ends
    ]

    def test_ci_tests_run_in_a_fixed_order_once_each(self):
        nodes = list("ABCDE")
        oracle = make_dsep_oracle(self.EDGES, nodes)
        calls = []

        def recorder(dataset, a, b, cond):
            verdict = oracle(dataset, a, b, cond)
            calls.append((a, b, tuple(cond), verdict))
            return verdict

        skel = pc_stable_skeleton(nodes, recorder)
        assert calls == self.CALLS
        assert skel.edges == _skeleton_edges(self.EDGES)
        assert skel.separating_sets == {("A", "D"): ("B", "C"), ("A", "E"): ("D",),
                                        ("B", "C"): ("A",), ("B", "E"): ("D",),
                                        ("C", "E"): ("D",)}


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
