"""Exact oracle: branch-and-bound versus naive enumeration."""

import random

import pytest

import fvsbound.oracle as oracle_module
from fvsbound.errors import InternalInvariantBroken, TooLarge
from fvsbound.graph import Graph, shortest_cycle, validate_fvs
from fvsbound.instances import disjoint_cycles, make_named, random_cubic_2connected
from fvsbound.oracle import (
    DEFAULT_NODE_BUDGET,
    cyclomatic_lower_bound,
    min_fvs_exact,
    min_fvs_naive,
)

from bruteforce import (cycle_graph, random_simple_graph, reference_cyclomatic_bound,
                        reference_min_fvs_exact)


def search_corpus():
    """420 small graphs: 400 random ones of varied density, 20 cubic ones."""
    rng = random.Random(15)
    graphs = [random_simple_graph(rng.randint(1, 13), rng, rng.choice((0.2, 0.35, 0.5)))
              for _ in range(400)]
    return graphs + [random_cubic_2connected(10, seed) for seed in range(20)]


def heawood() -> Graph:
    """The Heawood graph: 14 vertices, cubic, girth 6 (LCF notation [5, -5]^7)."""
    return Graph(range(14), [(i, (i + 1) % 14) for i in range(14)]
                 + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def mask_search_corpus():
    """Small graphs of girth 3 to 6 for an exhaustive check of the mask search."""
    named = [make_named(name).graph for name in ("cube", "k4", "k33", "prism", "petersen")]
    cubic = [random_cubic_2connected(n, seed) for n in (4, 6, 8, 10, 12) for seed in range(3)]
    rng = random.Random(21)
    sparse = [random_simple_graph(rng.randint(4, 10), rng, rng.choice((0.2, 0.3, 0.4)))
              for _ in range(30)]
    return named + [heawood()] + cubic + sparse


def check_mask_search(g: Graph, masks) -> None:
    """The oracle's cycle search on each mask against ``shortest_cycle`` of the induced graph."""
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[u] for u in g.neighbors(v)] for v in vs]
    nbr_masks = [sum(1 << u for u in ns) for ns in nbrs]
    for alive in masks:
        cycle = shortest_cycle(g.subgraph(v for i, v in enumerate(vs) if alive >> i & 1))
        expected = 0 if cycle is None else sum(1 << index[v] for v in cycle)
        assert oracle_module._shortest_cycle(nbrs, nbr_masks, alive) == expected


class TestMaskSearch:
    def test_every_mask_matches_the_graph_search(self):
        # The same first shortest cycle on every induced subgraph: forests,
        # triangles found after a 4-cycle, 4-cycles found after a 5-cycle,
        # and girth 6, where the floor never ends the search.
        for g in mask_search_corpus():
            check_mask_search(g, range(1 << g.n))

    def test_sampled_dodecahedron_masks_match_the_graph_search(self):
        # 3000 of the 2^20 masks, each with 0 to 8 of the 20 vertices gone.
        g = make_named("dodecahedron").graph
        rng = random.Random(22)
        gone = [rng.sample(range(g.n), rng.randint(0, 8)) for _ in range(3000)]
        check_mask_search(g, [(1 << g.n) - 1 - sum(1 << v for v in vs) for vs in gone])


class TestKnownValues:
    @pytest.mark.parametrize("name,phi", [
        ("cube", 3), ("dodecahedron", 6), ("k33", 2),
        ("k4", 2), ("prism", 2), ("petersen", 3),
    ])
    def test_named(self, name, phi):
        g = make_named(name).graph
        result = min_fvs_exact(g)
        assert result.phi == phi
        assert not result.node_budget_hit

    @pytest.mark.parametrize("n", [3, 5, 9, 17])
    def test_cycles_need_one(self, n):
        assert min_fvs_exact(cycle_graph(n)).phi == 1

    def test_dodecahedron_witness(self):
        assert min_fvs_exact(make_named("dodecahedron").graph).witness == {0, 1, 3, 5, 16, 17}

    def test_disjoint_cycles(self):
        g = disjoint_cycles(4, 5)
        assert min_fvs_exact(g).phi == 4

    def test_naive_examples(self):
        assert min_fvs_naive(make_named("k4").graph) == 2
        assert min_fvs_naive(make_named("prism").graph) == 2


class TestInvariants:
    def test_sum_rule_and_witness(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_simple_graph(rng.randint(1, 10), rng)
            result = min_fvs_exact(g)
            assert result.phi + result.forest_order == g.n
            assert validate_fvs(g, result.witness)
            assert len(result.witness) == result.phi

    def test_exact_matches_naive(self):
        rng = random.Random(14)
        for _ in range(200):
            g = random_simple_graph(rng.randint(1, 9), rng)
            assert min_fvs_exact(g).phi == min_fvs_naive(g)

    def test_matches_the_graph_based_search(self):
        # The search over bitmask nodes visits the nodes of the search over
        # rebuilt Graphs in the same order: same optimum, witness and budget
        # outcome, also when a budget of 7 or 3 nodes cuts it short.
        hits = set()
        named = [make_named(name).graph for name in ("petersen", "dodecahedron")]
        for g in search_corpus() + named + [heawood()]:
            for budget in (DEFAULT_NODE_BUDGET, 7, 3):
                result = min_fvs_exact(g, node_budget=budget)
                got = (result.phi, result.witness, result.node_budget_hit)
                assert got == reference_min_fvs_exact(g, budget)
                hits.add(result.node_budget_hit)
        assert hits == {True, False}

    def test_matches_the_packing_only_search(self):
        # Any admissible bound keeps the witness: the greedy set if it is
        # optimal, else the first optimal leaf in the unchanged branch order.
        # So the cyclomatic bound only saves nodes at the default budget.
        graphs = search_corpus() + [random_cubic_2connected(n, 0) for n in range(12, 29, 2)]
        for g in graphs:
            result = min_fvs_exact(g)
            got = (result.phi, result.witness, result.node_budget_hit)
            assert got == reference_min_fvs_exact(g, DEFAULT_NODE_BUDGET, cyclomatic=False)

    def test_cyclomatic_bound_is_admissible(self):
        rng = random.Random(16)
        tight = above_cubic = 0
        for _ in range(300):
            g = random_simple_graph(rng.randint(1, 12), rng, rng.choice((0.2, 0.35, 0.5, 0.7)))
            degrees = [g.degree(v) for v in g.vertices]
            bound = cyclomatic_lower_bound(degrees)
            assert bound == reference_cyclomatic_bound(g)
            phi = min_fvs_naive(g)
            assert bound <= phi
            tight += 0 < bound == phi
            above_cubic += max(degrees, default=0) > 3
        assert tight and above_cubic
        assert cyclomatic_lower_bound([]) == 0

    def test_no_state_across_calls(self):
        # The search keeps no state across calls. A full search between two
        # squeezed ones answers as if alone.
        g = make_named("dodecahedron").graph
        for budget in (3, DEFAULT_NODE_BUDGET, 3):
            result = min_fvs_exact(g, node_budget=budget)
            got = (result.phi, result.witness, result.node_budget_hit)
            assert got == reference_min_fvs_exact(g, budget)
        # So does each graph run after four disjoint triangles on the same
        # ids. A cache shared across calls would hand their packing bound, 4,
        # to a graph whose full vertex set is its own pruned root; for one
        # of these (greedy 4, optimum 3) that ends the search at the root.
        triangles = Graph(range(12), [(3 * i + a, 3 * i + b) for i in range(4)
                                      for a, b in ((0, 1), (1, 2), (0, 2))])
        rng = random.Random(5)
        for _ in range(10):
            h = random_simple_graph(12, rng, rng.choice((0.25, 0.35, 0.5)))
            min_fvs_exact(triangles)
            result = min_fvs_exact(h)
            got = (result.phi, result.witness, result.node_budget_hit)
            assert got == reference_min_fvs_exact(h, DEFAULT_NODE_BUDGET)

    def test_deterministic(self):
        g = make_named("petersen").graph
        assert min_fvs_exact(g) == min_fvs_exact(g)


class TestNodeCounts:
    """The search visits the same nodes and runs the same cycle searches at any budget."""

    # name: (nodes at the default budget, then at budgets 3, 7 and the
    # default: phi, whether the budget ran out, and the cycle searches run)
    PINNED = {
        "k4": (1, [(2, False, 3), (2, False, 3), (2, False, 3)]),
        "k33": (1, [(2, False, 3), (2, False, 3), (2, False, 3)]),
        "prism": (1, [(2, False, 3), (2, False, 3), (2, False, 3)]),
        "cube": (1, [(3, False, 4), (3, False, 4), (3, False, 4)]),
        "petersen": (1, [(3, False, 4), (3, False, 4), (3, False, 4)]),
        "dodecahedron": (31, [(7, True, 19), (7, True, 25), (6, False, 33)]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_named_cubic_instances(self, name, monkeypatch):
        g = make_named(name).graph
        nodes, rows = self.PINNED[name]
        # A search runs out of a budget of b nodes exactly when it visits more.
        assert not min_fvs_exact(g, node_budget=nodes).node_budget_hit
        assert min_fvs_exact(g, node_budget=nodes - 1).node_budget_hit
        searches = []
        search = oracle_module._shortest_cycle
        monkeypatch.setattr(oracle_module, "_shortest_cycle",
                            lambda *args: searches.append(1) or search(*args))
        got = []
        for budget in (3, 7, DEFAULT_NODE_BUDGET):
            searches.clear()
            result = min_fvs_exact(g, node_budget=budget)
            got.append((result.phi, result.node_budget_hit, len(searches)))
        assert got == rows


class TestLimits:
    def test_naive_size_cap(self):
        with pytest.raises(TooLarge):
            min_fvs_naive(Graph(range(13)))

    def test_budget_degrades_to_upper_bound(self):
        g = make_named("dodecahedron").graph
        truth = min_fvs_exact(g)
        squeezed = min_fvs_exact(g, node_budget=3)
        assert squeezed.node_budget_hit
        assert validate_fvs(g, squeezed.witness)
        assert squeezed.phi >= truth.phi

    def test_cubic_40_is_proved_at_the_root_bound(self):
        # The greedy set meets ceil((n + 2) / 4) = 11, so the cyclomatic
        # bound proves it optimal at once; the packing bound alone ran out
        # of this budget.
        result = min_fvs_exact(random_cubic_2connected(40, 1), node_budget=150_000)
        assert (result.phi, result.node_budget_hit) == (11, False)

    def test_a_bad_witness_raises(self, monkeypatch):
        # An explicit check, not an assert, so it also runs under python -O.
        monkeypatch.setattr(oracle_module, "validate_fvs", lambda g, s: False)
        with pytest.raises(InternalInvariantBroken):
            min_fvs_exact(make_named("k4").graph)

    def test_subcubic_bound_sanity(self):
        # the theorem's (n+2)/3 must hold for the oracle's optimum in class
        for seed in range(20):
            g = random_cubic_2connected(10, seed)
            assert 3 * min_fvs_exact(g).phi <= g.n + 2
