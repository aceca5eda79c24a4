"""Graph core: forests, girth, connectivity, small cuts."""

import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvsbound.errors import MemberNotInGraph, PreconditionViolated
from fvsbound.graph import (
    INFINITE,
    Graph,
    _two_edge_cuts,
    bridges,
    connectivity_le3,
    cut_vertices,
    edge_key,
    girth,
    has_two_edge_cut,
    is_forest,
    is_two_connected,
    min_side_two_edge_cut,
    peel_degree_le1,
    shortest_cycle,
    validate_fvs,
    weighted_girth,
)
from fvsbound.instances import make_named

from bruteforce import (
    _components as brute_components,
    all_two_edge_cuts,
    cycle_graph,
    edge_connectivity_le3_bruteforce,
    girth_by_enumeration,
    is_connected,
    random_max_deg3_graph,
    random_simple_graph,
    reference_validate_fvs,
    reference_weighted_girth,
    shifted,
    vertex_connectivity_le3_bruteforce,
    weighted_girth_by_enumeration,
    wheel,
    without_edges,
)


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


K4 = make_named("k4").graph
CUBE = make_named("cube").graph
DODECA = make_named("dodecahedron").graph
PRISM = make_named("prism").graph


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph([0], [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 1, -1)])

    def test_zero_weight_is_legal(self):
        g = Graph([0, 1], [(0, 1, 0)])
        assert g.weight(0, 1) == 0

    def test_endpoints_join_vertex_set(self):
        g = Graph([5], [(0, 1)])
        assert g.vertices == (0, 1, 5)

    def test_subgraph_keeps_exactly_the_induced_edges(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(0, 14)
            ids = rng.sample(range(100), n)
            pairs = [(u, v) for u, v in combinations(ids, 2) if rng.random() < 0.3]
            g = Graph(ids, [(u, v, rng.randint(0, 5)) for u, v in pairs])
            keep = rng.sample(ids, rng.randint(0, n))
            induced = [(u, v, g.weight(u, v)) for u, v in g.edges()
                       if u in keep and v in keep]
            assert g.subgraph(keep) == Graph(keep, induced)
        with pytest.raises(MemberNotInGraph):
            cycle_graph(4).subgraph([0, 7])


class TestForestAndFvs:
    def test_empty_graph_is_forest(self):
        assert is_forest(Graph())

    def test_k4_is_not_forest(self):
        assert not is_forest(K4)

    def test_path_is_forest(self):
        assert is_forest(path_graph(5))

    def test_k4_two_vertices_suffice(self):
        assert validate_fvs(K4, {0, 1})

    def test_k4_one_vertex_leaves_triangle(self):
        assert not validate_fvs(K4, {0})

    def test_forest_needs_nothing(self):
        assert validate_fvs(path_graph(4), set())

    def test_raises_on_foreign_vertices(self):
        with pytest.raises(MemberNotInGraph):
            validate_fvs(K4, {99})

    def test_removing_everything_always_works(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_simple_graph(rng.randint(1, 8), rng)
            assert validate_fvs(g, set(g.vertices))

    def test_matches_the_rebuilt_graph_check(self):
        # One union-find pass that skips s answers as g - s rebuilt does,
        # and a set that leaves V(G) raises in both.
        rng = random.Random(17)
        outcomes = set()
        for _ in range(400):
            g = random_simple_graph(rng.randint(0, 12), rng, rng.choice((0.2, 0.35, 0.5)))
            pool = list(g.vertices) + [-1, 50]
            s = set(rng.sample(pool, rng.randint(0, len(pool))))
            try:
                expected = reference_validate_fvs(g, s)
            except MemberNotInGraph:
                expected = MemberNotInGraph
                with pytest.raises(MemberNotInGraph):
                    validate_fvs(g, s)
            else:
                assert validate_fvs(g, s) == expected
            outcomes.add(expected)
        assert outcomes == {True, False, MemberNotInGraph}


class TestGirth:
    def test_k4(self):
        assert girth(K4) == 3

    def test_cube(self):
        assert girth(CUBE) == 4
        assert girth_by_enumeration(CUBE) == 4

    def test_dodecahedron(self):
        assert girth(DODECA) == 5

    def test_forest_infinite(self):
        assert girth(path_graph(6)) == float("inf")

    def test_matches_enumeration_randomized(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_simple_graph(rng.randint(1, 8), rng)
            assert girth(g) == girth_by_enumeration(g)
            # ids up to -1: no id may double as the BFS root's parent mark
            assert girth(shifted(g)[0]) == girth(g)

    def test_shortest_cycle_is_shortest(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_simple_graph(rng.randint(1, 8), rng)
            cyc = shortest_cycle(g)
            expected = girth_by_enumeration(g)
            if expected == float("inf"):
                assert cyc is None
            else:
                assert cyc is not None and len(cyc) == expected
                for i, v in enumerate(cyc):
                    assert g.has_edge(v, cyc[(i + 1) % len(cyc)])
            assert girth(g) == (float("inf") if cyc is None else len(cyc))
            moved = shortest_cycle(shifted(g)[0])
            assert (moved is None) == (cyc is None)
            assert moved is None or len(moved) == len(cyc)


class TestWeightedGirth:
    def test_c5_unit(self):
        assert weighted_girth(cycle_graph(5)) == 5

    def test_c4_mixed_weights(self):
        g = Graph(range(4), [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        assert weighted_girth(g) == 10

    def test_cube_unit_matches_girth(self):
        assert weighted_girth(CUBE) == girth(CUBE) == 4

    def test_zero_weight_cycle(self):
        g = Graph(range(3), [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        assert weighted_girth(g) == 0

    def test_matches_enumeration_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            base = random_simple_graph(n, rng)
            g = Graph(base.vertices,
                      [(u, v, rng.randint(0, 5)) for u, v in base.edges()])
            assert weighted_girth(g) == weighted_girth_by_enumeration(g)

    def test_bounded_search_matches_enumeration_below_the_bound(self):
        # The exact minimum when some cycle is lighter than the bound, else
        # the bound itself.
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 7)
            base = random_simple_graph(n, rng)
            g = Graph(base.vertices,
                      [(u, v, rng.randint(0, 5)) for u, v in base.edges()])
            exact = weighted_girth_by_enumeration(g)
            h, _ = shifted(g)  # the root rule and the scan's stop compare ids
            for below in (0, 1, 3, 6, 10, INFINITE):
                assert weighted_girth(g, below=below) == min(exact, below)
                assert weighted_girth(h, below=below) == min(exact, below)

    def test_matches_the_per_edge_search(self):
        # One Dijkstra per root agrees with one per edge, zero weights,
        # every bound and ids up to -1 included. Half the graphs are cycles
        # with paths and stars hung on them, where only some roots have the
        # two larger neighbors that a cycle's least vertex needs.
        rng = random.Random(19)
        skipping = 0
        for trial in range(400):
            if trial % 2:
                base = cycle_with_hangers(rng)
            else:
                base = random_simple_graph(rng.randint(1, 14), rng,
                                           rng.choice((0.12, 0.2, 0.3, 0.5)))
            g = Graph(base.vertices,
                      [(u, v, rng.choice((0, 1, 2, 5))) for u, v in base.edges()])
            h, _ = shifted(g)
            for below in (0, 1, 3, 7, INFINITE):
                expected = reference_weighted_girth(g, below)
                assert weighted_girth(g, below=below) == expected
                assert weighted_girth(h, below=below) == expected
            roots = sum(sum(u > v for u in g.neighbors(v)) >= 2 for v in g.vertices)
            if trial % 2 and 0 < roots < g.n - 2:
                skipping += 1
        assert skipping >= 150


def cycle_with_hangers(rng: random.Random) -> Graph:
    """A cycle of 3 to 6 vertices, with paths, stars and maybe a chord hung on it.

    At most 14 vertices, ids shuffled. The hung vertices lie on no cycle, so
    many roots cannot start one, whichever of their neighbors are larger.
    """
    k = rng.randint(3, 6)
    edges = [(i, (i + 1) % k) for i in range(k)]
    n = k
    while n < 14 and rng.random() < 0.85:
        at = rng.randrange(n)
        if rng.random() < 0.5:  # a path
            for _ in range(rng.randint(1, min(3, 14 - n))):
                edges.append((at, n))
                at, n = n, n + 1
        else:  # a star: a centre and up to three leaves
            edges.append((at, n))
            centre, n = n, n + 1
            for _ in range(min(rng.randint(1, 3), 14 - n)):
                edges.append((centre, n))
                n += 1
    if rng.random() < 0.3:
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    ids = rng.sample(range(n), n)
    return Graph(range(n), [(ids[u], ids[v]) for u, v in edges])


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pool = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    weights = draw(st.lists(st.integers(0, 6),
                            min_size=len(chosen), max_size=len(chosen)))
    return Graph(range(n), [(u, v, w) for (u, v), w in zip(chosen, weights)])


class TestWeightedGirthProperties:
    @given(weighted_graphs())
    @settings(max_examples=150, deadline=None)
    def test_unit_weights_reduce_to_girth(self, g):
        unit = Graph(g.vertices, [(u, v, 1) for u, v in g.edges()])
        assert weighted_girth(unit) == girth(unit)

    @given(weighted_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_decreasing_a_weight_never_raises_it(self, g, rnd):
        if not g.m:
            return
        u, v = rnd.choice(g.edges())
        w = g.weight(u, v)
        lowered = Graph(g.vertices,
                        [(a, b, (g.weight(a, b) if (a, b) != (u, v) else max(0, w - 1)))
                         for a, b in g.edges()])
        assert weighted_girth(lowered) <= weighted_girth(g)

    @given(weighted_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_deleting_an_edge_never_lowers_it(self, g, rnd):
        if not g.m:
            return
        e = rnd.choice(g.edges())
        assert weighted_girth(without_edges(g, [e])) >= weighted_girth(g)


class TestConnectivity:
    @pytest.mark.parametrize("builder,expected", [
        (lambda: path_graph(3), (1, 1)),
        (lambda: cycle_graph(5), (2, 2)),
        (lambda: CUBE, (3, 3)),
        (lambda: K4, (3, 3)),
        (lambda: Graph([0]), (0, 0)),
        (lambda: Graph([0, 1], [(0, 1)]), (1, 1)),
        (lambda: cycle_graph(3), (2, 2)),
        (lambda: Graph(range(4), [(0, 1), (2, 3)]), (0, 0)),
    ])
    def test_known_values(self, builder, expected):
        assert connectivity_le3(builder()) == expected

    def test_cut_vertices_bowtie(self):
        bowtie = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert cut_vertices(bowtie) == [2]

    def test_cut_vertices_cube(self):
        assert cut_vertices(CUBE) == []

    def test_cut_vertices_path(self):
        assert cut_vertices(path_graph(3)) == [1]

    def test_lowpoint_queries_match_networkx(self):
        rng = random.Random(8)
        disconnected = isolated = 0
        for _ in range(300):
            g = random_simple_graph(rng.randint(1, 14), rng, rng.choice((0.1, 0.2, 0.35)))
            nxg = nx.Graph()
            nxg.add_nodes_from(g.vertices)
            nxg.add_edges_from(g.edges())
            assert cut_vertices(g) == sorted(nx.articulation_points(nxg))
            assert bridges(g) == sorted(edge_key(u, v) for u, v in nx.bridges(nxg))
            assert is_two_connected(g) == (g.n >= 3 and nx.is_biconnected(nxg))
            # Moving every id so that the largest is -1 moves each answer alike.
            h, d = shifted(g)
            assert cut_vertices(h) == [v + d for v in cut_vertices(g)]
            assert bridges(h) == [(u + d, v + d) for u, v in bridges(g)]
            assert is_two_connected(h) == is_two_connected(g)
            disconnected += not nx.is_connected(nxg)
            isolated += any(g.degree(v) == 0 for v in g.vertices)
        assert disconnected >= 50 and isolated >= 50

    def test_matches_bruteforce_randomized(self):
        rng = random.Random(5)
        for _ in range(250):
            g = random_max_deg3_graph(rng.randint(1, 9), rng)
            vc, ec = connectivity_le3(g)
            assert vc == vertex_connectivity_le3_bruteforce(g)
            assert ec == edge_connectivity_le3_bruteforce(g)
            assert connectivity_le3(shifted(g)[0]) == (vc, ec)

    def test_matches_bruteforce_above_degree_3(self):
        # Above degree 3 the vertex connectivity comes from one lowpoint DFS
        # per skipped vertex: wheels, dense random graphs, and 2-connected
        # graphs glued at two vertices, so that a separation pair exists.
        rng = random.Random(9)
        graphs = [wheel(k) for k in range(4, 41)]
        while len(graphs) < 37 + 100:
            g = random_simple_graph(rng.randint(5, 11), rng, rng.choice((0.3, 0.45, 0.6)))
            if g.max_degree() >= 4:
                graphs.append(g)
        parts = [wheel(4), wheel(6), K4, PRISM, CUBE, cycle_graph(5)]
        glued = [glued_at_pair(rng.choice(parts), rng.choice(parts), rng) for _ in range(40)]
        seen = Counter()
        for g in graphs + glued:
            vc, ec = connectivity_le3(g)
            assert vc == vertex_connectivity_le3_bruteforce(g)
            if g.n <= 12:
                assert ec == edge_connectivity_le3_bruteforce(g)
            assert connectivity_le3(shifted(g)[0]) == (vc, ec)
            seen[vc] += 1
        assert all(connectivity_le3(g)[0] == 2 for g in glued)
        assert seen[2] >= 60 and seen[3] >= 60

    def test_equivalence_max_degree3(self):
        # vertex and edge connectivity coincide up to 3 at max degree 3
        rng = random.Random(6)
        for _ in range(250):
            g = random_max_deg3_graph(rng.randint(1, 10), rng)
            vc, ec = connectivity_le3(g)
            assert vc == ec


def glued_at_pair(g1: Graph, g2: Graph, rng: random.Random) -> Graph:
    """g1 and g2, each on ids 0..n-1, with two vertices of g2 identified with
    two of g1, then every id permuted at random: the two shared vertices
    separate the rest."""
    a, b = rng.sample(g1.vertices, 2)
    c, d = rng.sample(g2.vertices, 2)
    to = {v: g1.n + i for i, v in enumerate(v for v in g2.vertices if v not in (c, d))}
    to[c], to[d] = a, b
    keys = set(g1.edges()) | {edge_key(to[u], to[v]) for u, v in g2.edges()}
    n = g1.n + g2.n - 2
    perm = rng.sample(range(n), n)
    return Graph(perm, [(perm[u], perm[v]) for u, v in keys])


def bridgeless_simple_graphs(rng, count):
    """Connected bridgeless graphs with n <= 10 and no degree cap."""
    graphs = []
    while len(graphs) < count:
        g = random_simple_graph(rng.randint(3, 10), rng, rng.choice((0.3, 0.45, 0.6)))
        if is_connected(g) and not bridges(g):
            graphs.append(g)
    return graphs


class TestTwoEdgeCuts:
    def test_prism_is_three_edge_connected(self):
        assert min_side_two_edge_cut(PRISM) is None
        assert not has_two_edge_cut(PRISM)

    def test_cube_is_three_edge_connected(self):
        assert min_side_two_edge_cut(CUBE) is None

    def test_c6_min_side_is_one(self):
        cut = min_side_two_edge_cut(cycle_graph(6))
        assert cut is not None
        small, big = cut.sides
        assert len(small) == 1
        # smallest side wins ties lexicographically: vertex 0's two edges
        assert small == frozenset({0})
        assert cut.members == frozenset({(0, 1), (0, 5)})

    def test_joined_squares(self):
        # Two 4-cycles joined by two vertex-disjoint edges. The joining pair
        # is a 2-edge cut with sides of size 4, but the minimum smaller side
        # is a single degree-2 vertex, as in the C6 case.
        g = Graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 0),
                             (4, 5), (5, 6), (6, 7), (7, 4),
                             (0, 4), (2, 6)])
        cuts = all_two_edge_cuts(g)
        joining = frozenset({(0, 4), (2, 6)})
        sides = dict(cuts)[joining]
        assert {len(sides[0]), len(sides[1])} == {4}
        best = min_side_two_edge_cut(g)
        assert best is not None
        assert len(best.sides[0]) == 1
        assert best.sides[0] == frozenset({1})

    def test_requires_two_edge_connected(self):
        # In the bridged graph a DFS from 0 meets tree edges covered by a
        # single back edge before it reaches the bridge (2, 3). Shifted, the
        # pendant hangs off the root as vertex -1.
        bridged = Graph(range(6), [(0, 1), (1, 2), (2, 0), (2, 3),
                                   (3, 4), (4, 5), (5, 3)])
        pendant = Graph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3)])
        split = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        for g, message in ((path_graph(4), "bridge found"), (bridged, "bridge found"),
                           (pendant, "bridge found"), (split, "must be connected")):
            for h in (g, shifted(g)[0]):
                with pytest.raises(PreconditionViolated, match=message):
                    has_two_edge_cut(h)
                with pytest.raises(PreconditionViolated, match=message):
                    min_side_two_edge_cut(h)

    def test_existence_matches_bruteforce(self):
        rng = random.Random(17)
        graphs = []
        while len(graphs) < 150:
            g = random_max_deg3_graph(rng.randint(4, 10), rng)
            vc, ec = connectivity_le3(g)
            if ec >= 2:
                graphs.append(g)
        graphs += bridgeless_simple_graphs(random.Random(27), 100)
        for g in graphs:
            cuts = all_two_edge_cuts(g)
            assert has_two_edge_cut(g) == bool(cuts)
            assert has_two_edge_cut(shifted(g)[0]) == bool(cuts)
            # Every cut the labelling yields, and no other, with its sides.
            assert ({(frozenset(pair), tuple(map(frozenset, sides)))
                     for pair, sides in _two_edge_cuts(g)}
                    == {(pair, tuple(map(frozenset, sides))) for pair, sides in cuts})

    def test_min_side_matches_bruteforce(self):
        rng = random.Random(18)
        graphs = [cycle_graph(n) for n in range(3, 10)]
        while len(graphs) < 7 + 400:
            g = random_max_deg3_graph(rng.randint(4, 12), rng)
            if is_connected(g) and not bridges(g):
                graphs.append(g)
        graphs += bridgeless_simple_graphs(random.Random(28), 100)
        with_cut = tied = 0
        for g in graphs:
            cut = min_side_two_edge_cut(g)
            h, d = shifted(g)
            moved = min_side_two_edge_cut(h)
            if cut is None:
                assert moved is None
            else:
                assert moved.members == frozenset((u + d, v + d) for u, v in cut.members)
                assert moved.sides == tuple(frozenset(v + d for v in side) for side in cut.sides)
            keyed = []
            for pair, sides in all_two_edge_cuts(g):
                small, big = sorted(sides, key=lambda c: (len(c), sorted(c)))
                keyed.append(((len(small), sorted(small), sorted(pair)), pair, small, big))
            if not keyed:
                assert cut is None
                continue
            with_cut += 1
            (size, _, _), pair, small, big = min(keyed, key=lambda k: k[0])
            tied += sum(k[0][0] == size for k in keyed) > 1
            assert cut.members == pair
            assert cut.sides == (frozenset(small), frozenset(big))
            # the reported members really disconnect into the reported sides
            rest = without_edges(g, cut.members)
            comps = sorted(sorted(c) for c in brute_components(rest))
            assert sorted(map(sorted, cut.sides)) == comps
        assert with_cut >= 300 and tied >= 200


class TestPeel:
    def test_matches_networkx_two_core(self):
        rng = random.Random(19)
        forests = isolated = 0
        for _ in range(300):
            g = random_simple_graph(rng.randint(1, 14), rng, rng.choice((0.05, 0.15, 0.3)))
            nxg = nx.Graph()
            nxg.add_nodes_from(g.vertices)
            nxg.add_edges_from(g.edges())
            assert peel_degree_le1(g) == set(nxg) - set(nx.k_core(nxg, 2))
            forests += is_forest(g)
            isolated += any(g.degree(v) == 0 for v in g.vertices)
        assert forests >= 50 and isolated >= 50


class TestTwoConnected:
    def test_examples(self):
        assert is_two_connected(K4)
        assert is_two_connected(cycle_graph(3))
        assert not is_two_connected(path_graph(3))
        assert not is_two_connected(Graph([0, 1], [(0, 1)]))
