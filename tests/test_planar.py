"""Embeddings, face traversal, mergers, and the two degree surgeries."""

import random

import networkx as nx
import pytest

from fvsbound.errors import (
    InvalidMerger,
    InvalidRotation,
    MemberNotInGraph,
    NonPlanarRotation,
    PreconditionViolated,
    WouldCreateParallelEdge,
)
from fvsbound.girth import doubled_potential
from fvsbound.graph import (Graph, bridges, connected_components, is_forest, is_two_connected,
                            weighted_girth)
from fvsbound.instances import (chain, disjoint_cycles, make_named, named_instance_names,
                                 random_cubic_2connected, random_planar_girth)
from fvsbound.planar import (
    RotationSystem,
    apply_merger,
    embed,
    faces_of,
    find_guaranteed_merger,
    plane_subgraph,
    split_high_degree_vertex,
    suppress_degree2_vertex,
)

from bruteforce import (chorded_c6, cycle_graph, enumerate_simple_cycles, plane,
                        random_simple_graph, shallow_recursion_limit, wheel, without_edges)


def random_plane_with_bridges(rng):
    """A random plane graph with deleted edges, pendant trees, isolated
    vertices and shuffled ids, built on the rotation of a random plane graph."""
    g, rot = random_planar_girth(rng.randint(4, 30), rng.choice([3, 4, 5]), rng.randrange(10**6))
    g = without_edges(g, rng.sample(g.edges(), rng.randint(0, g.m // 2)))
    order = {v: [u for u in rot.order[v] if g.has_edge(v, u)] for v in g.vertices}
    edges = g.edges()
    for _ in range(rng.randint(0, 6)):
        v, w = rng.choice(sorted(order)), max(order) + 1
        order[v].insert(rng.randint(0, len(order[v])), w)
        order[w] = [v]
        edges.append((v, w))
    for _ in range(rng.randint(0, 2)):
        order[max(order) + 1] = []
    ids = rng.sample(range(3 * len(order)), len(order))
    label = dict(zip(sorted(order), ids))
    h = Graph(ids, [(label[u], label[v]) for u, v in edges])
    return faces_of(h, RotationSystem({label[v]: tuple(label[u] for u in ring)
                                       for v, ring in order.items()}))


def theta_graph():
    # two branch vertices joined by three length-2 paths
    return Graph(range(5), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])


class TestFacesOf:
    def test_cycle_has_two_faces(self):
        pg = plane(cycle_graph(5))
        assert sorted(len(f) for f in pg.faces) == [5, 5]

    def test_cube_six_quads(self):
        pg = plane(make_named("cube").graph)
        assert sorted(len(f) for f in pg.faces) == [4] * 6
        assert pg.graph.n - pg.graph.m + pg.face_count() == 2

    def test_k4_four_triangles(self):
        pg = plane(make_named("k4").graph)
        assert sorted(len(f) for f in pg.faces) == [3] * 4

    def test_tree_single_face(self):
        tree = Graph(range(5), [(0, 1), (0, 2), (2, 3), (2, 4)])
        pg = plane(tree)
        assert pg.face_count() == 1
        assert len(pg.faces[0]) == 2 * tree.m

    def test_lone_vertex_counts_one_face(self):
        pg = plane(Graph([7]))
        assert pg.face_count() == 1
        assert pg.faces[0].boundary == ()

    def test_rejects_foreign_rotation(self):
        g = cycle_graph(4)
        for order in ({0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (2, 0), 9: ()},  # extra vertex
                      {0: (1, 3), 1: (0, 2), 2: (1, 3)}):  # vertex 3 missing
            with pytest.raises(InvalidRotation,
                               match="^rotation vertices differ from graph vertices$"):
                faces_of(g, RotationSystem(order))

    def test_rejects_non_permutation(self):
        g = cycle_graph(3)
        for ring in ((1, 1), (1,), (2, 1, 2)):  # a repeat, a lack, both
            rot = RotationSystem({0: ring, 1: (0, 2), 2: (1, 0)})
            with pytest.raises(InvalidRotation,
                               match="^rotation at 0 is not a permutation of its neighbors$"):
                faces_of(g, rot)

    def test_rejects_nonplanar_rotation(self):
        k4 = make_named("k4").graph
        # A genus-1 rotation of K4: vertex 0's ring reordered.
        rot = RotationSystem({0: (1, 2, 3), 1: (0, 2, 3), 2: (1, 0, 3), 3: (2, 0, 1)})
        with pytest.raises(NonPlanarRotation):
            faces_of(k4, rot)

    def test_two_faces_iff_non_bridge_endpoint(self):
        rng = random.Random(11)
        seen_bridge = seen_isolated = 0
        for _ in range(300):
            pg = random_plane_with_bridges(rng)
            on_faces = {v: set() for v in pg.graph.vertices}
            for face in pg.faces:
                for v in face.boundary_vertices:
                    on_faces[v].add(face.id)
            cut = set(bridges(pg.graph))
            cyclic = {v for e in pg.graph.edges() if e not in cut for v in e}
            assert {v for v, fs in on_faces.items() if len(fs) >= 2} == cyclic
            seen_bridge += bool(cut)
            seen_isolated += any(pg.graph.degree(v) == 0 for v in pg.graph.vertices)
        assert seen_bridge > 200 and seen_isolated > 100

    def test_deterministic_face_ids(self):
        g = make_named("cube").graph
        rot = embed(g)
        a = faces_of(g, rot)
        b = faces_of(g, rot)
        assert [f.boundary for f in a.faces] == [f.boundary for f in b.faces]


class TestEmbed:
    def test_k4_embeds_with_four_faces(self):
        assert plane(make_named("k4").graph).face_count() == 4

    def test_k33_is_nonplanar(self):
        assert embed(make_named("k33").graph) is None

    def test_petersen_is_nonplanar(self):
        assert embed(make_named("petersen").graph) is None

    def test_any_tree_has_one_face(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 9)
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            assert plane(Graph(range(n), edges)).face_count() == 1

    def test_disconnected(self):
        g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pg = plane(g)
        assert pg.face_count() == g.m - g.n + 2 * 2


def networkx_embed(g):
    """``embed`` as it was before the port: networkx's left-right planarity
    test, fed sorted vertices and edges, rings read with ``neighbors_cw_order``."""
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges())
    ok, embedding = nx.check_planarity(nxg)
    if not ok:
        return None
    return RotationSystem({v: tuple(embedding.neighbors_cw_order(v)) if g.degree(v) else ()
                           for v in g.vertices})


def embedding_corpus():
    """Planar and non-planar graphs of every family the package embeds, and
    random ones: named instances, wheels, chains, disjoint cycles, random
    plane graphs (also thinned, with shuffled ids that include negatives),
    G(n, p), K5, K3,3, the Petersen graph and random cubic graphs."""
    rng = random.Random(30)
    yield from (make_named(name).graph for name in named_instance_names() if "<" not in name)
    yield from (wheel(k) for k in range(4, 41))
    yield from (chain(k) for k in range(1, 31))
    yield from (disjoint_cycles(k, g) for k in range(1, 7) for g in range(3, 8))
    for n in (8, 10, 12, 20, 40, 80, 200):
        for girth in (3, 4, 5, 7):
            for seed in range(6):
                g, _ = random_planar_girth(n, girth, seed)
                yield g
                kept = [e for e in g.edges() if rng.random() >= 0.2]
                ids = rng.sample(range(-2 * g.n, 2 * g.n), g.n)
                label = dict(zip(g.vertices, ids))
                yield Graph(ids, [(label[u], label[v]) for u, v in kept])
    for _ in range(300):
        yield random_simple_graph(rng.randint(1, 12), rng, rng.uniform(0.1, 0.6))
    yield Graph(range(5), [(a, b) for a in range(5) for b in range(a + 1, 5)])
    yield make_named("k33").graph
    yield make_named("petersen").graph
    for n in range(4, 61, 2):
        for seed in range(5):
            yield random_cubic_2connected(n, seed)


class TestEmbedIsNetworkxEmbedding:
    def test_same_rings_and_same_non_planar_graphs(self):
        planar = non_planar = 0
        for g in embedding_corpus():
            rotation, reference = embed(g), networkx_embed(g)
            if reference is None:
                assert rotation is None, g.edges()
                non_planar += 1
            else:
                assert rotation is not None and list(rotation.order.items()) == \
                    list(reference.order.items()), g.edges()
                faces_of(g, rotation)
                planar += 1
        assert planar >= 700 and non_planar >= 150
        # networkx's ConflictPair() shares its default intervals across calls;
        # the port gives each pair its own. The two agree only while networkx
        # never writes to the shared ones, which would make its rings depend
        # on the graphs it saw before.
        defaults = nx.algorithms.planarity.ConflictPair.__init__.__defaults__
        assert all(interval.empty() for interval in defaults)

    @pytest.mark.parametrize("g", [Graph(range(20000), [(i, i + 1) for i in range(19999)]),
                                   wheel(5000)], ids=["path20000", "w5000"])
    def test_deep_graphs_embed_without_recursion(self, g):
        with shallow_recursion_limit(100):
            rotation = embed(g)
            assert faces_of(g, rotation).face_count() == g.m - g.n + 2


class TestGuaranteedMerger:
    def test_chorded_c6(self):
        pg = plane(chorded_c6())
        spec = find_guaranteed_merger(pg, 4)
        assert spec is not None
        assert spec.crucial in (0, 3)  # a chord endpoint
        assert spec.removed_weight >= 4
        after = apply_merger(pg, spec)
        assert is_forest(after.graph)

    def test_cube_has_none(self):
        assert find_guaranteed_merger(plane(make_named("cube").graph), 4) is None

    def test_dodecahedron_has_none(self):
        assert find_guaranteed_merger(plane(make_named("dodecahedron").graph), 5) is None

    def test_theta_merger_empties_graph(self):
        pg = plane(theta_graph())
        spec = find_guaranteed_merger(pg, 4)
        assert spec is not None
        after = apply_merger(pg, spec)
        assert after.graph.n == 0 and is_forest(after.graph)

    def test_requires_two_connected(self):
        with pytest.raises(PreconditionViolated):
            find_guaranteed_merger(plane(Graph(range(3), [(0, 1), (1, 2)])), 3)

    def test_requires_non_cycle(self):
        with pytest.raises(PreconditionViolated):
            find_guaranteed_merger(plane(cycle_graph(5)), 3)

    def test_connected_merger_drops_two_faces(self):
        # 2x4 grid ladder: mergers leave the graph connected for a while
        g = Graph(range(8), [(i, i + 1) for i in range(3)]
                  + [(i + 4, i + 5) for i in range(3)]
                  + [(i, i + 4) for i in range(4)])
        pg = plane(g)
        spec = find_guaranteed_merger(pg, 4)
        assert spec is not None
        after = apply_merger(pg, spec)
        if after.graph.n and len(after.faces) > 1:
            assert after.face_count() == pg.face_count() - 2


class TestApplyMergerValidation:
    def test_rejects_wrong_removed_edges(self):
        pg = plane(chorded_c6())
        spec = find_guaranteed_merger(pg, 4)
        bad = type(spec)(f0=spec.f0, f1=spec.f1, f2=spec.f2,
                         crucial=spec.crucial,
                         removed_edges=frozenset([(0, 1)]),
                         removed_weight=1)
        with pytest.raises(InvalidMerger):
            apply_merger(pg, bad)

    def test_rejects_duplicate_faces(self):
        pg = plane(chorded_c6())
        spec = find_guaranteed_merger(pg, 4)
        bad = type(spec)(f0=spec.f1, f1=spec.f1, f2=spec.f2,
                         crucial=spec.crucial,
                         removed_edges=spec.removed_edges,
                         removed_weight=spec.removed_weight)
        with pytest.raises(InvalidMerger):
            apply_merger(pg, bad)

    def test_rejects_crucial_off_boundary(self):
        # ladder: face triples exist whose shared vertex is constrained
        g = Graph(range(8), [(i, i + 1) for i in range(3)]
                  + [(i + 4, i + 5) for i in range(3)]
                  + [(i, i + 4) for i in range(4)])
        pg = plane(g)
        spec = find_guaranteed_merger(pg, 4)
        outside = next(v for v in g.vertices
                       if v not in pg.faces[spec.f1].boundary_vertices)
        bad = type(spec)(f0=spec.f0, f1=spec.f1, f2=spec.f2,
                         crucial=outside,
                         removed_edges=spec.removed_edges,
                         removed_weight=spec.removed_weight)
        with pytest.raises(InvalidMerger):
            apply_merger(pg, bad)


class TestMergerCycleProperty:
    def test_cycles_through_removed_edges_contain_crucial(self):
        # Lemma-level check by exhaustive cycle enumeration.
        instances = [chorded_c6(), theta_graph(),
                     Graph(range(8), [(i, i + 1) for i in range(3)]
                           + [(i + 4, i + 5) for i in range(3)]
                           + [(i, i + 4) for i in range(4)])]
        checked = 0
        for g in instances:
            pg = plane(g)
            spec = find_guaranteed_merger(pg, 3)
            assert spec is not None
            for cycle in enumerate_simple_cycles(g):
                edges = {tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                         for i in range(len(cycle))}
                if edges & spec.removed_edges:
                    checked += 1
                    assert spec.crucial in cycle
        assert checked > 0

    def test_merger_never_lowers_weighted_girth(self):
        rng = random.Random(23)
        for seed in range(10):
            g, rot = random_planar_girth(12, 3, seed)
            weighted = Graph(g.vertices,
                             [(u, v, rng.randint(1, 4)) for u, v in g.edges()])
            pg = faces_of(weighted, rot)
            before = weighted_girth(weighted)
            spec = find_guaranteed_merger(pg, 3)
            if spec is None:
                continue
            after = apply_merger(pg, spec)
            if after.graph.m:
                assert weighted_girth(after.graph) >= before


class TestSplit:
    def test_wheel_hub(self):
        w5 = wheel(5)
        pg = plane(w5)
        out, (w, w_prime, v) = split_high_degree_vertex(pg, 5)
        assert v == 5
        assert out.graph.degree(w) == 3
        assert out.graph.degree(w_prime) == 4
        assert out.graph.m == w5.m + 1
        assert out.graph.total_weight() == w5.total_weight()
        assert out.graph.weight(w, w_prime) == 0

    def test_potential_drops_by_one_doubled_unit(self):
        for k in (4, 5, 6, 7):
            g = wheel(k)
            pg = plane(g)
            out, _ = split_high_degree_vertex(pg, k)
            assert doubled_potential(out.graph) == doubled_potential(g) - 1

    def test_split_keeps_rotation_consecutive_pair(self):
        g = wheel(6)
        pg = plane(g)
        ring = pg.rotation.order[6]
        out, (w, w_prime, _) = split_high_degree_vertex(pg, 6)
        u0 = min(ring)
        u1 = ring[(ring.index(u0) + 1) % len(ring)]
        assert set(out.graph.neighbors(w)) == {u0, u1, w_prime}

    def test_cycle_weights_survive(self):
        g = Graph(wheel(5).vertices,
                  [(u, v, 1 + (u + v) % 3) for u, v in wheel(5).edges()])
        pg = plane(g)
        out, _ = split_high_degree_vertex(pg, 5)
        assert weighted_girth(out.graph) >= weighted_girth(g)

    def test_contracting_the_new_edge_restores_the_graph(self):
        g = wheel(6)
        pg = plane(g)
        out, (w, w_prime, v) = split_high_degree_vertex(pg, 6)
        merged_edges = []
        for a, b in out.graph.edges():
            if (a, b) == tuple(sorted((w, w_prime))):
                continue
            a2 = v if a in (w, w_prime) else a
            b2 = v if b in (w, w_prime) else b
            merged_edges.append((a2, b2))
        restored = Graph((v if x in (w, w_prime) else x for x in out.graph.vertices),
                         merged_edges)
        assert restored == g

    def test_requires_degree_four(self):
        with pytest.raises(PreconditionViolated):
            split_high_degree_vertex(plane(make_named("cube").graph), 0)


class TestSuppress:
    def test_c4_becomes_weighted_triangle(self):
        c4 = cycle_graph(4)
        pg = plane(c4)
        out = suppress_degree2_vertex(pg, 1)
        assert sorted(out.graph.vertices) == [0, 2, 3]
        assert out.graph.weight(0, 2) == 2
        assert weighted_girth(out.graph) == 4

    def test_potential_drops_by_one_doubled_unit(self):
        c5 = cycle_graph(5)
        pg = plane(c5)
        out = suppress_degree2_vertex(pg, 0)
        assert doubled_potential(out.graph) == doubled_potential(c5) - 1

    def test_adjacent_neighbors_rejected(self):
        tri = cycle_graph(3)
        with pytest.raises(WouldCreateParallelEdge):
            suppress_degree2_vertex(plane(tri), 0)

    def test_requires_degree_two(self):
        with pytest.raises(PreconditionViolated):
            suppress_degree2_vertex(plane(make_named("cube").graph), 0)


def filtered_faces(pg, g):
    """``faces_of`` on g with pg's rotation cut down to g's edges."""
    return faces_of(g, RotationSystem({v: tuple(u for u in pg.rotation.order[v]
                                                if g.has_edge(v, u)) for v in g.vertices}))


def assert_same_plane_graph(got, want):
    assert got.graph == want.graph
    assert got.rotation.order == want.rotation.order
    assert [(f.id, f.boundary) for f in got.faces] == [(f.id, f.boundary) for f in want.faces]


def assert_walk_answers(pg):
    """The walk's dart map names each dart's face, and m - n + 2 faces means
    connected; returns whether the graph is connected."""
    g = pg.graph
    assert pg.dart_face == {d: f.id for f in pg.faces for d in f.boundary}
    connected = len(connected_components(g)) == 1
    assert (pg.face_count() == g.m - g.n + 2) == connected
    return connected


class TestPlaneSubgraph:
    def test_matches_faces_of_on_the_derived_graph(self):
        # plane_subgraph and apply_merger build from a rotation dict and a
        # weight map; the reference derives each result the long way, with a
        # Graph method, a filtered rotation and a fresh faces_of. Mergers are
        # searched on the 2-connected blocks, reached by keep sets too.
        # Every plane graph met also checks the walk's dart map and the
        # Euler connectivity count, forests and isolated vertices included.
        rng = random.Random(31)
        mergers = forests = 0
        connectivity = set()
        for _ in range(200):
            pg = random_plane_with_bridges(rng)
            g = Graph(pg.graph.vertices,
                      [(u, v, rng.randint(1, 4)) for u, v in pg.graph.edges()])
            pg = faces_of(g, pg.rotation)
            connectivity.add(assert_walk_answers(pg))
            forests += g.m > 0 and is_forest(g)
            keeps = [rng.sample(g.vertices, rng.randint(0, g.n)) for _ in range(3)]
            nxg = nx.Graph(g.edges())
            keeps += [block for block in nx.biconnected_components(nxg) if len(block) >= 3]
            for keep in keeps:
                sub = plane_subgraph(pg, keep)
                assert_same_plane_graph(sub, filtered_faces(pg, g.subgraph(keep)))
                connectivity.add(assert_walk_answers(sub))
                forests += sub.graph.m > 0 and is_forest(sub.graph)
                # Merge while the result stays 2-connected and not a cycle.
                while is_two_connected(sub.graph) and sub.graph.max_degree() >= 3:
                    spec = find_guaranteed_merger(sub, 3)
                    if spec is None:
                        break
                    stripped = without_edges(sub.graph, spec.removed_edges)
                    rest = stripped.without_vertices(
                        [v for v in stripped.vertices if stripped.degree(v) == 0])
                    merged = apply_merger(sub, spec)
                    assert_same_plane_graph(merged, filtered_faces(sub, rest))
                    connectivity.add(assert_walk_answers(merged))
                    sub = merged
                    mergers += 1
        assert mergers > 40
        assert connectivity == {True, False} and forests > 100

    def test_missing_vertex_rejected(self):
        pg = plane(make_named("cube").graph)
        with pytest.raises(MemberNotInGraph):
            plane_subgraph(pg, [0, 1, 8])

    def test_restriction_stays_plane(self):
        g = make_named("cube").graph
        pg = plane(g)
        sub = plane_subgraph(pg, [0, 1, 2, 3, 4, 5])
        assert set(sub.graph.vertices) == set(range(6))
        assert sub.graph.n - sub.graph.m + sub.face_count() == 2

    def test_surgeries_survive_rederivation(self):
        # after each surgery, re-deriving faces from the rotation passes Euler
        for seed in range(5):
            g, rot = random_planar_girth(14, 4, seed)
            pg = faces_of(g, rot)
            spec = find_guaranteed_merger(pg, 4)
            if spec is not None:
                after = apply_merger(pg, spec)
                faces_of(after.graph, after.rotation)
            deg2 = [v for v in pg.graph.vertices if pg.graph.degree(v) == 2]
            target = [v for v in deg2
                      if not pg.graph.has_edge(*pg.graph.neighbors(v))]
            if target:
                after = suppress_degree2_vertex(pg, target[0])
                faces_of(after.graph, after.rotation)
