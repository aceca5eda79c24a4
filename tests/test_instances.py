"""Named instances, tightness families, and the two random generators."""

import hashlib
import random

import pytest

from fvsbound.errors import PreconditionViolated, UnknownInstanceName
from fvsbound.graph import Graph, bridges, girth, is_two_connected
from fvsbound.instances import (
    _K4_FACES,
    _K4_ROTATION,
    _GrowingCubicBase,
    _shuffle,
    chain,
    disjoint_cycles,
    make_named,
    random_cubic_2connected,
    random_planar_girth,
    triangle_replace,
)
from fvsbound.oracle import min_fvs_exact
from fvsbound.planar import RotationSystem, _plane_graph_of, embed, faces_of

from bruteforce import is_connected, reference_random_planar_girth


class TestNamed:
    @pytest.mark.parametrize("name", ["k4", "k33", "cube", "dodecahedron",
                                      "prism", "petersen", "c5", "c12", "chain3"])
    def test_metadata_matches(self, name):
        inst = make_named(name)
        g = inst.graph
        assert g.n == inst.expected["n"]
        assert g.m == inst.expected["m"]
        assert girth(g) == inst.expected["girth"]
        if "phi" in inst.expected and g.n <= 20:
            assert min_fvs_exact(g).phi == inst.expected["phi"]

    def test_planar_instances_carry_valid_embeddings(self):
        for name in ("k4", "cube", "dodecahedron", "prism", "c6", "chain2"):
            inst = make_named(name)
            assert inst.rotation is not None
            faces_of(inst.graph, inst.rotation)  # Euler check inside

    def test_nonplanar_instances_have_no_rotation(self):
        assert make_named("k33").rotation is None
        assert make_named("petersen").rotation is None

    def test_cube_shape(self):
        g = make_named("cube").graph
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_dodecahedron_shape(self):
        g = make_named("dodecahedron").graph
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert is_two_connected(g)

    def test_unknown_name(self):
        with pytest.raises(UnknownInstanceName):
            make_named("megagraph")
        with pytest.raises(UnknownInstanceName):
            make_named("c2")


class TestChain:
    def test_small_counts(self):
        for k in (1, 2, 3, 4, 5):
            g = chain(k)
            assert g.n == 2 * (k + 1)
            assert g.m == 4 * k + 1
            assert girth(g) == 3

    def test_forest_number_meets_caption_when_divisible(self):
        # the drawn family attains forest order 2n/3 exactly when 3 | n
        for k in (2, 5):
            g = chain(k)
            result = min_fvs_exact(g)
            assert result.forest_order == 2 * g.n // 3

    def test_forest_number_exceeds_caption_otherwise(self):
        for k in (1, 3, 4):
            g = chain(k)
            result = min_fvs_exact(g)
            assert 3 * result.forest_order > 2 * g.n


class TestTriangleReplace:
    def test_k4(self):
        h = triangle_replace(make_named("k4").graph)
        assert h.n == 12 and h.m == 18
        assert all(h.degree(v) == 3 for v in h.vertices)

    def test_prism_preserves_two_connectivity(self):
        h = triangle_replace(make_named("prism").graph)
        assert h.n == 18
        assert all(h.degree(v) == 3 for v in h.vertices)
        assert is_two_connected(h)

    def test_petersen_counts(self):
        h = triangle_replace(make_named("petersen").graph)
        assert h.n == 30 and h.m == 45

    def test_every_fvs_hits_each_triangle(self):
        base = make_named("k4").graph
        h = triangle_replace(base)
        result = min_fvs_exact(h)
        assert result.phi == base.n  # floor and bound coincide here
        corners = [frozenset({3 * i, 3 * i + 1, 3 * i + 2}) for i in range(base.n)]
        assert all(result.witness & c for c in corners)

    def test_requires_cubic(self):
        with pytest.raises(PreconditionViolated):
            triangle_replace(Graph(range(3), [(0, 1), (1, 2), (2, 0)]))


class TestDisjointCycles:
    def test_counts(self):
        g = disjoint_cycles(3, 5)
        assert g.n == 15 and g.m == 15
        assert min_fvs_exact(g).phi == 3

    def test_single_triangle(self):
        g = disjoint_cycles(1, 3)
        assert g.n == 3 and girth(g) == 3

    def test_oracle_confirms_k(self):
        for k, gl in [(2, 3), (3, 4), (4, 3)]:
            assert min_fvs_exact(disjoint_cycles(k, gl)).phi == k

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            disjoint_cycles(0, 5)
        with pytest.raises(PreconditionViolated):
            disjoint_cycles(2, 2)


class TestRandomCubic:
    def test_n4_is_k4(self):
        for seed in range(5):
            g = random_cubic_2connected(4, seed)
            assert g.n == 4 and g.m == 6

    def test_postconditions(self):
        for n, seed in [(10, 0), (30, 1), (100, 2), (60, 3)]:
            g = random_cubic_2connected(n, seed)
            assert g.n == n
            assert all(g.degree(v) == 3 for v in g.vertices)
            assert is_connected(g) and not bridges(g)

    def test_deterministic(self):
        a = random_cubic_2connected(50, 123)
        b = random_cubic_2connected(50, 123)
        assert a == b

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(PreconditionViolated):
            random_cubic_2connected(3, 0)
        with pytest.raises(PreconditionViolated):
            random_cubic_2connected(7, 0)

    def test_draws_replay_random_shuffle(self):
        # The generator's graphs stay those of ``Random.shuffle`` only while
        # ``_shuffle`` leaves the same list and the same generator state.
        for length in [*range(71), 300, 2400, 9600]:
            for seed in range(20):
                ours, theirs = random.Random(seed), random.Random(seed)
                x, y = list(range(length)), list(range(length))
                _shuffle(x, ours.getrandbits)
                theirs.shuffle(y)
                assert x == y, (length, seed)
                assert ours.getstate() == theirs.getstate(), (length, seed)


class TestRandomPlanarGirth:
    def test_girth_scales_with_subdivision(self):
        for g_target in (3, 4, 6, 7, 9):
            graph, rot = random_planar_girth(24, g_target, 11)
            assert girth(graph) >= g_target
            faces_of(graph, rot)

    def test_g3_leaves_base_unsubdivided(self):
        graph, _ = random_planar_girth(12, 3, 5)
        assert all(graph.degree(v) == 3 for v in graph.vertices)
        assert girth(graph) == 3

    def test_deterministic(self):
        a = random_planar_girth(20, 5, 7)
        b = random_planar_girth(20, 5, 7)
        assert a[0] == b[0] and a[1].order == b[1].order

    def test_two_connected(self):
        graph, _ = random_planar_girth(30, 4, 2)
        assert is_two_connected(graph)

    def test_size_lands_near_target(self):
        for target in (10, 20, 40):
            graph, _ = random_planar_girth(target, 3, 1)
            assert target - 2 <= graph.n <= target + 2

    def test_grows_from_the_embedding_of_k4(self):
        # The rotation literal is embed's rotation of K4; it walks into the
        # four triangles of the face literal, in that order.
        k4 = make_named("k4").graph
        assert embed(k4).order == _K4_ROTATION
        pg = faces_of(k4, RotationSystem(_K4_ROTATION))
        assert [face.boundary for face in pg.faces] == list(_K4_FACES)
        assert [len(face) for face in pg.faces] == [3, 3, 3, 3]

    def test_matches_the_rebuilding_reference(self):
        # Edges, rings and the weight map's order: the graph is built from
        # the weight map, so its order is part of the output.
        for g_target in (3, 4, 5, 6, 7, 9):
            for n_target in range(4, 71):
                for seed in (1, 2, 3):
                    args = (n_target, g_target, seed)
                    graph, rot = random_planar_girth(*args)
                    ref_graph, ref_rot = reference_random_planar_girth(*args)
                    assert graph.edges() == ref_graph.edges(), args
                    assert rot.order == ref_rot.order, args
                    assert list(graph.edge_weights()) == list(ref_graph.edge_weights()), args

    def test_kept_faces_match_a_fresh_walk(self):
        # On K4 and after every expansion, the face lists kept in place equal
        # the walk of the maps: the same boundaries, each starting at the same
        # dart, in the same order, so with the same ids.
        for seed in range(6):
            rng = random.Random(seed)
            base = _GrowingCubicBase()
            for step in range(41):
                if step:
                    base.expand(rng)
                pg = _plane_graph_of({v: tuple(ring) for v, ring in base.order.items()},
                                     base.weights)
                assert [list(face.boundary) for face in pg.faces] == base.faces
                assert {d: base.faces.index(face) for d, face in base.dart_face.items()} \
                    == pg.dart_face


def generator_digest(graph, rotation=None) -> str:
    """sha256 of the sorted edges, one per line, then the rotation's rings by vertex."""
    lines = [f"{u} {v}" for u, v in graph.edges()]
    if rotation is not None:
        lines += [f"{v}: " + " ".join(map(str, rotation.order[v])) for v in sorted(rotation.order)]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


class TestGeneratorPins:
    """A change to either generator fails here, not only through the solver digests."""

    @pytest.mark.parametrize("args, digest", [
        ((60, 3, 1), "355099cb0137211473b2afd3c189b4ed05defd38429921fe729eabf10b67fec7"),
        ((200, 5, 2), "17217fcc38e7c3a45977f9ab9daaf7d1c75644f49e99e9ef46d77af2f9305dce"),
        ((400, 7, 3), "2af7d3ca631b1778a45323a00793d48aae28d6ae2cfba8e9ac8f101a16da945d"),
        ((4000, 5, 1), "4fbb7a17aebe71ad6b9fa764ac00051e013b7f9cd1ae747741f9894c05d44611"),
        ((2000, 3, 4), "9c18093ceff7aec1f0e6a162c190e62dd8c4e75606d4710c22dac609a01564db"),
    ])
    def test_random_planar_girth(self, args, digest):
        assert generator_digest(*random_planar_girth(*args)) == digest

    @pytest.mark.parametrize("args, digest", [
        ((100, 1), "7f9e615cd9b61eb476bb0ada90893bd8b8084cc700aae82f66ccd51c3e6412d3"),
        ((800, 2), "30e5c5c234bd98ee61c682c6f46c9bdc0a16b9a4a33c16b17d9477d07ab5f6ee"),
        ((4, 0), "b68fb7de3d4c450107307a6d055e1d97e292335557965c26edfc710d3104e6dd"),
        ((10, 3), "5f27be367d3ec42150faba5bb11d88a6375bbf07f43204ed509dfdb2813eb2b7"),
        # CI's smoke graph, and the rung above it.
        ((3200, 1), "96e008b559eebe3c42fced6a674e429c1449ba02ef2caa5e3fada801cd8ec9f6"),
        ((12800, 1), "b40f80044b8b7fd8a9975d17b694a2c87e0f44d73c7e9edb6a0dcbea43ad941f"),
    ])
    def test_random_cubic_2connected(self, args, digest):
        assert generator_digest(random_cubic_2connected(*args)) == digest
