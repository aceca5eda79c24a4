"""Weighted planar solver: rule cascade, bound certificates, baseline."""

import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from fvsbound.certificate import ReductionStep
from fvsbound.errors import InternalInvariantBroken, PreconditionViolated
from fvsbound.girth import (
    SolverConfig,
    doubled_potential,
    solve_planar_unweighted,
    solve_planar_weighted,
    trivial_baseline,
)
from fvsbound.graph import Graph, validate_fvs, weighted_girth
from fvsbound.instances import chain, disjoint_cycles, make_named, random_planar_girth
from fvsbound.oracle import min_fvs_exact
from fvsbound.planar import embed, faces_of, split_high_degree_vertex, suppress_degree2_vertex

from bruteforce import (far_cut_triangle_chain, plane, random_simple_graph,
                        reference_trivial_baseline_picks, retained_bytes_per_step, rewired,
                        shallow_recursion_limit, subdivided_rim_wheel, triangle_chain,
                        weighted_chorded_cycle, wheel, without_edges)

# The package re-exports graph.girth under the submodule's name.
girth_module = importlib.import_module("fvsbound.girth")


def named_plane(name):
    inst = make_named(name)
    return inst.graph, faces_of(inst.graph, inst.rotation)


def reweighted(g, rng, lo=1, hi=6):
    return Graph(g.vertices, [(u, v, rng.randint(lo, hi)) for u, v in g.edges()])


class TestConfig:
    def test_rejects_small_g(self):
        with pytest.raises(PreconditionViolated):
            SolverConfig(g=2)

    def test_doubled_potential(self):
        assert doubled_potential(wheel(5)) == 10  # hub 2*5-5, rim 5 * 1
        # Degrees 0, 1, 2, 3, 4 and 2 count 1, 1, 1, 1, 3 and 1.
        degrees = Graph(range(6), [(1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
        assert [degrees.degree(v) for v in range(6)] == [0, 1, 2, 3, 4, 2]
        assert doubled_potential(degrees) == 8


class TestSolveWeighted:
    def test_rejects_light_cycles(self):
        g, pg = named_plane("cube")
        with pytest.raises(PreconditionViolated):
            solve_planar_weighted(pg, SolverConfig(g=5))

    def test_cube_with_g4(self):
        g, pg = named_plane("cube")
        cert = solve_planar_weighted(pg, SolverConfig(g=4, validate_every_step=True))
        assert cert.validate(g)
        assert 3 * 4 * cert.size <= 4 * g.total_weight()

    def test_trace_retains_at_most_465_bytes_per_step(self):
        # A weighted-mixed-sized instance: 33 steps, the cubic hand-off's
        # included. Sorted tuples held about 371 bytes a step, frozensets 823.
        g0, rotation = random_planar_girth(44, 5, 3)
        g = reweighted(g0, random.Random(3), 1, 8)
        pg, cfg = faces_of(g, rotation), SolverConfig(g=int(weighted_girth(g)))
        assert retained_bytes_per_step(lambda: solve_planar_weighted(pg, cfg)) <= 465

    def test_zero_weight_edges(self):
        g = Graph(range(6), [(0, 1, 2), (1, 2, 1), (2, 3, 0), (3, 4, 3),
                             (4, 5, 1), (5, 0, 2), (0, 3, 3)])
        assert weighted_girth(g) == 6
        cert = solve_planar_weighted(plane(g), SolverConfig(g=3, validate_every_step=True))
        assert cert.validate(g)

    def test_wheel_goes_through_split(self):
        g = wheel(5)
        cert = solve_planar_weighted(plane(g), SolverConfig(g=3, validate_every_step=True))
        assert cert.validate(g)
        assert any(s.rule == "P3_split" for s in cert.trace)

    def test_subdivided_cube_goes_through_suppress(self):
        cube = make_named("cube").graph
        g = rewired(without_edges(cube, [(0, 1)]), add_edges=[(0, 100), (100, 1)])
        cert = solve_planar_weighted(plane(g), SolverConfig(g=4, validate_every_step=True))
        assert cert.validate(g)
        assert any(s.rule == "P4_suppress" for s in cert.trace)

    def test_cut_vertex_goes_through_decompose(self):
        cube = make_named("cube").graph
        shifted = [(u + 7 if u else 0, v + 7 if v else 0) for u, v in cube.edges()]
        g = Graph(range(15), list(cube.edges()) + shifted)
        cert = solve_planar_weighted(plane(g), SolverConfig(g=4, validate_every_step=True))
        assert cert.validate(g)
        assert any(s.rule == "P1_decompose" for s in cert.trace)

    def test_pendant_trees_pruned(self):
        g = Graph(range(7), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5), (5, 6)])
        cert = solve_planar_weighted(plane(g), SolverConfig(g=3, validate_every_step=True))
        assert cert.validate(g)
        assert cert.trace[0].rule == "P0_prune"
        assert cert.size == 1

    def test_forest_needs_nothing(self):
        g = Graph(range(4), [(0, 1), (1, 2), (1, 3)])
        cert = solve_planar_weighted(plane(g), SolverConfig(g=3))
        assert cert.size == 0

    def test_merger_rule_fires(self):
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        cert = solve_planar_weighted(plane(g), SolverConfig(g=4, validate_every_step=True))
        assert cert.validate(g)
        assert any(s.rule == "P2_merge" and s.removed_edges for s in cert.trace)

    def test_random_weighted_instances(self):
        rng = random.Random(303)
        for seed in range(40):
            g0, rot = random_planar_girth(rng.randint(8, 30), rng.choice([3, 4, 5, 6]), seed)
            g = reweighted(g0, rng)
            wg = int(weighted_girth(g))
            target = rng.randint(3, max(3, min(wg, 12)))
            pg = faces_of(g, rot)
            cert = solve_planar_weighted(
                pg, SolverConfig(g=target, validate_every_step=(g.n <= 12)))
            assert validate_fvs(g, cert.fvs)
            assert 3 * target * cert.size <= 4 * g.total_weight()

    def test_deterministic(self):
        g, rot = random_planar_girth(20, 4, 9)
        pg = faces_of(g, rot)
        a = solve_planar_weighted(pg, SolverConfig(g=4))
        b = solve_planar_weighted(pg, SolverConfig(g=4))
        assert a.fvs == b.fvs and a.trace == b.trace


class TestSolveUnweighted:
    def test_c7(self):
        g = Graph(range(7), [(i, (i + 1) % 7) for i in range(7)])
        cert = solve_planar_unweighted(plane(g))
        assert cert.size == 1
        assert 3 * 7 * cert.size <= 4 * 7

    def test_cube_bound_four(self):
        g, pg = named_plane("cube")
        cert = solve_planar_unweighted(pg)
        assert cert.validate(g)
        assert cert.bound == Fraction(4)
        assert cert.size <= 4

    def test_dodecahedron_bound_eight(self):
        g, pg = named_plane("dodecahedron")
        cert = solve_planar_unweighted(pg)
        assert cert.validate(g)
        assert cert.bound == Fraction(8)
        assert cert.size <= 8

    def test_chain_instances(self):
        for k in (1, 2, 3, 4):
            g, pg = named_plane(f"chain{k}")
            cert = solve_planar_unweighted(pg)
            assert cert.validate(g)
            assert min_fvs_exact(g).phi <= cert.size

    def test_forest(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        cert = solve_planar_unweighted(plane(g))
        assert cert.size == 0

    def test_disjoint_cycles_exact(self):
        for k, gl in [(1, 3), (2, 4), (3, 5), (5, 7)]:
            g = disjoint_cycles(k, gl)
            cert = solve_planar_unweighted(plane(g))
            assert cert.size == k
            assert cert.validate(g)

    def test_many_components_split_in_one_step(self):
        # The split must not take one recursion level per component.
        g = disjoint_cycles(1200, 3)
        cert = solve_planar_unweighted(plane(g))
        assert cert.size == 1200
        assert cert.validate(g)


class TestLoop:
    """No run of rule firings nests: mergers, suppressions, splits and decompositions."""

    @pytest.mark.parametrize("build", [
        lambda: plane(chain(150)),
        lambda: plane(triangle_chain(150)),
        lambda: faces_of(*random_planar_girth(200, 13, 1)),
        lambda: plane(wheel(150)),
        lambda: plane(far_cut_triangle_chain(150)),
    ], ids=["chain150", "triangle-chain150", "random-planar-g13-n200", "w150",
            "far-cut-triangle-chain150"])
    def test_long_runs_solve_in_a_shallow_stack(self, build):
        pg = build()
        with shallow_recursion_limit(100):
            cert = solve_planar_unweighted(pg)
        assert cert.validate(pg.graph)

    @staticmethod
    def _merger_fires_on_call(monkeypatch, k):
        """Make the k-th merger search report a merger; returns the graphs searched."""
        searched = []
        find_merger = girth_module._guaranteed_merger

        def sabotaged(pg, g_min):
            searched.append(pg.graph)
            return object() if len(searched) == k else find_merger(pg, g_min)

        monkeypatch.setattr(girth_module, "_guaranteed_merger", sabotaged)
        return searched

    def test_batch_rechecks_earlier_rules_after_each_suppression(self, monkeypatch):
        # One search in P2, one after each of the 3 splits, then one after
        # the first suppression: 13 + 3 - 1 vertices.
        searched = self._merger_fires_on_call(monkeypatch, 5)
        pg = plane(subdivided_rim_wheel(6))
        with pytest.raises(InternalInvariantBroken, match="a suppression let an earlier rule"):
            solve_planar_weighted(pg, SolverConfig(g=4, validate_every_step=True))
        assert len(searched) == 5
        assert searched[-1].n == 15

    def test_a_merger_step_runs_one_lowpoint_dfs(self, monkeypatch):
        # Every step on the chain is a merger on a connected graph: the face
        # count answers connectivity, the lowpoint DFS rules out a cut
        # vertex, and the search does not re-check 2-connectivity.
        calls = Counter()
        for name in ("connected_components", "cut_vertices", "is_two_connected",
                     "_guaranteed_merger"):
            def counted(*args, _fn=getattr(girth_module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(girth_module, name, counted)
        cert = solve_planar_unweighted(plane(chain(30)))
        assert [step.rule for step in cert.trace] == ["P2_merge"] * 30
        assert calls == Counter(cut_vertices=30, _guaranteed_merger=30)

    def test_tail_rechecks_earlier_rules_after_each_split(self, monkeypatch):
        # One search in P2, then one after the first split: 7 + 1 vertices.
        searched = self._merger_fires_on_call(monkeypatch, 2)
        pg = plane(wheel(6))
        with pytest.raises(InternalInvariantBroken, match="a split let an earlier rule"):
            solve_planar_weighted(pg, SolverConfig(g=3, validate_every_step=True))
        assert len(searched) == 2
        assert searched[-1].n == 8


    def test_tail_compares_each_measure_with_the_previous_graphs(self, monkeypatch):
        # w6's tail is three splits. The third graph is given the second's
        # measure, which is still below the root's: only a comparison with the
        # graph just before it catches the lack of a drop.
        measures = []
        measure = girth_module._measure

        def repeating(g):
            measures.append(measures[-1] if len(measures) == 3 else measure(g))
            return measures[-1]

        monkeypatch.setattr(girth_module, "_measure", repeating)
        with pytest.raises(InternalInvariantBroken, match="termination measure failed"):
            solve_planar_weighted(plane(wheel(6)), SolverConfig(g=3, validate_every_step=True))
        assert len(measures) == 4

    @pytest.mark.parametrize("build, rule", [
        (lambda: plane(disjoint_cycles(2, 3)), "P1_decompose"),
        (lambda: plane(chain(6)), "P2_merge"),
        (lambda: plane(wheel(8)), "P3_split"),
        (lambda: plane(subdivided_rim_wheel(6)), "P4_suppress"),
    ], ids=["P1", "P2", "P3", "P4"])
    def test_each_checked_graph_is_measured_once(self, monkeypatch, build, rule):
        # The root is measured on entry; every other graph is measured by the
        # check that admits it, and its measure travels with it.
        calls = Counter()
        for name in ("_measure", "_check_child"):
            def counted(*args, _fn=getattr(girth_module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(girth_module, name, counted)
        pg = build()
        cert = solve_planar_weighted(
            pg, SolverConfig(g=int(weighted_girth(pg.graph)), validate_every_step=True))
        assert rule in {step.rule for step in cert.trace}
        assert calls["_check_child"] >= 2
        assert calls["_measure"] <= calls["_check_child"] + 1


def reference_tail(pg):
    """P3 then P4 as a chain of the public surgeries, each building its plane graph."""
    graph = pg.graph
    lift, steps = {}, []
    while (max_deg := graph.max_degree()) >= 4:
        v = min(u for u in graph.vertices if graph.degree(u) == max_deg)
        pg, (w, w_prime, _) = split_high_degree_vertex(pg, v)
        graph = pg.graph
        steps.append(ReductionStep(rule="P3_split", matched=(v, w, w_prime),
                                   removed_vertices=(v,)))
        lift[w] = lift[w_prime] = lift.get(v, v)
    for v in [v for v in graph.vertices if graph.degree(v) == 2]:
        u, w = graph.neighbors(v)
        pg = suppress_degree2_vertex(pg, v)
        graph = pg.graph
        steps.append(ReductionStep(rule="P4_suppress", matched=(v, u, w),
                                   removed_vertices=(v,), added_edges=((u, w),)))
    return pg, lift, steps


def _weighted_random_plane(g, seed):
    graph, rotation = random_planar_girth(40, g, seed)
    return faces_of(reweighted(graph, random.Random(seed), 1, 5), rotation)


TAIL_CORPUS = {
    **{f"w{k}": (lambda k=k: plane(wheel(k))) for k in range(4, 41)},
    **{f"subdivided-w{k}": (lambda k=k: plane(subdivided_rim_wheel(k))) for k in (4, 6, 9, 12)},
    **{f"weighted-w{k}-s{seed}": (lambda k=k, seed=seed: plane(reweighted(wheel(k), random.Random(seed))))
       for k, seed in ((8, 1), (15, 2))},
    **{f"weighted-random-g{g}-s{seed}": (lambda g=g, seed=seed: _weighted_random_plane(g, seed))
       for g in range(3, 8) for seed in (1, 2)},
    **{f"weighted-chorded-cycle-s{seed}": (lambda seed=seed: plane(weighted_chorded_cycle(seed)))
       for seed in range(1, 7)},
}


class TestSplitAndSuppress:
    """The in-place tail matches a chain of public surgeries on every subproblem."""

    @pytest.mark.parametrize("validate", [False, True], ids=["unchecked", "checked"])
    @pytest.mark.parametrize("case", sorted(TAIL_CORPUS))
    def test_matches_public_surgeries(self, monkeypatch, case, validate):
        tails = []
        tail = girth_module._split_and_suppress

        def recording_tail(pg, *args):
            out = tail(pg, *args)
            tails.append((pg, out))
            return out

        monkeypatch.setattr(girth_module, "_split_and_suppress", recording_tail)
        pg = TAIL_CORPUS[case]()
        cfg = SolverConfig(g=int(weighted_girth(pg.graph)), validate_every_step=validate)
        solve_planar_weighted(pg, cfg)
        assert tails
        for before, (out, lift, steps) in tails:
            ref, ref_lift, ref_steps = reference_tail(before)
            assert out.graph == ref.graph
            assert out.rotation.order == ref.rotation.order
            assert out.faces == ref.faces
            assert out.dart_face == ref.dart_face
            assert (lift, steps) == (ref_lift, ref_steps)

    @pytest.mark.parametrize("graph, g, k", [
        (wheel(6), 3, 3),
        (subdivided_rim_wheel(6), 4, 9),
    ], ids=["w6", "subdivided-w6"])
    def test_a_checked_tail_builds_one_graph_per_step(self, monkeypatch, graph, g, k):
        # The checked tail of k splits and suppressions builds one plane
        # graph per step and returns the last one it checked.
        built, tails = [], []
        build, tail = girth_module._plane_graph_of, girth_module._split_and_suppress

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def recording_tail(*args):
            tails.append(tail(*args))
            return tails[-1]

        monkeypatch.setattr(girth_module, "_plane_graph_of", counted_build)
        monkeypatch.setattr(girth_module, "_split_and_suppress", recording_tail)
        solve_planar_weighted(plane(graph), SolverConfig(g=g, validate_every_step=True))
        [(out, _, steps)] = tails
        assert len(steps) == k
        assert len(built) == k
        assert out is built[-1]

    def test_corpus_fires_p2_p3_and_p4(self):
        rules = set()
        for build in TAIL_CORPUS.values():
            pg = build()
            cert = solve_planar_weighted(pg, SolverConfig(g=int(weighted_girth(pg.graph))))
            rules |= {step.rule for step in cert.trace}
        assert {"P2_merge", "P3_split", "P4_suppress"} <= rules


class TestBaseline:
    def test_zero_weight_cycle_is_rejected(self):
        tri = Graph(range(3), [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        with pytest.raises(PreconditionViolated, match="weight 0"):
            trivial_baseline(plane(tri))

    def test_zero_weight_edges_on_a_positive_cycle(self):
        tri = Graph(range(3), [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        cert = trivial_baseline(plane(tri))
        assert cert.validate(tri)
        assert cert.bound == Fraction(2)

    def test_c5(self):
        g = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
        cert = trivial_baseline(plane(g))
        assert cert.size == 1
        assert cert.bound == Fraction(2)

    def test_cube(self):
        g, pg = named_plane("cube")
        cert = trivial_baseline(pg)
        assert cert.validate(g)
        assert cert.bound == Fraction(6)

    def test_dodecahedron(self):
        g, pg = named_plane("dodecahedron")
        cert = trivial_baseline(pg)
        assert cert.validate(g)
        assert cert.bound == Fraction(12)

    def test_dominated_by_girth_solver_bound(self):
        for seed in range(8):
            g, rot = random_planar_girth(16, random.Random(seed).choice([3, 4, 5]), seed)
            pg = faces_of(g, rot)
            solver = solve_planar_unweighted(pg)
            baseline = trivial_baseline(pg)
            assert solver.bound <= baseline.bound
            assert solver.validate(g) and baseline.validate(g)

    @pytest.mark.parametrize("g", [
        Graph([0, 1], [(0, 1)]),
        Graph(range(5), [(i, i + 1, 3) for i in range(4)]),
        Graph([0]),
    ], ids=["k2", "path", "isolated-vertex"])
    def test_a_forest_is_certified_against_zero(self, g):
        # With no cycle g is infinite and 2*weight/g is 0, as the planar
        # solver's forest certificate and `verify` say.
        cert = trivial_baseline(plane(g))
        assert cert.validate(g)
        assert (cert.size, cert.bound_num, cert.bound_den) == (0, 0, 1)

    def test_handles_forest_components(self):
        g = Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)])
        cert = trivial_baseline(plane(g))
        assert cert.validate(g)
        assert cert.size == 1

    def test_matches_the_bridge_loop_reference(self):
        # The face union-find against one bridge pass and one rebuild per pick.
        picked = 0
        for pg in baseline_corpus():
            picks = reference_trivial_baseline_picks(pg.graph)
            cert = trivial_baseline(pg)
            assert cert.trace == tuple(
                ReductionStep(rule="baseline_remove", matched=(v,),
                              removed_vertices=(v,), designated=(v,))
                for v in picks)
            assert cert.fvs == frozenset(picks)
            picked += len(picks)
        assert picked > 400


def baseline_corpus():
    """Plane graphs for the baseline's differential test, bridges and forests included."""
    for gt in range(3, 8):
        for seed in range(4):
            yield faces_of(*random_planar_girth(15 + 20 * seed, gt, seed))
    for k in range(3, 9):
        yield plane(wheel(k))
    for k in range(1, 7):
        yield plane(chain(k))
        yield plane(triangle_chain(k))
        yield plane(far_cut_triangle_chain(k))
    for k, gt in ((1, 3), (2, 4), (3, 3), (4, 5)):
        yield plane(disjoint_cycles(k, gt))
    # A triangle and a pentagon joined by the bridge 2-3, the pendant path
    # 0-8-9, a separate square with the pendant edge 13-14, and the isolated
    # vertex 15.
    yield plane(Graph(range(16), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6),
                                  (6, 7), (7, 3), (0, 8), (8, 9), (10, 11), (11, 12),
                                  (12, 13), (13, 10), (13, 14)]))
    rng = random.Random(83)
    for _ in range(200):
        g = random_simple_graph(rng.randint(1, 12), rng, p=rng.choice([0.15, 0.25, 0.35]))
        if (rot := embed(g)) is not None:
            yield faces_of(g, rot)
