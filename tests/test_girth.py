"""Weighted planar solver: rule cascade, bound certificates, baseline."""

import importlib
import random
from fractions import Fraction

import pytest

from fvsbound.errors import InternalInvariantBroken, OracleTooLarge, PreconditionViolated
from fvsbound.girth import (
    SolverConfig,
    conjecture_gap_report,
    doubled_potential,
    solve_planar_unweighted,
    solve_planar_weighted,
    trivial_baseline,
)
from fvsbound.graph import Graph, validate_fvs, weighted_girth
from fvsbound.instances import chain, disjoint_cycles, make_named, random_planar_girth
from fvsbound.oracle import min_fvs_exact
from fvsbound.planar import embed, faces_of

from bruteforce import (far_cut_triangle_chain, shallow_recursion_limit, subdivided_rim_wheel,
                        triangle_chain)

# The package re-exports graph.girth under the submodule's name.
girth_module = importlib.import_module("fvsbound.girth")


def plane(g):
    rot = embed(g)
    assert rot is not None
    return faces_of(g, rot)


def named_plane(name):
    inst = make_named(name)
    return inst.graph, faces_of(inst.graph, inst.rotation)


def reweighted(g, rng, lo=1, hi=6):
    return Graph(g.vertices, [(u, v, rng.randint(lo, hi)) for u, v in g.edges()])


def wheel(k):
    return Graph(range(k + 1),
                 [(k, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)])


class TestConfig:
    def test_rejects_small_g(self):
        with pytest.raises(PreconditionViolated):
            SolverConfig(g=2)

    def test_doubled_potential(self):
        assert doubled_potential(wheel(5)) == 10  # hub 2*5-5, rim 5 * 1


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
        g = cube.without_edges([(0, 1)]).with_edges([(0, 100), (100, 1)])
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

    def test_batch_rechecks_earlier_rules_after_each_suppression(self, monkeypatch):
        suppressed = []
        suppress = girth_module.suppress_degree2_vertex
        find_merger = girth_module.find_guaranteed_merger

        def counting_suppress(pg, v):
            suppressed.append(v)
            return suppress(pg, v)

        def merger_after_a_suppression(pg, g_min):
            return object() if suppressed else find_merger(pg, g_min)

        monkeypatch.setattr(girth_module, "suppress_degree2_vertex", counting_suppress)
        monkeypatch.setattr(girth_module, "find_guaranteed_merger", merger_after_a_suppression)
        pg = plane(subdivided_rim_wheel(6))
        with pytest.raises(InternalInvariantBroken, match="earlier rule"):
            solve_planar_weighted(pg, SolverConfig(g=4, validate_every_step=True))
        assert len(suppressed) == 1

    def test_tail_rechecks_earlier_rules_after_each_split(self, monkeypatch):
        splits = []
        split = girth_module.split_high_degree_vertex
        find_merger = girth_module.find_guaranteed_merger

        def counting_split(pg, v):
            splits.append(v)
            return split(pg, v)

        def merger_after_a_split(pg, g_min):
            return object() if splits else find_merger(pg, g_min)

        monkeypatch.setattr(girth_module, "split_high_degree_vertex", counting_split)
        monkeypatch.setattr(girth_module, "find_guaranteed_merger", merger_after_a_split)
        pg = plane(wheel(6))
        with pytest.raises(InternalInvariantBroken, match="earlier rule"):
            solve_planar_weighted(pg, SolverConfig(g=3, validate_every_step=True))
        assert len(splits) == 1


class TestBaseline:
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

    def test_handles_forest_components(self):
        g = Graph(range(8), [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)])
        cert = trivial_baseline(plane(g))
        assert cert.validate(g)
        assert cert.size == 1


class TestGapReport:
    def test_cube(self):
        g, pg = named_plane("cube")
        report = conjecture_gap_report(pg)
        assert report.phi == 3
        assert report.m_over_g == Fraction(3)
        assert report.four_m_over_3g == Fraction(4)
        assert report.two_m_over_g == Fraction(6)

    def test_dodecahedron_is_conjecture_tight(self):
        g, pg = named_plane("dodecahedron")
        report = conjecture_gap_report(pg)
        assert report.phi == 6 and report.m_over_g == Fraction(6)

    def test_disjoint_cycles_tight_family(self):
        g = disjoint_cycles(3, 5)
        report = conjecture_gap_report(plane(g))
        assert report.phi == 3 == report.m_over_g

    def test_size_cap(self):
        g, rot = random_planar_girth(30, 3, 0)
        with pytest.raises(OracleTooLarge):
            conjecture_gap_report(faces_of(g, rot))
