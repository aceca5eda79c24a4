"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here in integers, nothing is deferred.
"""

import random
from fractions import Fraction
import time

import pytest

from fvsbound.girth import SolverConfig, solve_planar_unweighted, solve_planar_weighted, trivial_baseline
from fvsbound.graph import (
    Graph,
    connectivity_le3,
    is_two_connected,
    validate_fvs,
    weighted_girth,
)
from fvsbound.instances import (
    chain,
    disjoint_cycles,
    make_named,
    random_cubic_2connected,
    random_planar_girth,
    triangle_replace,
)
from fvsbound.cubic import solve_cubic
from fvsbound.oracle import min_fvs_exact, min_fvs_naive
from fvsbound.planar import apply_merger, embed, faces_of, find_guaranteed_merger

from bruteforce import (
    edge_connectivity_le3_bruteforce,
    enumerate_simple_cycles,
    plane,
    random_max_deg3_graph,
    vertex_connectivity_le3_bruteforce,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def test_criterion_01_k4_tight_case():
    g = make_named("k4").graph
    solve_cubic(g)  # warm caches before timing
    start = time.perf_counter()
    cert = solve_cubic(g)
    elapsed_ms = 1000 * (time.perf_counter() - start)
    ok = cert.size == 2 and 3 * cert.size <= 4 + 2 and elapsed_ms < 10
    report(1, ok, f"K4 gives |S| = {cert.size}, 3|S| <= n+2, {elapsed_ms:.2f} ms")


def test_criterion_02_cubic_property_suite():
    rng = random.Random(20250810)
    start = time.perf_counter()
    count = 1000
    for trial in range(count):
        n = 2 * rng.randint(2, 100)
        g = random_cubic_2connected(n, trial)
        cert = solve_cubic(g)
        assert validate_fvs(g, cert.fvs), f"invalid set on trial {trial}"
        assert 3 * cert.size <= n + 2, f"bound missed on trial {trial}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    report(2, ok, f"{count} random cubic graphs (n in [4, 200]) certified in {elapsed:.1f} s")


def test_criterion_03_triangle_replaced_petersen():
    g = triangle_replace(make_named("petersen").graph)
    cert = solve_cubic(g)
    oracle = min_fvs_exact(g)
    ok = (g.n == 30 and cert.size == 10 and oracle.phi == 10
          and not oracle.node_budget_hit and validate_fvs(g, cert.fvs))
    report(3, ok, f"triangle_replace(Petersen): solver |S| = {cert.size}, oracle phi = {oracle.phi}")


def test_criterion_04_paper_instances():
    lines = []
    ok = True
    for name, bound, phi in (("cube", 4, 3), ("dodecahedron", 8, 6)):
        inst = make_named(name)
        pg = faces_of(inst.graph, inst.rotation)
        cert = solve_planar_unweighted(pg)
        oracle = min_fvs_exact(inst.graph)
        ok &= cert.size <= bound and cert.validate(inst.graph) and oracle.phi == phi
        lines.append(f"{name}: |S| = {cert.size} <= {bound}, phi = {oracle.phi}, "
                     f"slack = {bound - oracle.phi}")
    report(4, ok, "; ".join(lines))


def test_criterion_05_conjecture_tight_family():
    ok = True
    for k in range(1, 11):
        for gl in range(3, 10):
            g = disjoint_cycles(k, gl)
            cert = solve_planar_unweighted(plane(g))
            if cert.size != k or not validate_fvs(g, cert.fvs):
                ok = False
    report(5, ok, "disjoint_cycles(k, g) solved with exactly k = m/g "
                  "for all k <= 10, g in 3..9")


@pytest.fixture(scope="module")
def weighted_plane_instances():
    """500 plane instances with integer weights rescaled so every cycle >= g."""
    rng = random.Random(424242)
    out = []
    for idx in range(500):
        if idx % 7 == 3:
            # wheels bring vertices of degree >= 4 into the corpus
            k = rng.randint(4, 9)
            g0 = Graph(range(k + 1), [(k, i) for i in range(k)]
                       + [(i, (i + 1) % k) for i in range(k)])
            rot = embed(g0)
        elif idx % 5 == 0:
            # keep a fifth of the corpus small enough for per-step debugging
            nt, gt = rng.choice([(8, 3), (10, 3), (12, 3), (10, 4), (12, 6)])
            g0, rot = random_planar_girth(nt, gt, idx)
        else:
            g0, rot = random_planar_girth(rng.randint(10, 44), rng.choice([3, 4, 5, 6, 7]), idx)
        weights = {e: rng.randint(0, 8) for e in g0.edges()}
        g = Graph(g0.vertices, [(u, v, weights[(u, v)]) for u, v in g0.edges()])
        target = rng.randint(3, 12)
        wg = weighted_girth(g)
        if wg == 0:
            g = Graph(g.vertices, [(u, v, g.weight(u, v) + 1) for u, v in g.edges()])
            wg = weighted_girth(g)
        if wg < target:
            scale = -(-target // int(wg))
            g = Graph(g.vertices, [(u, v, scale * g.weight(u, v)) for u, v in g.edges()])
        assert weighted_girth(g) >= target
        out.append((g, rot, target))
    return out


@pytest.fixture(scope="module")
def weighted_solutions(weighted_plane_instances):
    """Solve the weighted corpus once; criteria 6 and 7 both consume it."""
    out = []
    for g, rot, target in weighted_plane_instances:
        pg = faces_of(g, rot)
        cert = solve_planar_weighted(
            pg, SolverConfig(g=target, validate_every_step=(g.n <= 12)))
        out.append((g, rot, target, cert))
    return out


def test_criterion_06_weighted_claim_suite(weighted_solutions):
    small_validated = 0
    for g, rot, target, cert in weighted_solutions:
        assert validate_fvs(g, cert.fvs)
        assert 3 * target * cert.size <= 4 * g.total_weight()
        if g.n <= 12:
            small_validated += 1
    ok = len(weighted_solutions) >= 500 and small_validated >= 50
    report(6, ok, f"{len(weighted_solutions)} weighted plane instances certified "
                  f"(3g|S| <= 4w); {small_validated} small ones re-validated per step")


def test_criterion_07_baseline_dominance(weighted_solutions):
    checked = 0
    for name in ("cube", "dodecahedron"):
        inst = make_named(name)
        pg = faces_of(inst.graph, inst.rotation)
        solver = solve_planar_unweighted(pg)
        baseline = trivial_baseline(pg)
        assert solver.bound <= baseline.bound
        assert solver.validate(inst.graph) and baseline.validate(inst.graph)
        checked += 1
    for k in range(1, 11):
        for gl in range(3, 10):
            g = disjoint_cycles(k, gl)
            pg = plane(g)
            solver = solve_planar_unweighted(pg)
            baseline = trivial_baseline(pg)
            assert solver.bound <= baseline.bound
            assert solver.validate(g) and baseline.validate(g)
            checked += 1
    for g, rot, target, cert in weighted_solutions:
        baseline = trivial_baseline(faces_of(g, rot))
        # same-g comparison: 4w/3g versus 2w/g, in exact rationals
        total = g.total_weight()
        assert Fraction(4 * total, 3 * target) <= Fraction(2 * total, target)
        assert cert.size * 3 * target <= 4 * total
        assert baseline.size * target <= 2 * total
        assert validate_fvs(g, baseline.fvs)
        checked += 1
    report(7, True, f"solver bound never exceeded the 2m/g baseline on {checked} instances")


def test_criterion_08_oracle_soundness():
    rng = random.Random(88)
    from bruteforce import random_simple_graph
    for trial in range(500):
        g = random_simple_graph(rng.randint(1, 9), rng)
        result = min_fvs_exact(g)
        assert result.phi == min_fvs_naive(g)
        assert result.phi + result.forest_order == g.n
        assert validate_fvs(g, result.witness)
    report(8, True, "min_fvs_exact == min_fvs_naive on 500 random graphs (n <= 9); "
                    "a + phi = n throughout")


def test_criterion_09_connectivity_equivalence():
    rng = random.Random(909)
    for trial in range(1000):
        g = random_max_deg3_graph(rng.randint(1, 12), rng)
        vc, ec = connectivity_le3(g)
        assert vc == vertex_connectivity_le3_bruteforce(g)
        assert ec == edge_connectivity_le3_bruteforce(g)
        assert vc == ec
    report(9, True, "vertex and edge connectivity (capped at 3) agree with brute "
                    "force and with each other on 1000 max-degree-3 graphs")


def _curated_merger_instances():
    instances = []
    for k in range(4, 12):
        cyc = [(i, (i + 1) % k) for i in range(k)]
        instances.append(Graph(range(k), cyc + [(0, k // 2)]))
    def theta(a, b, c):
        lengths = (a, b, c)
        edges, nxt = [], 2
        for length in lengths:
            prev = 0
            for _ in range(length - 1):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            edges.append((prev, 1))
        return Graph(range(nxt), edges)
    for spec in ((1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 2, 2),
                 (2, 2, 3), (2, 3, 3), (3, 3, 3), (1, 2, 4)):
        instances.append(theta(*spec))
    for k in (3, 4, 5, 6):
        rungs = [(i, i + k) for i in range(k)]
        rails = [(i, i + 1) for i in range(k - 1)]
        rails += [(i + k, i + k + 1) for i in range(k - 1)]
        instances.append(Graph(range(2 * k), rungs + rails))
    for k in (1, 2, 3):
        instances.append(chain(k))
    return instances


def test_criterion_10_merger_surgery_invariants():
    instances = _curated_merger_instances()
    assert len(instances) >= 20
    assert all(g.n <= 12 for g in instances)
    rng = random.Random(10)
    total_mergers = 0
    for idx, base in enumerate(instances):
        weights = ({e: 1 for e in base.edges()} if idx % 2 == 0 else
                   {e: rng.randint(1, 5) for e in base.edges()})
        g = Graph(base.vertices, [(u, v, weights[(u, v)]) for u, v in base.edges()])
        pg = plane(g)
        applied = 0
        while True:
            graph = pg.graph
            if not is_two_connected(graph) or all(
                    graph.degree(v) == 2 for v in graph.vertices):
                break
            spec = find_guaranteed_merger(pg, 3)
            if spec is None:
                break
            before_wg = weighted_girth(graph)
            for cycle in enumerate_simple_cycles(graph):
                edges = {tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                         for i in range(len(cycle))}
                if edges & spec.removed_edges:
                    assert spec.crucial in cycle
            after = apply_merger(pg, spec)  # faces_of inside re-checks Euler
            faces_of(after.graph, after.rotation)
            if after.graph.m:
                assert weighted_girth(after.graph) >= before_wg
            pg = after
            applied += 1
        assert applied >= 1, f"instance {idx} admitted no merger"
        total_mergers += applied
    report(10, True, f"{len(instances)} curated instances, {total_mergers} mergers: "
                     "Euler preserved, weighted girth monotone, removed-edge "
                     "cycles all contain the crucial vertex")
