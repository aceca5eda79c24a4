"""Reduction rules and the certified subcubic solver."""

import random
from collections import Counter
from itertools import combinations

import pytest

import fvsbound.cubic as cubic_module
import fvsbound.graph as graph_module
from fvsbound.certificate import BoundKind, ReductionStep
from fvsbound.cubic import (
    BASE_CASE_MAX_N,
    RuleId,
    _edge_connected_within,
    _edge_disjoint_paths,
    _split_targets,
    _three_disjoint_paths,
    _three_edge_connected,
    _Work,
    apply_rule,
    base_case,
    find_rule,
    solve_cubic,
)
from fvsbound.errors import InternalInvariantBroken, PreconditionViolated
from fvsbound.graph import (
    Graph,
    connectivity_le3,
    is_two_connected,
    min_side_two_edge_cut,
    validate_fvs,
)
from fvsbound.instances import make_named, random_cubic_2connected, triangle_replace
from fvsbound.oracle import min_fvs_exact, min_fvs_naive

from bruteforce import (
    assert_canonical,
    blob_ring,
    chorded_c6,
    cut_joined_pair,
    cycle_graph,
    edge_connectivity_le3_bruteforce,
    local_edge_connectivity_le3,
    r4_all_distinct_instance,
    r4_two_equal_instance,
    r5_gadget_pair,
    random_max_deg3_graph,
    reference_find_rule,
    retained_bytes_per_step,
    rewired,
    subdivided,
)


class TestFindRule:
    def test_degree2_first(self):
        rule, match = find_rule(chorded_c6())
        assert rule is RuleId.R1_DEGREE2
        assert match[0] == 1  # smallest degree-2 vertex

    def test_adjacent_triangles(self):
        # two triangles sharing edge (0,1) inside a larger cubic graph
        g = Graph(range(8), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                             (2, 4), (3, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        rule, match = find_rule(g)
        assert rule is RuleId.R2_ADJACENT_TRIANGLES
        assert match == (0, 1, 2, 3)

    def test_triangle_square(self):
        # the prism has triangles sharing edges with 4-cycles, nothing earlier
        prism = make_named("prism").graph
        rule, match = find_rule(prism)
        assert rule is RuleId.R3_TRIANGLE_SQUARE

    def test_two_squares_beats_plain_triangle(self):
        # hub pair with spokes; spoke thirds form a triangle, but the doubled
        # 4-cycle must be matched first (R4 precedes R6)
        g = Graph(range(8), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                             (2, 5), (3, 6), (4, 7), (5, 6), (6, 7), (5, 7)])
        rule, match = find_rule(g)
        assert rule is RuleId.R4_TWO_SQUARES
        assert match == (0, 1, 2, 3, 4)

    def test_two_edge_cut(self):
        rule, match = find_rule(r5_gadget_pair())
        assert rule is RuleId.R5_TWO_EDGE_CUT
        assert match == (0, 10)

    def test_dodecahedron_is_generic(self):
        rule, match = find_rule(make_named("dodecahedron").graph)
        assert rule is RuleId.R7_GENERIC
        assert match == (0, 1, 9)

    def test_triangle_replacement_hits_plain_triangle(self):
        g = triangle_replace(make_named("petersen").graph)
        rule, match = find_rule(g)
        assert rule is RuleId.R6_TRIANGLE
        assert match == (0, 1, 2)


class TestApplyRules:
    def test_r1_no_edge_between_neighbors(self):
        g = cycle_graph(12)
        reduced, step = apply_rule(g, RuleId.R1_DEGREE2, (0, 1, 11))
        assert step.designated == ()
        assert reduced.n == 11
        assert reduced.has_edge(1, 11)

    def test_r1_triangle_case(self):
        # triangle {0,1,2} with 0 of degree 2, ring closing the rest
        ring = [(3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 4)]
        g = Graph(range(12), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)] + ring)
        rule, match = find_rule(g)
        assert rule is RuleId.R1_DEGREE2 and match[0] == 0
        reduced, step = apply_rule(g, rule, match)
        assert step.designated == (1,)
        assert reduced.n == 9
        assert reduced.has_edge(3, 4)  # thirds of the triangle neighbors joined

    def test_r1_degenerate_triangle_raises(self):
        with pytest.raises(InternalInvariantBroken):
            apply_rule(cycle_graph(3), RuleId.R1_DEGREE2, (0, 1, 2))

    def test_r2_reduction(self):
        g = Graph(range(8), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                             (2, 4), (3, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        reduced, step = apply_rule(g, RuleId.R2_ADJACENT_TRIANGLES, (0, 1, 2, 3))
        # removes {x, y, z} = {0, 1, 2}, joins z's third neighbor 4 to z' = 3
        assert step.removed_vertices == (0, 1, 2)
        assert step.designated == (0,)
        assert reduced.has_edge(4, 3)

    def test_r4_all_distinct(self):
        g = r4_all_distinct_instance()
        rule, match = find_rule(g)
        assert rule is RuleId.R4_TWO_SQUARES and match == (0, 1, 2, 3, 4)
        reduced, step = apply_rule(g, rule, match)
        assert step.removed_vertices == (0, 2, 3, 4)
        assert step.designated == (0,)
        # kept hub inherits the three spoke thirds
        assert sorted(reduced.neighbors(1)) == [5, 6, 7]

    def test_r4_two_equal(self):
        g = r4_two_equal_instance()
        rule, match = find_rule(g)
        assert rule is RuleId.R4_TWO_SQUARES and match == (0, 1, 2, 3, 4)
        reduced, step = apply_rule(g, rule, match)
        assert step.designated == (0, 1)
        assert step.removed_vertices == (0, 1, 2, 3, 4, 5)
        assert reduced.n == 8

    def test_r5_triangle_branch(self):
        g = r5_gadget_pair()
        reduced, step = apply_rule(g, RuleId.R5_TWO_EDGE_CUT, (0, 10))
        assert step.removed_vertices == (0, 1, 2)
        assert step.added_edges == ((4, 10),)
        assert step.designated == (1,)

    def test_r7_on_dodecahedron(self):
        g = make_named("dodecahedron").graph
        reduced, step = apply_rule(g, RuleId.R7_GENERIC, (0, 1, 9))
        assert len(step.removed_vertices) == 3
        assert len(step.added_edges) == 2
        assert step.designated == (0,)
        assert reduced.n == 17

    def test_rules_stay_in_class(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_cubic_2connected(2 * rng.randint(7, 20), rng.randint(0, 10**6))
            rule, match = find_rule(g)
            reduced, _ = apply_rule(g, rule, match)
            assert reduced.n < g.n
            assert reduced.max_degree() <= 3
            assert is_two_connected(reduced)


class TestBaseCase:
    @pytest.mark.parametrize("builder,phi", [
        (lambda: cycle_graph(3), 1),
        (lambda: cycle_graph(9), 1),
        (lambda: make_named("k33").graph, 2),
        (lambda: make_named("prism").graph, 2),
        (lambda: make_named("k4").graph, 2),
    ])
    def test_examples(self, builder, phi):
        g = builder()
        cert = base_case(g)
        assert cert.size == phi
        assert cert.validate(g)

    def test_too_large_rejected(self):
        g = random_cubic_2connected(12, 0)
        with pytest.raises(PreconditionViolated):
            base_case(g)


class TestSolveCubic:
    def test_k4_tight(self):
        cert = solve_cubic(make_named("k4").graph)
        assert cert.size == 2
        assert 3 * cert.size <= 4 + 2
        assert cert.bound_kind is BoundKind.CUBIC_N_PLUS_2_OVER_3

    def test_prism(self):
        assert solve_cubic(make_named("prism").graph).size == 2

    def test_a_base_case_input_is_checked_once(self, monkeypatch):
        # With no rewrite step, the entry check is the only class check, no
        # working graph is built, and the certificate is the base case's.
        checks = []
        check = cubic_module.is_two_connected
        monkeypatch.setattr(cubic_module, "is_two_connected",
                            lambda g: checks.append(g.n) or check(g))
        works = []
        init = cubic_module._Work.__init__
        monkeypatch.setattr(cubic_module._Work, "__init__",
                            lambda self, *args, **kw: works.append(1) or init(self, *args, **kw))
        for name in ("k4", "prism", "petersen"):
            g = make_named(name).graph
            checks.clear()
            assert solve_cubic(g) == base_case(g)
            assert checks == [g.n, g.n]  # solve_cubic's, then base_case's
        assert not works
        solve_cubic(random_cubic_2connected(12, 1))
        assert works

    def test_petersen_optimal(self):
        g = make_named("petersen").graph
        cert = solve_cubic(g)
        assert cert.size == 3
        assert min_fvs_exact(g).phi == 3

    def test_triangle_replaced_k4(self):
        g = triangle_replace(make_named("k4").graph)
        cert = solve_cubic(g)
        assert cert.size == 4
        assert min_fvs_exact(g).phi == 4

    def test_requires_two_connected(self):
        with pytest.raises(PreconditionViolated):
            solve_cubic(Graph(range(3), [(0, 1), (1, 2)]))

    def test_requires_max_degree3(self):
        g = Graph(range(5), [(4, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)])
        with pytest.raises(PreconditionViolated):
            solve_cubic(g)

    def test_deterministic_traces(self):
        g = random_cubic_2connected(40, 4)
        a = solve_cubic(g)
        b = solve_cubic(g)
        assert a.fvs == b.fvs
        assert a.trace == b.trace

    def test_monotone_progress(self):
        g = random_cubic_2connected(60, 8)
        cert = solve_cubic(g)
        for step in cert.trace[:-1]:
            if step.rule != RuleId.R0_BASE.value:
                assert len(step.removed_vertices) >= 1
                assert step.removed_vertices == tuple(sorted(set(step.removed_vertices)))
                assert set(step.designated) <= set(step.removed_vertices)

    def test_trace_retains_at_most_590_bytes_per_step(self):
        # 396 steps; sorted tuples that share the graph's edge keys held
        # about 472 bytes a step, frozensets of fresh tuples 1491.
        g = random_cubic_2connected(800, 1)
        assert retained_bytes_per_step(lambda: solve_cubic(g)) <= 590

    def test_broken_rule_application_propagates(self, monkeypatch):
        # a rule that leaves the class is a bug: no fallback may hide it
        def sabotaged(graph, rule, match):
            raise InternalInvariantBroken("injected for testing")

        monkeypatch.setattr(cubic_module, "apply_rule", sabotaged)
        with pytest.raises(InternalInvariantBroken, match="injected"):
            cubic_module.solve_cubic(random_cubic_2connected(12, 5))

    def test_bridge_behind_a_deferred_check_names_the_rule(self, monkeypatch):
        # Petersen less the edges 0-1 and 6-8, and K4 with 11-12 subdivided
        # by 10 and 13-14 by 15, joined by 1-10 and through 16 (on 0, 15 and
        # 17, which subdivides 6-8). The sabotaged R4 drops 15, 16 and 17 and
        # restores 6-8 and 13-14: 1-10 becomes a bridge and 0 the only
        # degree-2 vertex, with neighbors 4 and 5 not adjacent. So the check
        # waits for R1 to suppress 0, and of the vertices it covers only the
        # deferred step's 13 and 14 lie across the bridge.
        petersen = make_named("petersen").graph.edges()
        g = Graph(range(18), [e for e in petersen if e not in ((0, 1), (6, 8))]
                  + [(10, 11), (10, 12), (11, 13), (11, 14), (12, 13), (12, 14),
                     (13, 15), (14, 15), (1, 10), (0, 16), (15, 16), (16, 17),
                     (6, 17), (8, 17)])
        assert is_two_connected(g) and g.max_degree() == 3
        rule, match = find_rule(g)
        assert rule is RuleId.R4_TWO_SQUARES

        def sabotaged(work, match):
            return cubic_module._build(work, [15, 16, 17], [(6, 8), (13, 14)],
                                       rule, match, ())

        monkeypatch.setitem(cubic_module._APPLIERS, rule, sabotaged)
        with pytest.raises(InternalInvariantBroken) as caught:
            solve_cubic(g)
        assert str(caught.value) == (
            f"{rule.value} on {match}: reduced graph is not 2-connected")

    def test_bridge_left_for_the_base_case_names_the_rule(self, monkeypatch):
        # K3,3 less the edge 0-3 and the triangle 6-7-8, joined by 3-6 and
        # through the path 0-9-10-8 with the chord 7-9. R1 on 10 is
        # sabotaged to drop 9 and 10 and add nothing: 3-6 becomes a bridge,
        # and 0, the least degree-2 vertex, has neighbors 4 and 5 not
        # adjacent. Nine vertices are left, so the loop ends with the check
        # deferred and the base case's global check must catch it.
        g = Graph(range(11), [(0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3),
                              (2, 4), (2, 5), (6, 7), (6, 8), (7, 8), (3, 6),
                              (0, 9), (7, 9), (9, 10), (8, 10)])
        assert is_two_connected(g) and g.max_degree() == 3
        rule, match = find_rule(g)
        assert (rule, match) == (RuleId.R1_DEGREE2, (10, 8, 9))

        def sabotaged(work, match):
            return cubic_module._build(work, [9, 10], [], rule, match, ())

        monkeypatch.setitem(cubic_module._APPLIERS, rule, sabotaged)
        with pytest.raises(InternalInvariantBroken) as caught:
            solve_cubic(g)
        assert str(caught.value) == (
            f"{rule.value} on {match}: reduced graph is not 2-connected")

    def test_r5_enumerates_the_cuts_once_per_firing(self, monkeypatch):
        # The applier reuses the cut its matcher found; the one extra
        # enumeration is the query that finds no cut.
        calls = []
        enumerate_cuts = cubic_module.min_side_two_edge_cut
        monkeypatch.setattr(cubic_module, "min_side_two_edge_cut",
                            lambda g: calls.append(g.n) or enumerate_cuts(g))
        g = cut_joined_pair(random.Random(1), 1, (150, 200))
        cert = solve_cubic(g)
        fired = sum(s.rule == RuleId.R5_TWO_EDGE_CUT.value for s in cert.trace)
        assert fired >= 50
        assert len(calls) <= fired + 1

    def test_entry_rejects_exactly_the_inputs_out_of_class(self):
        # Above the base-case size, the cut search's own check (one
        # component, no bridge) stands in for the lowpoint DFS: it must turn
        # away the same inputs with the same messages. By hand, each with
        # n > 10: an isolated vertex, a pendant vertex, a bridge between two
        # cubic pieces (prisms with one edge subdivided), and a vertex of
        # degree 4, alone and beside a second component.
        cubic = random_cubic_2connected(12, 1)
        prism = [e for e in make_named("prism").graph.edges() if e != (0, 1)]
        prism += [(0, 6), (1, 6)]
        bridged = Graph(range(14), prism + [(u + 7, v + 7) for u, v in prism] + [(6, 13)])
        spoked = [(i, (i + 1) % 10) for i in range(10)] + [(10, i) for i in range(0, 10, 3)]
        graphs = [Graph(range(13), cubic.edges()),
                  Graph(range(13), [(i, (i + 1) % 12) for i in range(12)] + [(0, 12)]),
                  bridged, Graph(range(11), spoked), Graph(range(14), spoked)]
        rng = random.Random(101)
        graphs += [random_max_deg3_graph(rng.randint(11, 16), rng) for _ in range(400)]
        outcomes = Counter()
        for g in graphs:
            if g.max_degree() > 3:
                expected = "maximum degree exceeds 3"
            elif not is_two_connected(g):
                expected = "graph is not 2-connected"
            else:
                assert solve_cubic(g).validate(g)
                outcomes["solved"] += 1
                continue
            with pytest.raises(PreconditionViolated) as caught:
                solve_cubic(g)
            assert str(caught.value) == expected
            outcomes[expected] += 1
        assert outcomes["solved"] >= 20 and outcomes["graph is not 2-connected"] >= 300
        assert outcomes["maximum degree exceeds 3"] == 2

    def test_entry_needs_three_vertices_whatever_the_base_case_size(self, monkeypatch):
        # One component and no bridge mean 2-connected only from three
        # vertices on: the empty graph and a lone vertex pass the cut
        # search's own check, so the entry must refuse them itself.
        monkeypatch.setattr(cubic_module, "BASE_CASE_MAX_N", 0)
        for g in (Graph([], []), Graph([0], []), Graph(range(2), [(0, 1)])):
            with pytest.raises(PreconditionViolated) as caught:
                solve_cubic(g)
            assert str(caught.value) == "graph is not 2-connected"

    def test_an_input_without_a_cut_is_read_in_one_pass(self, monkeypatch):
        # The entry's cut search also decides 2-connectivity, and its
        # empty answer makes the input G0 from step 0: the only other
        # whole-graph pass is the exit check of the 9 vertices left.
        g = random_cubic_2connected(200, 1)
        sizes = []
        dfs = graph_module._lowpoint_dfs
        monkeypatch.setattr(graph_module, "_lowpoint_dfs",
                            lambda h, **kw: sizes.append(h.n) or dfs(h, **kw))
        solve_cubic(g)
        assert sizes == [200, 9]

    def test_entry_stops_at_the_first_cut(self, monkeypatch):
        # Every two edges of a cycle form a 2-edge cut, and so do every two
        # ring edges of a ring of K4s less an edge. Listing every cut confirms
        # each pair by a whole-graph search, so the entry confirms one pair and
        # lists none; where R5 is the first rule, its own query lists them,
        # and its match is the reference rescan's.
        searches, enumerated, before_each_step = [], [], []
        components = graph_module._components
        monkeypatch.setattr(graph_module, "_components",
                            lambda h, skip: searches.append(h.n) or components(h, skip))
        enumerate_cuts = cubic_module.min_side_two_edge_cut
        monkeypatch.setattr(cubic_module, "min_side_two_edge_cut",
                            lambda h: enumerated.append(h.n) or enumerate_cuts(h))
        find = cubic_module.find_rule
        monkeypatch.setattr(cubic_module, "find_rule", lambda h: before_each_step.append(
            (list(searches), list(enumerated))) or find(h))
        for g, first in ((cycle_graph(60), RuleId.R1_DEGREE2),
                         (blob_ring(30), RuleId.R2_ADJACENT_TRIANGLES),
                         (r5_gadget_pair(), RuleId.R5_TWO_EDGE_CUT)):
            for seen in (searches, enumerated, before_each_step):
                seen.clear()
            cert = solve_cubic(g)
            step = cert.trace[0]
            assert cert.validate(g) and step.rule == first.value
            assert (RuleId(step.rule), step.matched) == reference_find_rule(g)
            assert before_each_step[0] == ([g.n], [])

    def test_every_step_from_the_entry_matches_the_reference_rescan(self):
        # An input without a cut is G0 from step 0; one with a cut is left to
        # R5's own queries, whether R5 fires first or an earlier rule does.
        # Each step of the solve must match a rescan of the graph it ran on.
        rng = random.Random(103)
        graphs = [r5_gadget_pair()]
        for trial in range(10):
            graphs.append(cut_joined_pair(rng, trial, (6, 20)))
            g = random_cubic_2connected(2 * rng.randint(6, 25), trial)
            graphs += [g, subdivided(g, rng, rng.randint(1, 4))]
        starts = Counter()
        for g in graphs:
            if not is_two_connected(g):
                continue
            cert = solve_cubic(g)
            if min_side_two_edge_cut(g) is None:
                starts["G0"] += 1
            else:
                starts[cert.trace[0].rule == RuleId.R5_TWO_EDGE_CUT.value] += 1
            cur = g
            for step in cert.trace[:-1]:
                assert (RuleId(step.rule), step.matched) == reference_find_rule(cur)
                cur = rewired(cur, step.removed_vertices, step.added_edges)
        assert starts["G0"] > 0 and starts[True] > 0 and starts[False] > 0

    def test_r4_instances_solve_within_bound(self):
        for g in (r4_two_equal_instance(), r4_all_distinct_instance()):
            cert = solve_cubic(g)
            assert cert.validate(g)
            assert any(s.rule == RuleId.R4_TWO_SQUARES.value for s in cert.trace)

    def test_r5_instance_solves_within_bound(self):
        g = r5_gadget_pair()
        cert = solve_cubic(g)
        assert cert.validate(g)
        assert cert.trace[0].rule == RuleId.R5_TWO_EDGE_CUT.value

    def test_random_cut_joined_pairs_exercise_r5(self):
        # join two random cubic graphs by a 2-edge cut and solve
        rng = random.Random(77)
        r5_seen = 0
        for trial in range(15):
            g = cut_joined_pair(rng, trial)
            if not is_two_connected(g):
                continue
            cert = solve_cubic(g)
            assert cert.validate(g)
            if any(s.rule == RuleId.R5_TWO_EDGE_CUT.value for s in cert.trace):
                r5_seen += 1
        assert r5_seen >= 3

    def test_property_random_cubic(self):
        rng = random.Random(41)
        for trial in range(150):
            n = 2 * rng.randint(2, 30)
            g = random_cubic_2connected(n, trial)
            cert = solve_cubic(g)
            assert validate_fvs(g, cert.fvs)
            assert 3 * cert.size <= n + 2

    def test_property_random_subcubic(self):
        # subdividing edges of cubic graphs yields 2-connected graphs of
        # maximum degree 3 with plenty of degree-2 vertices
        rng = random.Random(43)
        for trial in range(60):
            g = random_cubic_2connected(2 * rng.randint(3, 20), trial)
            g = subdivided(g, rng, rng.randint(1, g.m // 2))
            assert is_two_connected(g) and g.max_degree() == 3
            cert = solve_cubic(g)
            assert validate_fvs(g, cert.fvs)
            assert 3 * cert.size <= g.n + 2

    def test_r4_matches_cross_checked_against_oracle(self):
        # Wherever the doubled-4-cycle rule fires on a small graph, the lifted
        # set (reduced optimum plus designated vertices) must solve the
        # original; this pins down the spoke relabeling in the two-equal case.
        fired = 0
        rng = random.Random(53)
        candidates = [r4_two_equal_instance(), r4_all_distinct_instance()]
        for trial in range(400):
            # n >= 8 keeps clear of K3,3, whose all-equal case is resolved
            # inline by the base case rather than by a rewrite
            g = random_cubic_2connected(2 * rng.randint(4, 6), trial)
            rule, _ = find_rule(g)
            if rule is RuleId.R4_TWO_SQUARES:
                candidates.append(g)
        for g in candidates:
            rule, match = find_rule(g)
            if rule is not RuleId.R4_TWO_SQUARES:
                continue
            reduced, step = apply_rule(g, rule, match)
            fired += 1
            if reduced.n <= 12:
                sub_opt = min_fvs_naive(reduced)
                reduced_witness = min_fvs_exact(reduced).witness
                lifted = set(reduced_witness) | set(step.designated)
                assert validate_fvs(g, lifted)
                assert min_fvs_exact(g).phi <= sub_opt + len(step.designated)
        assert fired >= 2


def dense_ids(work):
    """The working graph's dense id of each vertex id of its input."""
    return {v: i for i, v in enumerate(work.ids)}


def named_indices(work):
    """``deg2``, ``tri``, ``groups`` and ``twins`` of a working graph, in its input's ids."""
    return ({work.ids[v] for v in work.deg2},
            {work.named(e): work.named(common) for e, common in work.tri.items()},
            {work.named(key): set(work.named(group)) for key, group in work.groups.items()},
            {work.named(key) for key in work.twins})


def assert_indices_current(work):
    # A fresh working graph gives the survivors new dense ids, so the two
    # are compared in the input's ids.
    deg2, tri, groups, twins = named_indices(work)
    fresh_deg2, fresh_tri, fresh_groups, fresh_twins = named_indices(_Work(work.freeze()))
    assert deg2 == fresh_deg2
    # R1 reads the heap: it holds every degree-2 vertex, and its least live
    # entry is the least of them.
    assert work.deg2 <= set(work.deg2_heap)
    live = [v for v in work.deg2_heap if v in work.deg2]
    assert min(live, default=None) == min(work.deg2, default=None)
    assert tri == fresh_tri
    assert groups == fresh_groups
    assert twins == fresh_twins


def dirty_set(before, drop, add):
    """Survivors next to a dropped vertex plus the endpoints of added edges."""
    return ({u for v in drop for u in before.neighbors(v) if u not in drop}
            | {x for e in add for x in e})


def edges_at(g, vertices):
    """The edge keys of g with an end in ``vertices``, sorted."""
    return [e for e in g.edges() if e[0] in vertices or e[1] in vertices]


def assert_records_current(work, g0):
    """``added`` as recomputed from G0 and the current graph, on a cubic G0.

    Also the identity the split targets rely on: a survivor u has
    3 − deg(u) + added(u) G0 edges to the vertices dropped since G0.
    """
    now = work.freeze()
    assert {g0.degree(v) for v in g0.vertices} == {3}
    added_edges = {work.named(e) for e in work.added}
    assert added_edges == {e for e in now.edges() if not g0.has_edge(*e)}
    added = Counter(x for e in added_edges for x in e)
    for u in now.vertices:
        lost = sum(1 for d in g0.neighbors(u) if d not in now)
        assert lost == 3 - now.degree(u) + added[u]


class TestLocalChecks:
    """The flow tests that stand in for the global connectivity queries."""

    def test_whole_vertex_set_gives_the_edge_connectivity(self):
        # With every vertex in the boundary, "no cut of fewer than k edges
        # separates two of them" is k-edge-connectivity itself.
        rng = random.Random(71)
        for _ in range(200):
            g = random_max_deg3_graph(rng.randint(2, 9), rng)
            work = _Work(g)
            lam = edge_connectivity_le3_bruteforce(g)
            for k in (1, 2, 3):
                assert _edge_connected_within(work, work.vertices, k) == (lam >= k)

    def test_solver_graph_catches_a_bridge_behind_one_dirty_vertex(self):
        # Dropping 0 (joined to the square 1-3-2-4 at 1 and 2, and to the
        # diamond 5-6-7-8 at 5) and adding 1-2 leaves the edge 3-8 a bridge.
        # The degree-2 vertices 4 and 5 both have adjacent neighbors, so the
        # step is checked at once. Of the dirty vertices 1, 2 and 5, only 5
        # lies across the bridge, so a check that skipped it would pass.
        g = Graph(range(9), [(1, 3), (2, 3), (2, 4), (1, 4), (0, 1), (0, 2), (0, 5),
                             (3, 8), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8)])
        assert is_two_connected(g) and g.max_degree() == 3
        work = _Work(g)
        with pytest.raises(InternalInvariantBroken, match="not 2-connected"):
            cubic_module._build(work, [0], [(1, 2)], RuleId.R7_GENERIC, (0,), ())
        assert work.pending is None

    def test_failed_three_edge_test_falls_back_to_the_two_edge_test(self):
        # Two copies of the Petersen graph less vertex 0 (ports 1, 4, 5 and
        # 11, 14, 15) joined port to port form a 3-edge-connected graph.
        # Dropping the ports 4, 5, 14 and 15 and closing their neighbors in
        # pairs leaves a cubic graph whose edge 1-11 is a bridge. The
        # λ >= 3 test across the boundary fails, and the λ >= 2 test that
        # must follow it finds the bridge.
        half = [e for e in make_named("petersen").graph.edges() if 0 not in e]
        g = Graph([], half + [(u + 10, v + 10) for u, v in half]
                  + [(1, 11), (4, 14), (5, 15)])
        assert connectivity_le3(g) == (3, 3)
        work = _Work(g)
        work.boundary = set()
        d = dense_ids(work)
        with pytest.raises(InternalInvariantBroken, match="not 2-connected"):
            cubic_module._build(work, [d[4], d[5], d[14], d[15]],
                                [(d[3], d[9]), (d[7], d[8]), (d[13], d[19]), (d[17], d[18])],
                                RuleId.R7_GENERIC, (d[4],), ())

    def test_split_targets_after_an_r7_and_its_r1_step_are_two(self):
        # Six boundary vertices with one G0 edge each, paired by the three
        # added edges: a cut of at most 2 edges can only take one pair, or
        # one pair and one end of another, so one t in each of the two pairs
        # without vertex 0 covers every split.
        six = range(6)
        for a, b in combinations(six, 2):
            for c, d in combinations(sorted(set(six) - {a, b}), 2):
                e, f = sorted(set(six) - {a, b, c, d})
                added = {(a, b), (c, d), (e, f)}
                assert len(_split_targets(0, added)) == 2

    def test_split_targets_of_a_star_or_no_added_edge_are_none(self):
        # R4 joins three outer neighbors to x = 5: every added edge meets
        # every other, so no side of a split holds one that the other misses.
        star = {(1, 5), (2, 5), (3, 5)}
        assert _split_targets(0, star) == []
        assert _split_targets(5, star) == []
        assert _split_targets(0, set()) == []

    def test_split_targets_meet_every_side_that_could_be_cut_off(self):
        # By brute force over every far side F: if F and ∂∖F both hold a
        # whole added edge and s is not in F, some target lies in F.
        rng = random.Random(97)
        shapes = []
        for k in range(2, 11):
            order = rng.sample(range(k), k)
            shapes.append({tuple(sorted((order[0], v))) for v in order[1:]})
            shapes.append({tuple(sorted(p)) for p in zip(order, order[1:])})
            if k % 2 == 0:
                shapes.append({tuple(sorted(order[i:i + 2])) for i in range(0, k, 2)})
            for _ in range(8):
                pairs = list(combinations(range(k), 2))
                shapes.append(set(rng.sample(pairs, rng.randint(1, min(len(pairs), 12)))))
        for added in shapes:
            k = 1 + max(x for e in added for x in e)
            masks = [1 << u | 1 << v for u, v in added]
            full = (1 << k) - 1
            splits = [f for f in range(1, full)
                      if any(f & m == m for m in masks)
                      and any(~f & m == m for m in masks)]
            for s in range(k):
                targets = _split_targets(s, added)
                assert s not in targets
                hit = sum(1 << t for t in targets)
                assert all(f & hit for f in splits if not f >> s & 1), (added, s)

    def test_two_edge_cut_around_two_whole_added_pairs_fails_the_test(self, monkeypatch):
        # Two copies of the Petersen graph less vertex 0 joined port to port
        # (1-11, 4-14, 5-15) form a 3-edge-connected cubic graph G0. R7 at
        # port 1 adds 3-7 and 8-9, and R1 then suppresses 11 by adding 12-16.
        # That leaves 4-14 and 5-15 a 2-edge cut with the pairs {3, 7} and
        # {8, 9} on one side and {12, 16} on the other.
        half = [e for e in make_named("petersen").graph.edges() if 0 not in e]
        g = Graph([], half + [(u + 10, v + 10) for u, v in half]
                  + [(1, 11), (4, 14), (5, 15)])
        assert connectivity_le3(g) == (3, 3)
        work = _Work(g)
        work.mark_three_edge_connected()
        d = dense_ids(work)
        apply_rule(work, RuleId.R7_GENERIC, (d[1], d[2], d[6]))
        assert work.pending is not None
        tests = []
        paths = cubic_module._edge_disjoint_paths
        monkeypatch.setattr(cubic_module, "_edge_disjoint_paths",
                            lambda g, s, t, k: tests.append(work.named((s, t))) or paths(g, s, t, k))
        apply_rule(work, RuleId.R1_DEGREE2, (d[11], d[12], d[16]))
        assert {work.named(e) for e in work.added} == {(3, 7), (8, 9), (12, 16)}
        # The λ >= 3 test fails at its second t, across the cut, and ∂ stays.
        assert tests[:2] == [(3, 8), (3, 12)]
        assert set(work.named(work.boundary)) == {3, 7, 8, 9, 12, 16}
        assert not _three_edge_connected(work)
        assert min_side_two_edge_cut(work.freeze()) is not None

    def test_growing_boundary_matches_every_star_test(self):
        # Rewrites since a 3-edge-connected G0 grow ∂, and at every step the
        # test agrees with the one over every boundary pair. Cuts of fewer
        # than 3 edges split ∂ exactly when the graph has one. Half the runs
        # replace a vertex by a triangle on its neighbors, which keeps
        # λ >= 3 as a rule; the others drop and add at random.
        rng = random.Random(83)
        answers = Counter()
        for trial in range(30):
            g = random_cubic_2connected(2 * rng.randint(12, 30), trial)
            if connectivity_le3(g)[1] != 3:
                continue
            work = _Work(g)
            work.mark_three_edge_connected()
            for _ in range(8):
                if trial % 2:
                    drop = rng.sample(work.vertices, rng.randint(0, 2))
                    rest = [v for v in work.vertices if v not in drop]
                    absent = [e for e in combinations(rest, 2) if not work.has_edge(*e)]
                    add = rng.sample(absent, rng.randint(0, 3))
                else:
                    drop = [rng.choice(work.vertices)]
                    add = [e for e in combinations(work.neighbors(drop[0]), 2)
                           if not work.has_edge(*e)]
                work.rewrite(drop, add)
                local = _three_edge_connected(work)
                assert local == _edge_connected_within(work, work.boundary, 3)
                assert local == (connectivity_le3(work.freeze())[1] == 3)
                answers[local] += 1
        assert answers[True] >= 20 and answers[False] >= 20

    def test_apply_rule_on_a_disconnected_graph_still_raises(self):
        # R1 on the 12-cycle is sound, but beside a disjoint 5-cycle the
        # result is not 2-connected. A caller's graph is not known to be in
        # class, so its result passes the whole-graph exit check: both dirty
        # vertices sit on one cycle.
        g = Graph(range(17), [(i, (i + 1) % 12) for i in range(12)]
                  + [(12 + i, 12 + (i + 1) % 5) for i in range(5)])
        with pytest.raises(InternalInvariantBroken, match="not 2-connected"):
            apply_rule(g, RuleId.R1_DEGREE2, (0, 1, 11))


class TestDegree2Heap:
    """R1 reads the least degree-2 vertex from a heap with lazy deletion."""

    @staticmethod
    def assert_steps_match_reference(work):
        while work.n > BASE_CASE_MAX_N:
            rule, match = find_rule(work)
            assert (rule, work.named(match)) == reference_find_rule(work.freeze())
            apply_rule(work, rule, match)
            assert_indices_current(work)

    def test_cycles_with_shuffled_and_negative_ids(self):
        rng = random.Random(71)
        for n in (11, 12, 40, 97):
            ids = rng.sample(range(-3 * n, 3 * n), n)
            g = Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])
            self.assert_steps_match_reference(_Work(g))

    def test_subdivided_cubic_graphs(self):
        rng = random.Random(73)
        for trial in range(12):
            g = random_cubic_2connected(2 * rng.randint(3, 20), trial + 400)
            self.assert_steps_match_reference(_Work(subdivided(g, rng, rng.randint(1, g.m))))

    def test_a_vertex_that_leaves_degree_2_and_comes_back(self):
        work = _Work(cycle_graph(16))
        assert find_rule(work) == (RuleId.R1_DEGREE2, (0, 1, 15))
        # A chord lifts 0 to degree 3; its heap entry goes stale.
        work.rewrite([], [(0, 8)])
        assert_indices_current(work)
        assert 0 not in work.deg2
        assert find_rule(work) == reference_find_rule(work.freeze()) == (
            RuleId.R1_DEGREE2, (1, 0, 2))
        # Dropping the chord's other end brings 0 back to degree 2.
        work.rewrite([8], [(7, 9)])
        assert_indices_current(work)
        assert find_rule(work) == reference_find_rule(work.freeze()) == (
            RuleId.R1_DEGREE2, (0, 1, 15))
        self.assert_steps_match_reference(work)


class TestColoredSearch:
    """The colored search that certifies λ(s, t) >= 3 before Ford-Fulkerson runs."""

    def test_certifies_only_pairs_joined_by_three_edge_disjoint_paths(self):
        # Every pair of small random graphs of maximum degree 3, against
        # λ(s, t) by brute force; the flow test stays exact for every k.
        rng = random.Random(89)
        answers = Counter()
        for trial in range(150):
            if trial % 3:
                g = random_max_deg3_graph(rng.randint(4, 12), rng)
            else:
                g = random_cubic_2connected(2 * rng.randint(3, 6), trial)
            work = _Work(g)
            adj = work.adj
            for (s, t), lam in local_edge_connectivity_le3(g).items():
                for k in (1, 2, 3):
                    assert _edge_disjoint_paths(work, s, t, k) == (lam >= k)
                if len(adj[s]) == len(adj[t]) == 3 and t not in adj[s]:
                    found = _three_disjoint_paths(work, s, t)
                    assert lam == 3 or not found, (g.edges(), s, t)
                    answers[found, lam] += 1
        assert answers[True, 3] > answers[False, 3] > 0
        assert answers[False, 2] > 0 and answers[False, 1] > 0

    def test_certifies_most_passing_tests_of_a_random_cubic_solve(self, monkeypatch):
        counts = Counter()
        search, flow = _three_disjoint_paths, _edge_disjoint_paths

        def counted_search(g, s, t):
            found = search(g, s, t)
            counts["certified"] += found
            return found

        def counted_flow(g, s, t, k):
            passed = flow(g, s, t, k)
            counts["passed"] += k == 3 and passed
            return passed

        monkeypatch.setattr(cubic_module, "_three_disjoint_paths", counted_search)
        monkeypatch.setattr(cubic_module, "_edge_disjoint_paths", counted_flow)
        solve_cubic(random_cubic_2connected(400, 1))
        assert counts["passed"] > 100
        assert counts["certified"] >= 0.9 * counts["passed"]

    def test_a_greedy_miss_falls_back_to_ford_fulkerson(self, monkeypatch):
        # s = 5 has neighbors 0, 2, 6 and t = 7 has 0, 1, 4; 5-0-7, 5-2-1-7
        # and 5-6-3-4-7 are three disjoint paths. But t's side, the smaller,
        # grows first, and its tree at 1 takes vertex 3 before its tree at 4
        # can; the tree at 4 then meets no s-tree, t's side runs out, and
        # Ford-Fulkerson decides.
        g = Graph(range(8), [(0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 7), (2, 5),
                             (3, 4), (3, 6), (4, 7), (5, 6)])
        work = _Work(g)
        assert local_edge_connectivity_le3(g)[5, 7] == 3
        assert not _three_disjoint_paths(work, 5, 7)
        searches = []
        residual = cubic_module._residual_path
        monkeypatch.setattr(cubic_module, "_residual_path",
                            lambda *args: searches.append(args[1:3]) or residual(*args))
        assert _edge_disjoint_paths(work, 5, 7, 3)
        assert searches == [(5, 7)] * 3


class TestWorkingGraph:
    """The in-place rewrites and dirty-set indices against a full rescan."""

    @staticmethod
    def step_through(g):
        """Yield each step's rule and the local R5 answer after it (None before any proof)."""
        work = _Work(g)
        frozen = work.freeze()
        assert frozen == g
        g0 = None
        while work.n > BASE_CASE_MAX_N:
            rule, match = find_rule(work)
            assert (rule, work.named(match)) == reference_find_rule(frozen)
            if work.boundary == set():
                g0 = frozen  # R5's global search found no cut
            before = frozen
            known = work.boundary is not None
            _, step = apply_rule(work, rule, match)
            frozen = work.freeze()
            assert frozen == rewired(before, step.removed_vertices, step.added_edges)
            assert_canonical(step)
            assert step.removed_vertices == tuple(v for v in before.vertices if v not in frozen)
            assert step.removed_edges == tuple(edges_at(before, step.removed_vertices))
            assert step.added_edges == tuple(e for e in frozen.edges() if not before.has_edge(*e))
            # The public path on a caller's Graph gives the same result and step.
            assert apply_rule(before, rule, work.named(match)) == (frozen, step)
            assert_indices_current(work)
            d = dense_ids(work)
            dirty = dirty_set(before, step.removed_vertices, step.added_edges)
            assert _edge_connected_within(work, [d[v] for v in dirty], 2) == is_two_connected(frozen)
            if known and not work.deg2:
                # The step asked λ >= 3 across ∂: a pass proves the graph
                # 3-edge-connected and empties ∂.
                assert (work.boundary == set()) == (min_side_two_edge_cut(frozen) is None)
            r5_local = None
            if work.boundary == set():
                g0 = frozen
            if work.boundary is not None:
                assert_records_current(work, g0)
                r5_local = _edge_connected_within(work, work.boundary, 3)
                assert r5_local == (min_side_two_edge_cut(frozen) is None)
                assert _three_edge_connected(work) == r5_local
            yield rule, r5_local

    def corpus(self):
        rng = random.Random(59)
        for trial in range(25):
            yield random_cubic_2connected(2 * rng.randint(6, 100), trial)
        for trial in range(15):
            g = random_cubic_2connected(2 * rng.randint(3, 30), trial + 200)
            yield subdivided(g, rng, rng.randint(1, g.m // 2))
        for trial in range(8):
            yield triangle_replace(random_cubic_2connected(2 * rng.randint(2, 12), trial + 300))
        rng = random.Random(77)
        for trial in range(15):
            g = cut_joined_pair(rng, trial)
            if is_two_connected(g):
                yield g

    def test_matches_reference_rescan_at_every_step(self):
        # Also asks the local checks at every step, whatever the graph size.
        # The R5 test answers both ways: an R7 step leaves a degree-2 vertex.
        fired, r5_answers = set(), set()
        for g in self.corpus():
            for rule, r5_local in self.step_through(g):
                fired.add(rule)
                r5_answers.add(r5_local)
        assert fired == set(RuleId) - {RuleId.R0_BASE}
        assert {True, False} <= r5_answers

    def test_indices_match_a_rebuild_after_random_rewrites(self):
        # Rewrites no rule makes, such as dropping one of two vertices with
        # the same neighbors, must leave the indices current too. The local
        # checks meet graphs that lost 2- or 3-edge-connectivity here.
        rng = random.Random(67)
        answers = set()
        starts = [random_max_deg3_graph(rng.randint(4, 14), rng) for _ in range(300)]
        starts += [random_cubic_2connected(2 * rng.randint(2, 7), trial) for trial in range(300)]
        for g in starts:
            work = _Work(g)
            if connectivity_le3(g)[1] == 3:
                work.mark_three_edge_connected()
            for _ in range(3):
                vertices = work.vertices
                drop = rng.sample(vertices, rng.randint(0, min(3, len(vertices))))
                rest = [v for v in vertices if v not in drop]
                absent = [e for e in combinations(rest, 2) if not work.has_edge(*e)]
                add = rng.sample(absent, min(len(absent), rng.randint(0, 3)))
                before = work.freeze()
                expected = rewired(before, drop, add)
                dirty, removed, added = work.rewrite(drop, add)
                after = work.freeze()
                assert after == expected
                assert_indices_current(work)
                assert set(dirty) == dirty_set(before, drop, add)
                assert all(tuple(ns) == after.neighbors(v) for v, ns in dirty.items())
                assert sorted(removed) == sorted(edges_at(before, drop))
                assert sorted(added) == sorted((min(e), max(e)) for e in add)
                if is_two_connected(before) and after.max_degree() <= 3:
                    local = after.n >= 3 and _edge_connected_within(work, dirty, 2)
                    assert local == is_two_connected(after)
                    answers.add((2, local))
                if work.boundary is not None:
                    assert_records_current(work, g)
                    local = _edge_connected_within(work, work.boundary, 3)
                    assert _three_edge_connected(work) == local
                    if after.n >= 2:
                        assert local == (connectivity_le3(after)[1] == 3)
                        answers.add((3, local))
        assert answers == {(2, True), (2, False), (3, True), (3, False)}

    def test_graph_arguments_are_left_unchanged(self):
        g = r5_gadget_pair()
        before = Graph(g.vertices, g.edges())
        rule, match = find_rule(g)
        reduced, _ = apply_rule(g, rule, match)
        assert g == before
        assert isinstance(reduced, Graph) and reduced.n < g.n

    def test_rewrite_rejects_non_simple_results(self):
        for drop, add in (([], [(0, 0)]), ([], [(0, 1)]), ([0], [(0, 5)]),
                          ([], [(1, 99)]), ([99], [])):
            work = _Work(make_named("petersen").graph)
            with pytest.raises(ValueError):
                work.rewrite(drop, add)
            assert work.freeze() == make_named("petersen").graph


def moved(g, rng):
    """g with its ids moved by a strictly increasing map, and the map.

    The new ids run from -10^12 to 10^12 with random gaps between them.
    """
    new = [-10**12, *sorted(rng.sample(range(1 - 10**12, 10**12), g.n - 2)), 10**12]
    to = dict(zip(g.vertices, new))
    return Graph(new, [(to[u], to[v], g.weight(u, v)) for u, v in g.edges()]), to


def moved_step(step, to):
    """``step`` with every vertex id moved by ``to``."""
    def ids(vertices):
        return tuple(to[v] for v in vertices)
    return ReductionStep(rule=step.rule, matched=ids(step.matched),
                         removed_vertices=ids(step.removed_vertices),
                         removed_edges=tuple(ids(e) for e in step.removed_edges),
                         added_edges=tuple(ids(e) for e in step.added_edges),
                         designated=ids(step.designated), note=step.note)


class TestDenseIds:
    """The working graph renames ids to 0..n-1 in ascending order and back."""

    @staticmethod
    def corpus():
        rng = random.Random(109)
        for trial in range(6):
            g = random_cubic_2connected(2 * rng.randint(8, 60), trial)
            yield g
            yield subdivided(g, rng, rng.randint(1, g.m // 2))
            yield triangle_replace(random_cubic_2connected(2 * rng.randint(3, 10), trial + 500))
            g = cut_joined_pair(rng, trial)
            if is_two_connected(g):
                yield g

    def test_solve_is_invariant_under_an_increasing_relabel(self):
        # An increasing map keeps every comparison of ids, so the moved
        # input's set and trace are the moved set and trace.
        rng = random.Random(127)
        rules = set()
        for g in self.corpus():
            mg, to = moved(g, rng)
            cert, mcert = solve_cubic(g), solve_cubic(mg)
            assert mcert.fvs == {to[v] for v in cert.fvs}
            assert mcert.trace == tuple(moved_step(step, to) for step in cert.trace)
            assert (mcert.bound_num, mcert.bound_den) == (cert.bound_num, cert.bound_den)
            rules.update(step.rule for step in cert.trace)
        assert rules == {rule.value for rule in RuleId}

    def test_find_and_apply_rule_on_a_graph_use_its_own_ids(self):
        rng = random.Random(131)
        for g in self.corpus():
            mg, to = moved(g, rng)
            rule, match = find_rule(g)
            moved_match = tuple(to[v] for v in match)
            assert find_rule(mg) == (rule, moved_match)
            reduced, step = apply_rule(g, rule, match)
            mreduced, mstep = apply_rule(mg, rule, moved_match)
            assert mstep == moved_step(step, to)
            assert mreduced == Graph([to[v] for v in reduced.vertices],
                                     [(to[u], to[v]) for u, v in reduced.edges()])
            # The input's own ids are not the moved graph's: a stale match.
            with pytest.raises(InternalInvariantBroken, match="stale match"):
                apply_rule(mg, rule, match)

    def test_stamped_searches_across_rewrites_match_brute_force(self):
        # One working graph runs every λ test in turn, across random
        # rewrites. Labels are never cleared, each search takes a new epoch,
        # and a colored search that succeeds stops with its trees half grown,
        # so the lists hold labels of many earlier searches.
        rng = random.Random(137)
        answers = Counter()
        for trial in range(3):
            g, _ = moved(random_cubic_2connected(2 * rng.randint(8, 10), trial), rng)
            work = _Work(g)
            while work.n > 6:
                d = dense_ids(work)
                adj = work.adj
                for (s, t), lam in local_edge_connectivity_le3(work.freeze()).items():
                    s, t = d[s], d[t]
                    for k in (1, 2, 3):
                        assert _edge_disjoint_paths(work, s, t, k) == (lam >= k)
                        answers["tests"] += 1
                    if len(adj[s]) == len(adj[t]) == 3 and t not in adj[s]:
                        found = _three_disjoint_paths(work, s, t)
                        assert lam == 3 or not found
                        answers[found] += 1
                v = rng.choice(work.vertices)
                pairs = [e for e in combinations(work.neighbors(v), 2) if not work.has_edge(*e)]
                work.rewrite([v], rng.sample(pairs, rng.randint(0, len(pairs))))
        assert answers["tests"] >= 2000
        assert answers[True] > 100 and answers[False] > 10

    def test_a_random_cubic_solve_runs_the_same_searches(self, monkeypatch):
        # Pinned counts for random_cubic_2connected(800, 1): colored searches,
        # their successes, and λ >= 3 tests that Ford-Fulkerson decides.
        # Storage changes must not change which searches run.
        counts = Counter()
        search, flow, residual = _three_disjoint_paths, _edge_disjoint_paths, cubic_module._residual_path

        def counted_search(g, s, t):
            found = search(g, s, t)
            counts["searches"] += 1
            counts["certified"] += found
            return found

        def counted_flow(g, s, t, k):
            augmenting = counts["augmenting"]
            passed = flow(g, s, t, k)
            counts["fallbacks"] += k == 3 and counts["augmenting"] > augmenting
            return passed

        def counted_residual(*args):
            counts["augmenting"] += 1
            return residual(*args)

        monkeypatch.setattr(cubic_module, "_three_disjoint_paths", counted_search)
        monkeypatch.setattr(cubic_module, "_edge_disjoint_paths", counted_flow)
        monkeypatch.setattr(cubic_module, "_residual_path", counted_residual)
        solve_cubic(random_cubic_2connected(800, 1))
        assert counts == Counter(searches=374, certified=373, fallbacks=7, augmenting=21)
