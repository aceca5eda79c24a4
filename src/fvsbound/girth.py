"""Feedback vertex sets for weighted plane graphs with heavy cycles.

For a plane graph whose every cycle has total edge weight at least g, the
solver certifies 3g|S| <= 4*weight(G). Rules fire in strict priority order,
each only when all earlier ones cannot:

  P0  prune degree <= 1 vertices (on no cycle),
  P1  decompose at a cut vertex or across components,
  P2  take one vertex of a lone cycle, or merge three faces around a face
      with at most two branch vertices and keep its crucial vertex,
  P3  split a vertex of degree >= 4 into an adjacent pair joined by a
      weight-0 edge,
  P4  suppress every degree-2 vertex, each into a summed-weight edge,
  P5  the graph is now 2-connected cubic and plane: hand off to the subcubic
      solver, whose n-bound converts into the weight bound via Euler's
      formula.

Once P2 fails, P3, P4 and P5 run straight through: a split, whose two new
vertices have degree >= 3 and take over v's faces, and a suppression both keep
the graph 2-connected with three branch vertices (degree >= 3) on every face.
So P3 and P4 edit one rotation dict and one weight map in place, and only
the cubic graph at the end is built and its faces walked, once: that walk
re-checks Euler's relation, and the face count must not have changed.
``validate_every_step`` instead builds and re-checks the graph once per split
and suppression and returns the last one; each checked graph is measured once,
its measure carried on the work stack and from one tail check to the next.

Every step strictly shrinks (total weight, doubled degree potential)
lexicographically, which guarantees termination: mergers remove weight,
splits and suppressions each cost one unit of potential, and decompositions
drop whole vertex sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .certificate import BoundKind, FvsCertificate, ReductionStep
from .errors import InternalInvariantBroken, PreconditionViolated
from .cubic import solve_cubic
from .graph import (EdgeKey, Graph, _components, connected_components, cut_vertices, edge_key,
                    girth, is_two_connected, peel_degree_le1, validate_fvs, weighted_girth)
from .planar import (
    PlaneGraph,
    _guaranteed_merger,
    _plane_graph_of,
    _split_in_place,
    _suppress_in_place,
    apply_merger,
    plane_subgraph,
)


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Knobs for the weighted solver; g is the certified minimum cycle weight."""

    g: int
    validate_every_step: bool = False

    def __post_init__(self):
        if self.g < 3:
            raise PreconditionViolated("g must be at least 3")


def doubled_potential(g: Graph) -> int:
    """Twice the degree potential, kept integral: sum of max(1, 2d(v) - 5)."""
    return sum(max(1, 2 * len(ring) - 5) for ring in g._adj.values())


Measure = tuple[int, int]


def _measure(g: Graph) -> Measure:
    return (g.total_weight(), doubled_potential(g))


def _check_child(cfg: SolverConfig, parent: Measure | None,
                 child: PlaneGraph) -> tuple[PlaneGraph, Measure | None]:
    """Under ``validate_every_step``, check the girth and the drop from ``parent``."""
    if not cfg.validate_every_step:
        return child, None
    if child.graph.m and weighted_girth(child.graph, below=cfg.g) < cfg.g:
        raise InternalInvariantBroken(
            "a rule produced a cycle lighter than g")
    measure = _measure(child.graph)
    if measure >= parent:
        raise InternalInvariantBroken(
            "termination measure failed to decrease")
    return child, measure


def solve_planar_weighted(pg: PlaneGraph, cfg: SolverConfig) -> FvsCertificate:
    """Certified set with 3g|S| <= 4*weight(G) for a plane graph with heavy cycles.

    Validates the minimum cycle weight once on entry; with
    ``cfg.validate_every_step`` it is re-checked after every rule firing,
    along with the termination measure.
    """
    graph = pg.graph
    if graph.m and weighted_girth(graph, below=cfg.g) < cfg.g:
        raise PreconditionViolated(
            f"some cycle weighs less than g = {cfg.g}")
    fvs, trace = _solve(pg, cfg)
    total = graph.total_weight()
    cert = FvsCertificate(fvs=frozenset(fvs),
                          bound_kind=BoundKind.PLANAR_WEIGHTED,
                          bound_num=4 * total, bound_den=3 * cfg.g,
                          trace=tuple(trace))
    if not validate_fvs(graph, cert.fvs) or not cert.meets_bound():
        raise InternalInvariantBroken("assembled set misses the weight bound")
    return cert


def _solve(pg: PlaneGraph, cfg: SolverConfig) -> tuple[set[int], list[ReductionStep]]:
    # A LIFO stack of (P1 step to log on pop, plane graph, its measure if checked).
    root = _measure(pg.graph) if cfg.validate_every_step else None
    todo: list[tuple[ReductionStep | None, PlaneGraph, Measure | None]] = [(None, pg, root)]
    chosen: set[int] = set()
    trace: list[ReductionStep] = []
    while todo:
        step, pg, measure = todo.pop()
        if step is not None:
            trace.append(step)
        graph = pg.graph
        if graph.n == 0:
            continue

        # P0: vertices of degree <= 1 lie on no cycle.
        dropped = peel_degree_le1(graph)
        if dropped:
            gone = tuple(sorted(dropped))
            trace.append(ReductionStep(rule="P0_prune", matched=gone, removed_vertices=gone))
            rest = plane_subgraph(pg, set(graph.vertices) - dropped)
            todo.append((None, *_check_child(cfg, measure, rest)))
            continue

        # P1: decompose across components or at a cut vertex; the sides share
        # at most the cut vertex, so their sets union to a feedback vertex set.
        # faces_of checked f = m - n + 2c, so connected means f = m - n + 2.
        sides = []
        if pg.face_count() != graph.m - graph.n + 2:
            comps = connected_components(graph)
            sides = [(ReductionStep(rule="P1_decompose", matched=(min(comp),), note="disconnected"),
                      comp) for comp in comps[:-1]] + [(None, comps[-1])]
        elif cuts := cut_vertices(graph):
            x = cuts[0]
            # The first component once x's edges are gone, other than {x}.
            first = next(comp for comp in _components(graph, [(x, u) for u in graph.neighbors(x)])
                         if x not in comp)
            sides = [(ReductionStep(rule="P1_decompose", matched=(x,)), first | {x}),
                     (None, set(graph.vertices) - first)]
        if sides:
            todo.extend(reversed([
                (side_step, *_check_child(cfg, measure, plane_subgraph(pg, side)))
                for side_step, side in sides]))
            continue

        # P2: a lone cycle needs one vertex; otherwise a guaranteed merger
        # trades its crucial vertex for a 3g/4 drop in total weight. P0 and P1
        # have left a 2-connected graph, so the search skips that check.
        if all(graph.degree(v) == 2 for v in graph.vertices):
            v = min(graph.vertices)
            trace.append(ReductionStep(
                rule="P2_merge", matched=(v,), designated=(v,),
                note="single cycle"))
            chosen.add(v)
            continue
        spec = _guaranteed_merger(pg, cfg.g)
        if spec is not None:
            trace.append(ReductionStep(
                rule="P2_merge", matched=(spec.f0, spec.f1, spec.f2),
                removed_edges=tuple(sorted(spec.removed_edges)), designated=(spec.crucial,)))
            chosen.add(spec.crucial)
            todo.append((None, *_check_child(cfg, measure, apply_merger(pg, spec))))
            continue

        # P3 and P4 run straight through (module docstring), then P5.
        pg, lift, steps = _split_and_suppress(pg, cfg, measure)
        trace.extend(steps)
        graph = pg.graph

        # P5: 2-connected cubic plane graph; the n-bound chains into the
        # weight bound through Euler's formula and the face weights.
        cert = solve_cubic(graph)
        f = pg.face_count()
        total = graph.total_weight()
        if graph.n != 2 * (f - 2):
            raise InternalInvariantBroken("cubic plane graph violates n = 2(f-2)")
        if cfg.g * f > 2 * total:
            raise InternalInvariantBroken("face weights undercut g*f <= 2*weight")
        if 3 * cfg.g * cert.size > 4 * total:
            raise InternalInvariantBroken("cubic bound chain missed the weight bound")
        trace.append(ReductionStep(
            rule="P5_cubic_base", matched=(),
            removed_vertices=graph.vertices,
            designated=tuple(sorted(cert.fvs))))
        trace.extend(cert.trace)
        chosen |= {lift.get(x, x) for x in cert.fvs}
    return chosen, trace


def _split_and_suppress(pg: PlaneGraph, cfg: SolverConfig, measure: Measure | None
                        ) -> tuple[PlaneGraph, dict[int, int], list[ReductionStep]]:
    """P3 then P4 on a 2-connected plane graph with no guaranteed merger.

    Runs on one rotation dict and one weight map and builds the cubic result
    once. Under ``cfg.validate_every_step`` (``measure`` is pg's) it builds,
    checks and measures the graph once per split and suppression instead, and
    returns the last one; ``_plane_graph_of`` copies both maps, so later edits
    leave it alone. Returns the result, the map from split ids to the input
    vertices they replace, and the steps.
    """
    order, weights = dict(pg.rotation.order), pg.graph.edge_weights()
    lift: dict[int, int] = {}
    steps: list[ReductionStep] = []
    out = pg

    # P3 splits the smallest vertex of maximum degree >= 4; a set taking w or
    # w' takes v before it. Only w' (degree d - 1) joins the heap, since a
    # split changes no other survivor's degree.
    heap = [(-len(ring), v) for v, ring in order.items() if len(ring) >= 4]
    heapq.heapify(heap)
    top = max(order)
    while heap:
        neg_deg, v = heapq.heappop(heap)
        w, w_prime = _split_in_place(order, weights, v, top)
        top = w_prime
        if neg_deg < -4:
            heapq.heappush(heap, (neg_deg + 1, w_prime))
        steps.append(ReductionStep(
            rule="P3_split", matched=(v, w, w_prime), removed_vertices=(v,)))
        lift[w] = lift[w_prime] = lift.get(v, v)
        if cfg.validate_every_step:
            out, measure = _check_tail_edit(cfg, measure, order, weights, "split")

    # P4: suppress every degree-2 vertex, smallest first; a triangle through
    # one would bound a face that P2 merges. A suppression keeps the maximum
    # degree and makes no new 2-vertex.
    for v in sorted(v for v, ring in order.items() if len(ring) == 2):
        u, w = sorted(order[v])
        if edge_key(u, w) in weights:
            raise InternalInvariantBroken(
                "degree-2 vertex on a triangle survived past the merger rule")
        _suppress_in_place(order, weights, v)
        steps.append(ReductionStep(
            rule="P4_suppress", matched=(v, u, w), removed_vertices=(v,),
            added_edges=((u, w),)))
        if cfg.validate_every_step:
            out, measure = _check_tail_edit(cfg, measure, order, weights, "suppression")

    if steps and not cfg.validate_every_step:
        out = _plane_graph_of(order, weights)
    if out.face_count() != pg.face_count():
        raise InternalInvariantBroken("splits and suppressions must keep the face count")
    return out, lift, steps


def _check_tail_edit(cfg: SolverConfig, parent: Measure, order: dict[int, tuple[int, ...]],
                     weights: dict[EdgeKey, int], surgery: str) -> tuple[PlaneGraph, Measure]:
    """Build the graph after one split or suppression and check P0-P2 stay silent."""
    child, measure = _check_child(cfg, parent, _plane_graph_of(order, weights))
    graph = child.graph
    if not is_two_connected(graph) or _guaranteed_merger(child, cfg.g) is not None \
            or (surgery == "suppression" and graph.max_degree() > 3):
        raise InternalInvariantBroken(f"a {surgery} let an earlier rule match")
    return child, measure


def solve_planar_unweighted(pg: PlaneGraph) -> FvsCertificate:
    """Unweighted wrapper: weights 1, g = girth, certified 3*girth*|S| <= 4m."""
    graph = pg.graph
    gr = girth(graph)
    if gr == float("inf"):
        return FvsCertificate(fvs=frozenset(),
                              bound_kind=BoundKind.PLANAR_4M_OVER_3G,
                              bound_num=0, bound_den=1)
    unit = Graph(graph.vertices, [(u, v, 1) for u, v in graph.edges()])
    cert = solve_planar_weighted(replace(pg, graph=unit), SolverConfig(g=int(gr)))
    out = FvsCertificate(fvs=cert.fvs,
                         bound_kind=BoundKind.PLANAR_4M_OVER_3G,
                         bound_num=4 * graph.m, bound_den=3 * int(gr),
                         trace=cert.trace)
    if not out.validate(graph):
        raise InternalInvariantBroken("unweighted bound lost in rewrap")
    return out


def trivial_baseline(pg: PlaneGraph) -> FvsCertificate:
    """Greedy face-count reduction: remove vertices on two or more faces.

    Certifies g|S| <= 2*weight(G): each removal merges faces, and a plane
    graph with heavy cycles has at most 2*weight/g faces on its cyclic
    components. The face count is the proof, not the algorithm: a vertex lies
    on two or more faces exactly when it ends a non-bridge edge (that edge
    borders two faces, the darts at a vertex with only bridges share one face
    walk, and an isolated vertex borders none). So each round removes the
    smallest such vertex, until only bridges, a forest, remain.

    By cycle-cut duality an edge is a bridge exactly when one face lies on
    both of its sides, and deleting an edge merges those two faces. So a
    union-find over the ids of ``pg.faces`` tracks the faces of each reduced
    graph (the dynamic plane graph trick of Eppstein et al., J. Algorithms
    13, 1992). Deletions never turn a bridge into a cycle edge, so the picks
    rise in id order and one ascending scan makes them all, in
    O((n + m) * alpha) besides ``weighted_girth`` and the final check.
    """
    graph = pg.graph
    total = graph.total_weight()
    wg = weighted_girth(graph)
    if wg == 0:
        raise PreconditionViolated(
            "a cycle of weight 0 leaves the bound 2*weight/g undefined")
    face_of = pg.dart_face
    parent = list(range(len(pg.faces)))

    def find(f: int) -> int:
        root = f
        while parent[root] != root:
            root = parent[root]
        while parent[f] != root:
            parent[f], f = root, parent[f]
        return root

    chosen: set[int] = set()
    steps: list[ReductionStep] = []
    for v in graph.vertices:  # ascending; every smaller vertex is already gone
        sides = [(find(face_of[(v, u)]), find(face_of[(u, v)]))
                 for u in graph.neighbors(v) if u > v]
        if all(a == b for a, b in sides):
            continue  # only bridges: dropping them merges no faces
        chosen.add(v)
        one = (v,)
        steps.append(ReductionStep(rule="baseline_remove", matched=one,
                                   removed_vertices=one, designated=one))
        for a, b in sides:
            parent[find(a)] = find(b)
    # A forest has g infinite, so 2*weight/g is 0.
    num, den = (0, 1) if wg == float("inf") else (2 * total, int(wg))
    cert = FvsCertificate(fvs=frozenset(chosen),
                          bound_kind=BoundKind.TRIVIAL_2M_OVER_G,
                          bound_num=num, bound_den=den, trace=tuple(steps))
    if not cert.validate(graph):
        raise InternalInvariantBroken("baseline missed its own bound")
    return cert
