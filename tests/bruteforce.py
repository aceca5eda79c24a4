"""Independent brute-force oracles for cross-checking the production code.

Everything here is deliberately naive: exhaustive enumeration over cycles,
cuts, and subsets, and a full rescan of the graph for each cubic rule match.
Nothing imports solver internals beyond the Graph type, the rule ids, the
bridge and 2-edge-cut queries, the forest test, the peeling and
shortest-cycle helpers that the reference oracle search shares with the
real one, and the plane-graph constructor and K4 rotation that the
reference generator grows from.
"""

from __future__ import annotations

import gc
import heapq
import inspect
import random
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

from fvsbound.cubic import RuleId
from fvsbound.errors import MemberNotInGraph
from fvsbound.graph import (
    Graph,
    bridges,
    edge_key,
    is_forest,
    min_side_two_edge_cut,
    peel_degree_le1,
    shortest_cycle,
)
from fvsbound.instances import _K4_ROTATION, random_cubic_2connected
from fvsbound.planar import PlaneGraph, _plane_graph_of, embed, faces_of


def enumerate_simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All simple cycles, each once: smallest vertex first, smaller direction."""
    cycles: list[tuple[int, ...]] = []
    for root in g.vertices:
        stack: list[tuple[int, list[int]]] = [(root, [root])]
        while stack:
            v, path = stack.pop()
            for u in g.neighbors(v):
                if u == root and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif u > root and u not in path:
                    stack.append((u, path + [u]))
    return cycles


def girth_by_enumeration(g: Graph) -> int | float:
    cycles = enumerate_simple_cycles(g)
    return min((len(c) for c in cycles), default=float("inf"))


def weighted_girth_by_enumeration(g: Graph) -> int | float:
    best: int | float = float("inf")
    for cycle in enumerate_simple_cycles(g):
        w = sum(g.weight(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle)))
        best = min(best, w)
    return best


def vertex_connectivity_le3_bruteforce(g: Graph) -> int:
    """Largest k <= 3 such that |V| > k and no < k vertices disconnect."""
    best = 0
    for k in (1, 2, 3):
        if g.n <= k:
            break
        ok = all(
            is_connected(g.without_vertices(cut))
            for size in range(k)
            for cut in combinations(g.vertices, size))
        if not ok:
            break
        best = k
    return best


def edge_connectivity_le3_bruteforce(g: Graph) -> int:
    """Largest k <= 3 such that |V| > 1 and no < k edges disconnect."""
    best = 0
    edges = g.edges()
    for k in (1, 2, 3):
        if g.n <= 1:
            break
        ok = all(
            is_connected(without_edges(g, cut))
            for size in range(k)
            for cut in combinations(edges, size))
        if not ok:
            break
        best = k
    return best


def all_two_edge_cuts(g: Graph) -> list[tuple[frozenset, tuple[set, set]]]:
    """Every minimal 2-edge cut-set with its two sides (g must be bridgeless)."""
    out = []
    edges = g.edges()
    for e, f in combinations(edges, 2):
        rest = without_edges(g, [e, f])
        if is_connected(rest):
            continue
        comps = [set(c) for c in _components(rest)]
        if len(comps) != 2:
            continue
        out.append((frozenset((e, f)), (comps[0], comps[1])))
    return out


def without_edges(g: Graph, drop) -> Graph:
    """g with the edges ``drop`` deleted and every vertex kept."""
    drop_set = {tuple(sorted(e)) for e in drop}
    return Graph(g.vertices, [(u, v, w) for (u, v), w in g.edge_weights().items()
                              if (u, v) not in drop_set])


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_components(g)) == 1


def rewired(g: Graph, drop_vertices=(), add_edges=()) -> Graph:
    """Remove vertices, then add edges among the survivors."""
    drop = set(drop_vertices)
    kept = [(u, v, g.weight(u, v)) for u, v in g.edges() if u not in drop and v not in drop]
    return Graph(set(g.vertices) - drop, kept + list(add_edges))


def assert_canonical(step) -> None:
    """A step's removed vertices, removed edges and added edges are tuples in
    strictly ascending order, and each edge (u, v) has u < v."""
    for field in (step.removed_vertices, step.removed_edges, step.added_edges):
        assert type(field) is tuple
        assert all(a < b for a, b in zip(field, field[1:]))
    assert all(u < v for u, v in step.removed_edges + step.added_edges)


def retained_bytes_per_step(solve) -> float:
    """Bytes that the certificate ``solve()`` returns holds, per trace step.

    Traced by tracemalloc from just before the call until the certificate
    is back and the garbage collected. A first call runs untraced, so the
    allocations any first call makes once are not counted.
    """
    solve()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = solve()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(cert.trace)


def shifted(g: Graph) -> tuple[Graph, int]:
    """g with every id moved by d so that the largest is -1, and d.

    The move keeps the order of ids, so every sorted answer of g, moved by
    d, is the answer of the shifted graph.
    """
    d = -1 - max(g.vertices)
    return Graph([v + d for v in g.vertices],
                 [(u + d, v + d, w) for (u, v), w in g.edge_weights().items()]), d


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def chorded_c6() -> Graph:
    return Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


def wheel(k: int) -> Graph:
    """The rim 0..k-1 and the hub k."""
    return Graph(range(k + 1),
                 [(k, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)])


def plane(g: Graph) -> PlaneGraph:
    """g with the faces of the rotation ``embed`` finds; g must be planar."""
    rot = embed(g)
    assert rot is not None
    return faces_of(g, rot)


def _components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = {root}
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def random_max_deg3_graph(n: int, rng: random.Random) -> Graph:
    """Random simple graph with maximum degree 3 (possibly disconnected)."""
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    degree = {v: 0 for v in range(n)}
    edges = []
    target = rng.randint(0, (3 * n) // 2)
    for u, v in candidates:
        if len(edges) >= target:
            break
        if degree[u] < 3 and degree[v] < 3:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(range(n), edges)


def random_simple_graph(n: int, rng: random.Random, p: float = 0.35) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


# -- cubic solver fixtures ---------------------------------------------------


def r5_gadget_pair():
    """Two 10-vertex cubic gadgets joined by a 2-edge cut at (0,10), (9,19).

    Each gadget has one triangle at its cut vertex, so the cut rule lands in
    its triangle branch (the cut endpoint's other two neighbors are adjacent).
    """
    local = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6), (4, 7),
             (4, 8), (5, 7), (5, 9), (6, 8), (6, 9), (7, 8)]
    edges = local + [(u + 10, v + 10) for u, v in local] + [(0, 10), (9, 19)]
    return Graph(range(20), edges)


def r4_two_equal_instance():
    """n=14 cubic graph whose first match is the doubled 4-cycle, two-equal case."""
    block_a = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (4, 5), (3, 6)]
    block_b = [(7, 9), (7, 10), (7, 11), (8, 9), (8, 10), (8, 11), (9, 12),
               (11, 12), (10, 13)]
    joins = [(5, 13), (12, 6), (6, 13)]
    return Graph(range(14), block_a + block_b + joins)


def r4_all_distinct_instance():
    """n=16 cubic graph whose first match is the doubled 4-cycle, all-distinct case."""
    block_a = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)]
    block_b = [(8, 10), (8, 11), (8, 12), (9, 10), (9, 11), (9, 12), (10, 13),
               (11, 14), (12, 15)]
    joins = [(5, 6), (13, 14), (5, 14), (6, 15), (7, 13), (7, 15)]
    return Graph(range(16), block_a + block_b + joins)


def blob_ring(k: int) -> Graph:
    """k copies of K4 less an edge, each joined to the next by an edge at its two ends.

    Cubic and 2-connected; every two of the k ring edges form a 2-edge cut.
    """
    edges = []
    for i in range(k):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (b, (4 * i + 4) % (4 * k))]
    return Graph(range(4 * k), edges)


def cut_joined_pair(rng: random.Random, trial: int, half: tuple[int, int] = (6, 10)) -> Graph:
    """Two random cubic graphs, one edge cut from each, rejoined crosswise.

    Each graph has 2k vertices, k drawn from ``half``. The two new edges form
    a 2-edge cut whenever the result is 2-connected.
    """
    a = random_cubic_2connected(2 * rng.randint(*half), trial)
    b = random_cubic_2connected(2 * rng.randint(*half), trial + 100)
    ea = a.edges()[rng.randrange(a.m)]
    eb = b.edges()[rng.randrange(b.m)]
    offset = max(a.vertices) + 1
    edges = [e for e in a.edges() if e != ea]
    edges += [(u + offset, v + offset) for u, v in b.edges() if (u, v) != eb]
    edges += [(ea[0], eb[0] + offset), (ea[1], eb[1] + offset)]
    return Graph(range(a.n + b.n), edges)


def three_edge_joined_pair(rng: random.Random, trial: int, half: tuple[int, int]) -> Graph:
    """Two random cubic graphs, one vertex deleted from each, their neighbors joined crosswise.

    Each graph has 2k vertices, k drawn from ``half``. The three new edges form
    a 3-edge cut, and the rewrites that eat into it make 2-edge cuts later on.
    """
    a = random_cubic_2connected(2 * rng.randint(*half), trial)
    b = random_cubic_2connected(2 * rng.randint(*half), trial + 100)
    va = rng.choice(a.vertices)
    vb = rng.choice(b.vertices)
    offset = max(a.vertices) + 1
    edges = [e for e in a.edges() if va not in e]
    edges += [(u + offset, v + offset) for u, v in b.edges() if vb not in (u, v)]
    ends = [x + offset for x in b.neighbors(vb)]
    rng.shuffle(ends)
    edges += list(zip(a.neighbors(va), ends))
    vertices = [v for v in a.vertices if v != va] + [v + offset for v in b.vertices if v != vb]
    return Graph(vertices, edges)


def subdivided(g: Graph, rng: random.Random, count: int) -> Graph:
    """Subdivide ``count`` sampled edges of g in sample order, new ids from max + 1."""
    nxt = max(g.vertices) + 1
    for u, v in rng.sample(g.edges(), count):
        g = rewired(without_edges(g, [(u, v)]), add_edges=[(u, nxt), (nxt, v)])
        nxt += 1
    return g


# -- planar solver fixtures --------------------------------------------------


def subdivided_rim_wheel(k: int) -> Graph:
    """Wheel with hub k and rim 0..k-1, rim edge (i, i+1) subdivided by k + 1 + i."""
    spokes = [(k, i) for i in range(k)]
    rim = [e for i in range(k) for e in ((i, k + 1 + i), (k + 1 + i, (i + 1) % k))]
    return Graph(range(2 * k + 1), spokes + rim)


def triangle_chain(k: int) -> Graph:
    """k triangles (2i, 2i+1, 2i+2); consecutive ones share a cut vertex."""
    return Graph(range(2 * k + 1), [e for i in range(k) for e in
                                    ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2))])


def far_cut_triangle_chain(k: int) -> Graph:
    """k triangles in a chain from 0 whose cut vertices run k - 1, ..., 1.

    Triangle j joins spine vertices s_j, s_{j+1} through apex k + j, with
    s_0 = 0, s_j = k - j in between and s_k = 2k. The smallest cut vertex is
    the last one, so every P1 split's first side is the long side.
    """
    spine = [0, *range(k - 1, 0, -1), 2 * k]
    return Graph(range(2 * k + 1), [e for j in range(k) for e in
                                    ((spine[j], spine[j + 1]), (spine[j + 1], k + j),
                                     (spine[j], k + j))])


def weighted_chorded_cycle(seed: int) -> Graph:
    """A 12-cycle plus random chords kept while planar, six edges subdivided, weights 1..5."""
    rng = random.Random(seed)
    g = Graph(range(12), [(i, (i + 1) % 12) for i in range(12)])
    for _ in range(18):
        u, v = rng.sample(range(12), 2)
        if not g.has_edge(u, v) and embed(h := rewired(g, add_edges=[(u, v)])) is not None:
            g = h
    g = subdivided(g, rng, 6)
    return Graph(g.vertices, [(u, v, rng.randint(1, 5)) for u, v in g.edges()])


@contextmanager
def shallow_recursion_limit(headroom: int = 100):
    """Cap the recursion limit at the current stack depth plus ``headroom``."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# -- reference 2m/g baseline -------------------------------------------------


def reference_trivial_baseline_picks(g: Graph) -> list[int]:
    """The 2m/g greedy's picks in order: the least end of a non-bridge, until a forest.

    One bridge pass and one rebuilt graph per pick.
    """
    picks = []
    while non_bridges := set(g.edges()) - set(bridges(g)):
        v = min(non_bridges)[0]  # edge keys are (smaller, larger)
        picks.append(v)
        g = g.without_vertices([v])
    return picks


def reference_validate_fvs(g: Graph, s) -> bool:
    """``validate_fvs`` by a rebuilt Graph: is g - s a forest? Raises if s ⊄ V(G)."""
    s_set = set(s)
    missing = s_set - set(g.vertices)
    if missing:
        raise MemberNotInGraph(f"vertices {sorted(missing)} not in graph")
    return is_forest(g.without_vertices(s_set))


def reference_weighted_girth(g: Graph, below: int | float = float("inf")) -> int | float:
    """min(weighted girth, below) by one Dijkstra per edge (u, v), u < v.

    Each search runs from u to v around the edge, on vertices no smaller
    than u: the lightest cycle is found from the edges at its least vertex.
    """
    adj = {v: [(u, g.weight(v, u)) for u in g.neighbors(v)] for v in g.vertices}
    best = below
    for source, target in g.edges():
        w_st = g.weight(source, target)
        if w_st >= best:
            continue
        cutoff = best - w_st
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v == target:
                best = d + w_st
                break
            for u, w in adj[v]:
                if u < source or (v == source and u == target) or d + w >= cutoff:
                    continue
                if d + w < dist.get(u, float("inf")):
                    dist[u] = d + w
                    heapq.heappush(heap, (d + w, u))
    return best


# -- reference exact oracle --------------------------------------------------


def reference_cyclomatic_bound(h: Graph) -> int:
    """Fewest k whose k largest (degree - 1) values reach m - n + 1; 0 if empty."""
    if h.n == 0:
        return 0
    gains = sorted((h.degree(v) - 1 for v in h.vertices), reverse=True)
    return min(k for k in range(h.n + 1) if sum(gains[:k]) >= h.m - h.n + 1)


def reference_min_fvs_exact(g: Graph, node_budget: int, cyclomatic: bool = True
                            ) -> tuple[int, frozenset[int], bool]:
    """(phi, witness, budget hit) of the branch and bound, one rebuilt Graph per node.

    The same shortest-cycle branching, greedy upper bound, cyclomatic bound
    and packing lower bound as ``oracle.min_fvs_exact``, each step on an
    immutable Graph. ``cyclomatic=False`` prunes by the packing bound alone.
    """
    def pruned(h: Graph) -> Graph:
        drop = peel_degree_le1(h)
        return h.without_vertices(drop) if drop else h

    best: set[int] = set()
    h = pruned(g)
    while (cycle := shortest_cycle(h)) is not None:
        v = max(cycle, key=lambda x: (h.degree(x), -x))
        best.add(v)
        h = pruned(h.without_vertices([v]))

    def packing(h: Graph, cycle: list[int] | None) -> int:
        count = 0
        while cycle is not None:
            count += 1
            h = pruned(h.without_vertices(cycle))
            cycle = shortest_cycle(h)
        return count

    nodes = 0
    budget_hit = False

    def search(cur: Graph, chosen: set[int]) -> None:
        nonlocal best, nodes, budget_hit
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return
        cur = pruned(cur)
        if cyclomatic and len(chosen) + reference_cyclomatic_bound(cur) >= len(best):
            return
        cycle = shortest_cycle(cur)
        if cycle is None:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + packing(cur, cycle) >= len(best):
            return
        for v in sorted(cycle):
            chosen.add(v)
            search(cur.without_vertices([v]), chosen)
            chosen.remove(v)
            if budget_hit:
                return

    search(g, set())
    return len(best), frozenset(best), budget_hit


# -- reference cubic rule matcher --------------------------------------------


def reference_find_rule(g: Graph) -> tuple[RuleId, tuple[int, ...]]:
    """First matching rule in R1..R7 order, by rescanning the whole graph.

    Every matcher walks vertices or edges in ascending order and returns the
    first hit, so the match is the lexicographically first one by definition.
    """
    for v in g.vertices:
        if g.degree(v) == 2:
            u, w = g.neighbors(v)
            return RuleId.R1_DEGREE2, (v, u, w)
    triangles = []
    for x, y in g.edges():
        common = [w for w in g.neighbors(x) if w in g.neighbors(y)]
        if common:
            triangles.append((x, y, common))
    for x, y, common in triangles:
        if len(common) >= 2:
            return RuleId.R2_ADJACENT_TRIANGLES, (x, y, common[0], common[1])
    for a, b, common in triangles:
        if len(common) != 1:
            continue
        w = common[0]
        for x, y in ((a, b), (b, a)):
            for z in g.neighbors(x):
                if z in (y, w):
                    continue
                for v in g.neighbors(y):
                    if v not in (x, w, z) and g.has_edge(z, v):
                        return RuleId.R3_TRIANGLE_SQUARE, (x, y, w, z, v)
    seen: dict[tuple[int, ...], int] = {}
    for v in g.vertices:
        if g.degree(v) != 3:
            continue
        key = g.neighbors(v)
        if key in seen:
            return RuleId.R4_TWO_SQUARES, (seen[key], v) + key
        seen[key] = v
    cut = min_side_two_edge_cut(g)
    if cut is not None:
        e = min(cut.members)
        v = e[0] if e[0] in cut.sides[0] else e[1]
        u = e[1] if v == e[0] else e[0]
        return RuleId.R5_TWO_EDGE_CUT, (v, u)
    if triangles:
        x, y, common = triangles[0]
        return RuleId.R6_TRIANGLE, tuple(sorted((x, y, common[0])))
    v = g.vertices[0]
    nbrs = g.neighbors(v)
    return RuleId.R7_GENERIC, (v, nbrs[0], nbrs[1])


# -- reference plane-graph generator -----------------------------------------


def reference_random_planar_girth(n_target: int, g: int, seed: int):
    """``random_planar_girth`` with a full rebuild and face walk per expansion.

    Each face-chord expansion rebuilds the plane graph and takes the face
    from its freshly walked ``faces``; then every edge is subdivided on a
    built plane graph. Quadratic in n; for differential tests only.
    """
    rng = random.Random(seed)
    pg = _plane_graph_of(_K4_ROTATION, {e: 1 for e in combinations(range(4), 2)})
    t = -(-g // 3) - 1
    base_target = max(4, round(n_target / (1 + 1.5 * t)))
    while pg.graph.n + 2 <= base_target:
        pg = _reference_expand_inside_face(pg, rng)
    if t > 0:
        pg = _reference_subdivide_every_edge(pg, t)
    return pg.graph, pg.rotation


def _reference_expand_inside_face(pg: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """Subdivide two boundary edges of a random face and join them by a chord."""
    face = pg.faces[rng.randrange(len(pg.faces))]
    i, j = sorted(rng.sample(range(len(face.boundary)), 2))
    (x_a, y_a), (x_b, y_b) = face.boundary[i], face.boundary[j]
    top = max(pg.graph.vertices)
    a, b = top + 1, top + 2
    order, weights = dict(pg.rotation.order), pg.graph.edge_weights()
    for x, y, mid in ((x_a, y_a, a), (x_b, y_b, b)):
        order[x] = tuple(mid if z == y else z for z in order[x])
        order[y] = tuple(mid if z == x else z for z in order[y])
        del weights[edge_key(x, y)]
        weights[x, mid] = weights[y, mid] = 1
    order[a] = (x_a, b, y_a)
    order[b] = (x_b, a, y_b)
    weights[a, b] = 1
    return _plane_graph_of(order, weights)


def _reference_subdivide_every_edge(pg: PlaneGraph, t: int) -> PlaneGraph:
    """Replace each edge by a path with t inner vertices; multiplies cycle lengths."""
    order, weights = dict(pg.rotation.order), {}
    next_id = max(pg.graph.vertices) + 1
    for u, v in pg.graph.edges():
        path = [u, *range(next_id, next_id + t), v]
        next_id += t
        weights.update(dict.fromkeys(map(edge_key, path, path[1:]), 1))
        order[u] = tuple(path[1] if z == v else z for z in order[u])
        order[v] = tuple(path[-2] if z == u else z for z in order[v])
        for prev_v, mid, nxt in zip(path, path[1:], path[2:]):
            order[mid] = (prev_v, nxt)
    return _plane_graph_of(order, weights)


def local_edge_connectivity_le3(g: Graph) -> dict[tuple[int, int], int]:
    """min(3, λ(s, t)) for every pair s < t of g's vertices.

    λ(s, t) is the fewest edges whose removal separates s from t.
    """
    lam = dict.fromkeys(combinations(g.vertices, 2), 3)
    for size in (2, 1, 0):
        for cut in combinations(g.edges(), size):
            comps = _components(without_edges(g, cut))
            for a, b in combinations(comps, 2):
                for s in a:
                    for t in b:
                        lam[min(s, t), max(s, t)] = size
    return lam
