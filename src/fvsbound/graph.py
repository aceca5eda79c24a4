"""Simple undirected weighted graphs plus the structural queries the solvers need.

Vertex ids are stable opaque integers: reductions never renumber, so sets
computed on a reduced graph are directly sets of the original graph. Edge
weights are non-negative integers (weight 0 is legal). Infinite girth is
reported as ``math.inf`` rather than a sentinel integer.

The connectivity queries ``connected_components``, ``is_two_connected``,
``cut_vertices``, ``bridges``, ``has_two_edge_cut`` and
``min_side_two_edge_cut`` read a graph only through ``n``, ``vertices``
(ascending) and ``neighbors`` (sorted), so the cubic solver can ask them
about its mutable working graph without building a ``Graph``. One lowpoint
DFS answers cut vertices, bridges and the number of components; only the
2-edge-cut queries have it record its forest, for their cycle-space labelling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .errors import MemberNotInGraph, PreconditionViolated

INFINITE = math.inf

EdgeKey = tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph with integer edge weights (default 1)."""

    __slots__ = ("_adj", "_weights", "_n", "_m")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple] = ()):
        adj: dict[int, list[int]] = {int(v): [] for v in vertices}
        weights: dict[EdgeKey, int] = {}
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1
            else:
                u, v, w = e
            u, v, w = int(u), int(v), int(w)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if w < 0:
                raise ValueError(f"negative weight on edge ({u}, {v})")
            k = edge_key(u, v)
            if k in weights:
                raise ValueError(f"parallel edge ({u}, {v})")
            weights[k] = w
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in sorted(adj.items())}
        self._weights = weights
        self._n = len(self._adj)
        self._m = len(weights)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._adj)

    def edges(self) -> list[EdgeKey]:
        return sorted(self._weights)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._weights

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def weight(self, u: int, v: int) -> int:
        return self._weights[edge_key(u, v)]

    def edge_weights(self) -> dict[EdgeKey, int]:
        return dict(self._weights)

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self._weights == other._weights

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep_set = set(keep)
        missing = keep_set - self._adj.keys()
        if missing:
            raise MemberNotInGraph(f"vertices {sorted(missing)} not in graph")
        weights = self._weights
        edges = [(v, u, weights[(v, u)]) for v in keep_set for u in self._adj[v]
                 if v < u and u in keep_set]
        return Graph(keep_set, edges)

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        drop_set = set(drop)
        return self.subgraph(self._adj.keys() - drop_set)


# -- forests and feedback vertex sets --------------------------------------


def is_forest(g: Graph) -> bool:
    """True iff the graph contains no cycle."""
    return _acyclic(g._weights, ())


def validate_fvs(g: Graph, s: Iterable[int]) -> bool:
    """True iff removing ``s`` leaves a forest. Raises if ``s`` ⊄ V(G)."""
    s_set = set(s)
    missing = s_set - g._adj.keys()
    if missing:
        raise MemberNotInGraph(f"vertices {sorted(missing)} not in graph")
    return _acyclic(g._weights, s_set)


def _acyclic(edges: Iterable[EdgeKey], skip) -> bool:
    """True iff the edges with no end in ``skip`` form a forest: one union-find pass."""
    # Union-find beats DFS bookkeeping here and has no parent-edge subtlety.
    # A root has no entry in ``parent``; each find, inline, halves its path.
    parent: dict[int, int] = {}
    for u, v in edges:
        if u in skip or v in skip:
            continue
        while u in parent:
            p = parent[u]
            if p in parent:
                parent[u] = p = parent[p]
            u = p
        while v in parent:
            p = parent[v]
            if p in parent:
                parent[v] = p = parent[p]
            v = p
        if u == v:
            return False
        parent[u] = v
    return True


def peel_degree_le1(g: Graph) -> set[int]:
    """Vertices removed by repeatedly deleting vertices of degree <= 1.

    They lie on no cycle; the rest is the 2-core. One queue pass, O(n + m).
    """
    degree = {v: g.degree(v) for v in g.vertices}
    queue = [v for v, d in degree.items() if d <= 1]
    peeled = set(queue)
    while queue:
        for u in g.neighbors(queue.pop()):
            if u not in peeled:
                degree[u] -= 1
                if degree[u] <= 1:
                    peeled.add(u)
                    queue.append(u)
    return peeled


# -- cycles and girth -------------------------------------------------------


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; ``INFINITE`` for forests."""
    cycle = shortest_cycle(g)
    return INFINITE if cycle is None else len(cycle)


def weighted_girth(g: Graph, below: int | float = INFINITE) -> int | float:
    """Minimum total edge weight over all cycles; ``INFINITE`` for forests.

    Exact even with zero-weight edges: one Dijkstra per root x over the
    vertices >= x (Itai & Rodeh, SIAM J. Comput. 1978), from each root with
    two larger neighbors, as only such a root can be a cycle's least vertex.
    A non-tree edge (p, q) closes a tree walk x..p, q..x of weight d(p) +
    w(p, q) + d(q), which contains a cycle, so no value is below the girth.
    The lightest cycle C has a non-tree edge (p, q), and from C's least
    vertex x, d(p) and d(q) are at most their distances to x along C away
    from that edge: the value is at most w(C). As every vertex of C has
    d <= w(C) / 2, a search pushes an entry only while 2 * d is below the
    best weight so far. With ``below``, the best weight starts there and the
    result is min(minimum, below): a cheaper answer to "is some cycle
    lighter than g?". Neighbor lists run in descending id order, so a scan
    stops at the first id below the root.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g._adj}
    for (v, u), w in sorted(g._weights.items(), reverse=True):  # so each list descends
        adj[v].append((u, w))
        adj[u].append((v, w))
    best = below
    for x, out in adj.items():
        if len(out) < 2 or out[1][0] < x:
            continue
        dist = {x: 0}
        heap = [(w, u, x) for u, w in out if u > x and 2 * w < best]
        heapify(heap)
        while heap:
            d, v, p = heappop(heap)
            if v in dist:
                continue
            if 2 * d >= best:
                break
            dist[v] = d
            for u, w in adj[v]:
                if u < x:
                    break
                if u in dist:
                    if u != p and d + w + dist[u] < best:
                        best = d + w + dist[u]
                elif 2 * (d + w) < best:
                    heappush(heap, (d + w, u, v))
    return best


def shortest_cycle(g: Graph) -> list[int] | None:
    """Vertices of one shortest cycle, or None for a forest.

    Deterministic: scans BFS roots in ascending id order and keeps the first
    cycle of the best length.
    """
    return shortest_cycle_in(g._adj)


def shortest_cycle_in(adj: dict[int, Sequence[int]]) -> list[int] | None:
    """``shortest_cycle`` of the graph with this adjacency, keys and lists ascending.

    The one BFS behind ``shortest_cycle`` and ``girth``. The exact oracle runs
    the same BFS on its bitmasks (``oracle._shortest_cycle``).
    """
    best_len = INFINITE
    best: list[int] | None = None
    for root in adj:
        if best_len == 3:
            break  # no cycle is shorter, and only a shorter one replaces best
        dist = {root: 0}
        parent = {root: root}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[v]
                if 2 * dv >= best_len - 1:
                    continue
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dv + 1
                        parent[u] = v
                        nxt.append(u)
                    elif parent[v] != u and parent[u] != v:
                        if dv + dist[u] + 1 < best_len:
                            # The cycle is no longer than dv + dist[u] + 1.
                            best = _walk_cycle(parent, v, u)
                            best_len = len(best)
            frontier = nxt
    return best


def _walk_cycle(parent: dict[int, int], v: int, u: int) -> list[int]:
    """Close the BFS-tree paths of v and u, neither the other's parent, into a simple cycle."""
    path_v, path_u = [v], [u]
    for path in (path_v, path_u):
        x = path[0]
        while parent[x] != x:
            x = parent[x]
            path.append(x)
    set_v = set(path_v)
    # Lowest common ancestor: first vertex of u's path already on v's path.
    lca_idx = next(i for i, x in enumerate(path_u) if x in set_v)
    lca = path_u[lca_idx]
    return path_v[:path_v.index(lca) + 1] + path_u[:lca_idx][::-1]


# -- connectivity ------------------------------------------------------------


def connected_components(g: Graph) -> list[set[int]]:
    """Components ordered by their smallest vertex id."""
    return _components(g, ())


def _components(g: Graph, skip: Iterable[EdgeKey]) -> list[set[int]]:
    """Components of g with the edges ``skip`` left out."""
    skipped = {(u, v) for e in skip for u, v in (e, e[::-1])}
    seen: set[int] = set()
    comps = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen and (v, u) not in skipped:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def _lowpoint_dfs(g: Graph, skip: int | None = None, *, forest: bool = False
                  ) -> tuple[list[int], list[EdgeKey], int, list[tuple], list[tuple]]:
    """Sorted cut vertices and bridges, the component count, and the DFS forest.

    One iterative Hopcroft-Tarjan lowpoint DFS per component (Tarjan, SIAM
    J. Comput. 1972), from its least vertex, neighbors ascending: a non-root v
    is a cut vertex iff some tree child c has low[c] >= disc[v], the root iff
    it has two or more tree children, and a tree edge (v, c) is a bridge iff
    low[c] > disc[v]. Only with ``forest`` is the forest recorded, for the
    2-edge-cut labelling; otherwise its two lists come back empty. The forest:
    tree edges (parent, child) in postorder and back edges (descendant,
    ancestor) as found. A root is its own parent.

    With ``skip``, the answers are those of g - skip, without building it:
    ``skip`` starts out discovered, later than any vertex will be, so it is
    never a root and every arc into it reads as a finished descendant's.
    """
    disc: dict[int, int] = {} if skip is None else {skip: g.n}
    low: dict[int, int] = {}
    cuts: set[int] = set()
    cut_edges: list[EdgeKey] = []
    tree: list[tuple[int, int]] = []
    back: list[tuple[int, int]] = []
    components = 0
    for root in g.vertices:
        if root in disc:
            continue
        components += 1
        root_children = 0
        stack: list[tuple[int, int, Iterator[int]]] = [(root, root, iter(g.neighbors(root)))]
        disc[root] = low[root] = len(disc)
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if u == parent:
                    # Simple graph: the only v-parent edge is the tree edge.
                    continue
                if u in disc:
                    # No cross edges in an undirected DFS: u is an ancestor, or
                    # a finished descendant whose back edge to v was met from u.
                    if disc[u] < disc[v]:
                        if forest:
                            back.append((v, u))
                        if disc[u] < low[v]:
                            low[v] = disc[u]
                else:
                    disc[u] = low[u] = len(disc)
                    if v == root:
                        root_children += 1
                    stack.append((u, v, iter(g.neighbors(u))))
                    break
            else:
                stack.pop()
                if v != root:
                    if forest:
                        tree.append((parent, v))
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if parent != root and low[v] >= disc[parent]:
                        cuts.add(parent)
                    if low[v] > disc[parent]:
                        cut_edges.append(edge_key(parent, v))
        if root_children >= 2:
            cuts.add(root)
    return sorted(cuts), sorted(cut_edges), components, tree, back


def cut_vertices(g: Graph) -> list[int]:
    """All articulation points, ascending."""
    return _lowpoint_dfs(g)[0]


def bridges(g: Graph) -> list[EdgeKey]:
    """All cut edges, sorted."""
    return _lowpoint_dfs(g)[1]


def is_two_connected(g: Graph) -> bool:
    """2-connected per the convention |V| > 2, connected, no cut vertex."""
    if g.n < 3:
        return False
    cuts, _, components, _, _ = _lowpoint_dfs(g)
    return components == 1 and not cuts


def _two_edge_cuts(g: Graph) -> Iterator[tuple[tuple[EdgeKey, EdgeKey], list[set[int]]]]:
    """Every 2-edge cut-set of a connected bridgeless graph, with its two sides.

    Cycle-space labelling (Pritchard & Thurimella, ACM TALG 2011) of the
    lowpoint DFS forest: each back edge gets a random 64-bit label, each tree
    edge the XOR of the labels of the back edges covering it. Two edges form
    a cut-set iff they lie on the same fundamental cycles, so every cut pair
    shares a label; labels may collide, so each candidate pair is confirmed
    by a component search that skips both edges. Raises before yielding
    anything if the DFS finds more than one component or a bridge.
    """
    _, cut_edges, components, tree, back = _lowpoint_dfs(g, forest=True)
    if components > 1:
        raise PreconditionViolated("graph must be connected")
    if cut_edges:
        raise PreconditionViolated("graph must be 2-edge-connected (bridge found)")
    rng = random.Random(0x5EED)
    label = dict.fromkeys(g.vertices, 0)
    tags = []
    for v, u in back:
        tag = rng.getrandbits(64)
        label[v] ^= tag
        label[u] ^= tag
        tags.append(tag)
    # Children precede parents in postorder, so label[v] is final when
    # (p, v) is reached: the label of that tree edge.
    for p, v in tree:
        label[p] ^= label[v]
        tags.append(label[v])
    if len(set(tags)) == len(tags):
        return  # no two edges share a label, so none form a cut
    groups: dict[int, list[EdgeKey]] = {}
    for tag, (u, v) in zip(tags, chain(back, tree)):
        groups.setdefault(tag, []).append(edge_key(u, v))
    for members in groups.values():
        for pair in combinations(members, 2):
            sides = _components(g, pair)
            if len(sides) == 2:
                yield pair, sides


def has_two_edge_cut(g: Graph) -> bool:
    """True iff a connected bridgeless graph has a 2-edge cut-set.

    Stops at the first cut of the cycle-space labelling (Pritchard &
    Thurimella, ACM TALG 2011) of the lowpoint DFS forest. Raises
    PreconditionViolated if that DFS finds more than one component or a bridge.
    """
    return next(_two_edge_cuts(g), None) is not None


@dataclass(frozen=True, slots=True)
class CutStructure:
    """A small cut with the two vertex sets it separates."""

    members: frozenset
    sides: tuple[frozenset[int], frozenset[int]]


def min_side_two_edge_cut(g: Graph) -> CutStructure | None:
    """The 2-edge cut-set whose smaller side is minimum; None if 3-edge-connected.

    Ties broken by the lexicographically smallest sorted smaller side, then
    the sorted pair, over all cuts of the cycle-space labelling (Pritchard &
    Thurimella, ACM TALG 2011) of the lowpoint DFS forest. Raises
    PreconditionViolated if that DFS finds more than one component or a bridge.
    """
    best = None
    for pair, sides in _two_edge_cuts(g):
        small, big = sorted(sides, key=lambda c: (len(c), sorted(c)))
        key = (len(small), sorted(small), sorted(pair))
        if best is None or key < best[0]:
            best = (key, CutStructure(members=frozenset(pair),
                                      sides=(frozenset(small), frozenset(big))))
    return None if best is None else best[1]


def connectivity_le3(g: Graph) -> tuple[int, int]:
    """(vertex connectivity, edge connectivity), each capped at 3.

    A value of 3 means "at least 3"; smaller values are exact. One lowpoint
    DFS gives components, cut vertices and bridges. At maximum degree <= 3
    the two connectivities agree. Otherwise a pair {u, v} separates g exactly
    when u is a cut vertex of g - v, so one more DFS per vertex, skipping v,
    settles it.
    """
    if g.n <= 1:
        return 0, 0
    cuts, cut_edges, components, _, _ = _lowpoint_dfs(g)
    if components > 1:
        return 0, 0
    edge = 1 if cut_edges else 2 if has_two_edge_cut(g) else 3
    if cuts or g.n == 2:
        return 1, edge
    if g.max_degree() <= 3:
        return edge, edge
    # Here n >= 5, so the cap n - 1 on k-connectivity is above 3.
    separated = any(_lowpoint_dfs(g, v)[0] for v in g.vertices)
    return (2 if separated else 3), edge
