"""Constructive feedback vertex sets for 2-connected graphs of max degree 3.

The solver certifies 3|S| <= n + 2 by running a prioritized rewrite system:
each rule removes a small matched configuration, reconnects the boundary so
the reduced graph stays simple, 2-connected, and subcubic, and designates at
most two removed vertices for the feedback set. Rules are tried strictly in
order; a rule only ever fires on a graph where all earlier rules fail, which
is exactly what makes each rewrite sound. Graphs with at most
``BASE_CASE_MAX_N`` vertices are closed out by the exact oracle.

The rewrites run on one private mutable working graph (``_Work``), changed
in place. A rewrite touches at most about ten vertices, so the indices the
matchers read (degree-2 vertices, triangle edges, degree-3 vertices grouped
by neighborhood) are recomputed only on the dirty set: the surviving
neighbors of the dropped vertices plus the endpoints of the added edges.
A rewrite walks the rings of the dropped vertices once. That walk gives
each dirty vertex its new neighbor list and the keys of the removed edges;
with the keys of the added edges, they are all the rest of the step reads:
its ``ReductionStep``, the boundary records and the checks. R1 reads the
least degree-2 vertex from a min-heap with lazy deletion, in O(log n)
amortized time rather than by a scan of every degree-2 vertex, so a long
cycle solves in near-linear time. Every match is the lexicographically first one in ascending
vertex/edge order, so identical inputs produce identical traces.

The two connectivity questions each step raises are answered locally, by
unit-capacity flow tests on the boundary, and exactly. The lemma: rewrites
only delete vertices and add edges between survivors, so if some earlier
graph G0 was k-edge-connected, every cut of fewer than k edges in the
current graph separates two vertices of the boundary accumulated since G0
(the dirty sets of all rewrites since, less the vertices dropped since).
Were the whole boundary on one side of such a cut, adding the dropped
vertices to that side would give a cut of G0 whose edges all survive in the
current graph. At maximum degree 3 a cut vertex leaves a bridge, so
2-connected means 2-edge-connected.

- For the class check, G0 is the last graph proven 2-connected: the reduced
  graph is 2-connected iff two edge-disjoint paths join one boundary vertex
  to each other one; only dirty vertices can exceed degree 3.
- For R5, G0 is the last graph proven 3-edge-connected, and ∂ the boundary
  since: with three such paths no 2-edge cut exists. Otherwise the global
  enumeration picks the cut, which R5's rewrite reuses.

R5's test needs fewer pairs than all of ∂. Every G0 is cubic: a cut search
finding no 2-edge cut leaves no degree-2 vertex, whose edges would be one, a
step proves one only where none is left and all of ∂ has degree 3, and a
vertex outside ∂ keeps its G0 degree. So where all of ∂ has degree 3, each
vertex of ∂ has as many G0 edges to the vertices dropped since G0 as
surviving added edges, whose ends all lie in ∂. If a cut C of at most 2 edges
splits ∂ into σ and ∂∖σ, with in(σ) added edges inside σ and x(σ) across,
putting every dropped vertex with ∂∖σ extends C to a cut of G0: at most
2 − x(σ) G0 edges of C plus the 2·in(σ) + x(σ) at σ. G0 has no cut of fewer
than 3 edges, so in(σ) >= 1, and likewise in(∂∖σ) >= 1. From s = min ∂, one
end of each added edge away from s that another added edge misses is then a t
on the far side of every possible split. After an R7 step and the R1 step
that checks it, ∂ is six vertices paired by three added edges, and two tests
do the work of five. Off degree 3, all pairs are tested.

So a step pays for one flow test. With no degree-2 vertex and ∂ known, a
pass of λ >= 3 across ∂ proves the graph 3-edge-connected, so 2-connected,
and empties ∂; only a fail runs the λ >= 2 test. A λ >= 3 test between
non-adjacent vertices of degree 3 first runs one colored search: six
disjoint trees grow from their neighbors at once, and three disjoint paths
found through them pass the test. Only where it gives up do the three
augmenting searches of Ford-Fulkerson run. When the least degree-2 vertex
v has non-adjacent neighbors, R1 suppresses v next, and the graph is
2-connected iff the suppressed one is. So the check waits for that step,
whose boundary includes this one's; a failure names the deferred step.

The entry check is one cut search that stops at the first 2-edge cut: for
n >= 3 at maximum degree 3, "one component, no bridge" means 2-connected.
Finding no cut makes the input G0 from step 0; otherwise R5 is global until
one of its queries finds no cut. The graph the rewrites leave is checked
whole once, covering a check still deferred, as is ``apply_rule``'s result
on a caller's ``Graph``, which is not known to be in class. The final check
of the set is always global.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from itertools import permutations

from .certificate import BoundKind, FvsCertificate, ReductionStep
from .errors import InternalInvariantBroken, PreconditionViolated
from .graph import (
    CutStructure,
    EdgeKey,
    Graph,
    edge_key,
    has_two_edge_cut,
    is_two_connected,
    min_side_two_edge_cut,
    validate_fvs,
)
from .oracle import min_fvs_exact

BASE_CASE_MAX_N = 10


class RuleId(enum.Enum):
    R0_BASE = "R0_base"
    R1_DEGREE2 = "R1_degree2"
    R2_ADJACENT_TRIANGLES = "R2_adjacent_triangles"
    R3_TRIANGLE_SQUARE = "R3_triangle_square"
    R4_TWO_SQUARES = "R4_two_squares"
    R5_TWO_EDGE_CUT = "R5_two_edge_cut"
    R6_TRIANGLE = "R6_triangle"
    R7_GENERIC = "R7_generic"


class _Work:
    """The solver's mutable graph, with the match indices kept current.

    ``adj`` maps each vertex to its sorted neighbor tuple. It is built once in
    ascending vertex order and vertices are only ever deleted, so it stays
    ascending. It offers the read API of ``Graph`` that the matchers, the
    appliers and the graph queries use. ``rewrite`` changes it in place and
    then re-indexes only the dirty set D, the surviving neighbors of the
    dropped vertices plus the endpoints of the added edges:

    - ``deg2``: the degree-2 vertices (R1), and ``deg2_heap``, a min-heap
      that holds each of them and maybe stale entries, which are dropped
      when they reach the top;
    - ``tri``: each edge on a triangle with its sorted common neighbors (R2,
      R3, R6); only edges at D can change;
    - ``groups``: degree-3 vertices keyed by their neighbor tuple, and
      ``twins``, the keys held by two or more of them (R4).
    """

    __slots__ = ("adj", "keys", "deg2", "deg2_heap", "tri", "groups", "twins", "_weights",
                 "boundary", "added", "pending", "cut")

    def __init__(self, g: Graph):
        self.adj = {v: g.neighbors(v) for v in g.vertices}
        # g's own weight map, only read. ``keys`` maps each current edge's
        # key to the one tuple that stands for it: g's key, or the tuple of
        # the step that added the edge. Steps share these tuples.
        self._weights = g._weights
        self.keys: dict[EdgeKey, EdgeKey] = {e: e for e in g._weights}
        self.deg2: set[int] = set()
        self.deg2_heap: list[int] = []
        self.tri: dict[EdgeKey, list[int]] = {}
        self.groups: dict[tuple[int, ...], set[int]] = {}
        self.twins: set[tuple[int, ...]] = set()
        self._index(self.adj)
        # The dirty sets accumulated since the graph was last proven
        # 3-edge-connected, less the vertices dropped since; None before that.
        # While it is known, ``added`` holds the edges added since that graph
        # G0 that survive.
        self.boundary: set[int] | None = None
        self.added: set[EdgeKey] = set()
        # A deferred check leaves the dirty sets since the last graph proven
        # 2-connected, and the rule and match of the step they start at.
        self.pending: tuple[set[int], tuple[str, tuple[int, ...]]] | None = None
        # The match R5 found on the current graph, with its cut.
        self.cut: tuple[tuple[int, ...], CutStructure] | None = None

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def freeze(self) -> Graph:
        """The current graph as an immutable Graph; added edges weigh 1."""
        weights = self._weights
        return Graph(self.adj, [(v, u, weights.get((v, u), 1))
                                for v, ns in self.adj.items() for u in ns if v < u])

    def mark_three_edge_connected(self) -> None:
        """Make the current graph, proven 3-edge-connected, the new G0."""
        self.boundary = set()
        self.added = set()

    def rewrite(self, drop: list[int], add: list[tuple[int, int]]
                ) -> tuple[dict[int, list[int]], list[EdgeKey], list[EdgeKey]]:
        """Remove vertices, then add edges among the survivors, in place.

        One walk of the dropped vertices' rings finds the dirty vertices with
        their surviving neighbors and the removed edge keys. Returns the dirty
        vertices, each with its new neighbors in ascending order, the removed
        edge keys as the tuples ``keys`` held for them, and the added edge
        keys, which ``keys`` then holds. Adds the dirty set to ``boundary``; while
        G0 is known, ``added`` follows, and the cut is forgotten. Raises
        ValueError, before changing anything, on a loop, a parallel edge, or
        an endpoint that is not in the reduced graph.
        """
        adj, keys = self.adj, self.keys
        gone = set(drop)
        missing = gone.difference(adj)
        if missing:
            raise ValueError(f"vertices {sorted(missing)} not in graph")
        dirty: dict[int, list[int]] = {}
        removed: list[EdgeKey] = []
        for v in gone:
            for u in adj[v]:
                if u not in gone:
                    removed.append(keys[(u, v) if u < v else (v, u)])
                    ns = dirty.get(u)
                    if ns is None:
                        dirty[u] = ns = list(adj[u])
                    ns.remove(v)
                elif v < u:
                    removed.append(keys[(v, u)])
        added: list[EdgeKey] = []
        for u, v in add:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            for x in (u, v):
                if x not in dirty:
                    if x in gone or x not in adj:
                        raise ValueError(f"vertex {x} not in the reduced graph")
                    dirty[x] = list(adj[x])
            if v in dirty[u]:
                raise ValueError(f"parallel edge ({u}, {v})")
            dirty[u].append(v)
            dirty[v].append(u)
            added.append((u, v) if u < v else (v, u))
        for e in removed:
            del keys[e]
        for e in added:
            keys[e] = e
        self._unindex([*gone, *dirty])
        if self.boundary is not None:
            self.added.difference_update(removed)
            self.added.update(added)
            self.boundary -= gone
            self.boundary.update(dirty)
        for v in gone:
            del adj[v]
        for v, ns in dirty.items():
            ns.sort()
            adj[v] = tuple(ns)
        self._index(dirty)
        self.cut = None
        return dirty, removed, added

    def least_deg2(self) -> int | None:
        """The least degree-2 vertex, or None; drops the stale tops of the heap."""
        heap, deg2 = self.deg2_heap, self.deg2
        while heap and heap[0] not in deg2:
            heappop(heap)
        return heap[0] if heap else None

    def _unindex(self, vertices) -> None:
        adj, tri, groups = self.adj, self.tri, self.groups
        for v in vertices:
            ns = adj[v]
            if len(ns) == 2:
                self.deg2.discard(v)
            elif len(ns) == 3:
                group = groups[ns]
                group.discard(v)
                if len(group) < 2:
                    self.twins.discard(ns)
                    if not group:
                        del groups[ns]
            if tri:
                for u in ns:
                    tri.pop((u, v) if u < v else (v, u), None)

    def _index(self, vertices) -> None:
        adj, tri, groups = self.adj, self.tri, self.groups
        for v in vertices:
            ns = adj[v]
            if len(ns) == 2:
                self.deg2.add(v)
                heappush(self.deg2_heap, v)
            elif len(ns) == 3:
                group = groups.get(ns)
                if group is None:
                    groups[ns] = {v}
                else:
                    group.add(v)
                    self.twins.add(ns)
            for u in ns:
                nu = adj[u]
                for w in ns:
                    if w in nu:  # (u, v) is on a triangle
                        tri[(u, v) if u < v else (v, u)] = [w for w in ns if w in nu]
                        break


def _third(g: _Work, v: int, excluded: tuple[int, ...]) -> int:
    rest = [u for u in g.neighbors(v) if u not in excluded]
    if len(rest) != 1:
        raise InternalInvariantBroken(
            f"vertex {v} should have exactly one neighbor outside {excluded}")
    return rest[0]


# -- local connectivity tests --------------------------------------------------


def _residual_path(adj: dict[int, tuple[int, ...]], s: int, t: int,
                   used: set[tuple[int, int]], busy: set[int]) -> list[int] | None:
    """An s-t path over the arcs with residual capacity, or None.

    ``used`` holds the arcs (u, v) that carry one unit of flow from u to v and
    ``busy`` their tails; every other arc has residual capacity. A BFS grows
    from s and another into t, one level of the smaller frontier at a time,
    and the first vertex both reach closes the path.
    """
    pred = {s: s}
    succ = {t: t}
    front, back = [s], [t]
    while front and back:
        nxt = []
        if len(front) <= len(back):
            for u in front:
                free = u not in busy
                for v in adj[u]:
                    if v not in pred and (free or (u, v) not in used):
                        pred[v] = u
                        if v in succ:
                            return _joined(pred, succ, v)
                        nxt.append(v)
            front = nxt
        else:
            for v in back:
                for u in adj[v]:
                    if u not in succ and (u not in busy or (u, v) not in used):
                        succ[u] = v
                        if u in pred:
                            return _joined(pred, succ, u)
                        nxt.append(u)
            back = nxt
    return None


def _joined(pred: dict[int, int], succ: dict[int, int], meet: int) -> list[int]:
    """The path through ``meet`` along ``pred`` back to its root and ``succ`` on to its root."""
    path = [meet]
    while pred[path[-1]] != path[-1]:
        path.append(pred[path[-1]])
    path.reverse()
    while succ[path[-1]] != path[-1]:
        path.append(succ[path[-1]])
    return path


# The colored search's labels: 0-2 for the trees at s's neighbors, 3-5 for
# those at t's, and 6 for s and t themselves. ``_PAIR[c][d]`` is the bit an
# edge between colors c and d records, 1 << (3i + j) for s-color i and
# t-color j, and 0 for any other pair. ``_PERFECT[mask]`` tells whether the
# recorded pairs hold one of the six perfect matchings of s-colors to t-colors.
_PAIR = tuple(tuple(1 << (3 * min(c, d) + max(c, d) - 3)
                    if min(c, d) < 3 <= max(c, d) < 6 else 0 for d in range(7))
              for c in range(7))
_MATCHINGS = [sum(1 << (3 * i + j) for i, j in enumerate(p)) for p in permutations(range(3))]
_PERFECT = tuple(any(mask & m == m for m in _MATCHINGS) for mask in range(512))


def _three_disjoint_paths(adj: dict[int, tuple[int, ...]], s: int, t: int) -> bool:
    """True if a colored search finds three internally vertex-disjoint s-t paths.

    For s and t of degree 3, not adjacent. Each neighbor of s roots a tree of
    its own color, and so does each neighbor of t; a bidirectional BFS grows
    the six trees one level of the smaller side at a time, and every vertex
    joins at most one tree. An edge from s-tree i to t-tree j gives the path
    s, i's tree, j's tree, t, and paths of disjoint trees share no inner
    vertex; a neighbor w of both s and t joins s-tree i alone and records
    the pair (i, j) for the path s-w-t, so no other pair uses t-color j.
    Three pairs forming a perfect matching are three such paths, so
    λ(s, t) >= 3. False when a frontier empties first, which proves nothing.
    """
    color = {s: 6, t: 6}
    front, back = list(adj[s]), []
    for i, a in enumerate(front):
        color[a] = i
    mask = 0
    for j, b in enumerate(adj[t]):
        if b in color:
            mask |= _PAIR[color[b]][3 + j]
        else:
            color[b] = 3 + j
            back.append(b)
    if _PERFECT[mask]:
        return True
    while front and back:
        if len(front) > len(back):
            front, back = back, front
        nxt = []
        for u in front:
            cu = color[u]
            pairs = _PAIR[cu]
            for v in adj[u]:
                if v not in color:
                    color[v] = cu
                    nxt.append(v)
                elif pairs[color[v]]:
                    mask |= pairs[color[v]]
                    if _PERFECT[mask]:
                        return True
        front = nxt
    return False


def _edge_disjoint_paths(adj: dict[int, tuple[int, ...]], s: int, t: int,
                         k: int) -> bool:
    """True iff k edge-disjoint paths join s and t, i.e. λ(s, t) >= k.

    Ford-Fulkerson with unit capacities: k augmenting paths, each found by a
    bidirectional BFS in the residual graph. For k = 3 between non-adjacent
    vertices of degree 3, ``_three_disjoint_paths`` is asked first: its
    paths are internally vertex-disjoint, so edge-disjoint too. At maximum
    degree 3, edge-disjoint s-t paths are also internally vertex-disjoint,
    since a vertex on two of them would need degree 4; so three such paths
    exist whenever λ(s, t) >= 3, and the colored search misses them only by
    growing its trees greedily. Then Ford-Fulkerson decides.
    """
    if len(adj[s]) < k or len(adj[t]) < k:
        return False
    if (k == 3 and len(adj[s]) == len(adj[t]) == 3 and t not in adj[s]
            and _three_disjoint_paths(adj, s, t)):
        return True
    used: set[tuple[int, int]] = set()
    busy: set[int] = set()
    for _ in range(k - 1):
        path = _residual_path(adj, s, t, used, busy)
        if path is None:
            return False
        for u, v in zip(path, path[1:]):
            if (v, u) in used:
                used.remove((v, u))
            else:
                used.add((u, v))
        busy = {u for u, _ in used}
    return _residual_path(adj, s, t, used, busy) is not None


def _edge_connected_within(adj: dict[int, tuple[int, ...]], boundary, k: int) -> bool:
    """True iff no cut of fewer than k edges separates two vertices of ``boundary``.

    Fixes one boundary vertex s and tests λ(s, t) >= k for every other t: a
    cut separating two boundary vertices separates s from one of them.
    """
    rest = iter(boundary)
    s = next(rest, None)
    return all(_edge_disjoint_paths(adj, s, t, k) for t in rest)


def _three_edge_connected(g: _Work) -> bool:
    """True iff no cut of fewer than 3 edges splits ``g.boundary``.

    Tests every pair of ∂ if a vertex of ∂ does not have degree 3; else, by
    the module docstring, only s = min ∂ to each t of ``_split_targets``.
    """
    for v in g.boundary:
        if len(g.adj[v]) != 3:
            return _edge_connected_within(g.adj, sorted(g.boundary), 3)
    s = min(g.boundary, default=None)
    for t in _split_targets(s, g.added):
        if not _edge_disjoint_paths(g.adj, s, t, 3):
            return False
    return True


def _split_targets(s: int | None, added: set[EdgeKey]) -> list[int]:
    """Vertices t such that λ(s, t) >= 3 for each rules out every possible split.

    Each side of a possible split holds a whole added edge, so its far side,
    without s, holds an e = (u, v) away from s that another added edge
    misses: ends[u] + ends[v] − 1 < |added|. In ascending order, each such e
    not yet covered gives a t: its end on more added edges, the smaller on a tie.
    """
    ends: dict[int, int] = {}
    for u, v in added:
        ends[u] = ends.get(u, 0) + 1
        ends[v] = ends.get(v, 0) + 1
    targets: list[int] = []
    for u, v in sorted(added):
        if (s in (u, v) or u in targets or v in targets
                or ends[u] + ends[v] > len(added)):
            continue
        targets.append(v if ends[v] > ends[u] else u)
    return targets


# -- matchers ------------------------------------------------------------------


_Triangles = list[tuple[EdgeKey, list[int]]]


def _match_r2(g: _Work, triangles: _Triangles) -> tuple[int, ...] | None:
    for (x, y), common in triangles:
        if len(common) >= 2:
            return (x, y, common[0], common[1])
    return None


def _match_r3(g: _Work, triangles: _Triangles) -> tuple[int, ...] | None:
    for (a, b), common in triangles:
        if len(common) != 1:
            continue
        w = common[0]
        for x, y in ((a, b), (b, a)):
            for z in g.neighbors(x):
                if z in (y, w):
                    continue
                for v in g.neighbors(y):
                    if v in (x, w, z):
                        continue
                    if g.has_edge(z, v):
                        return (x, y, w, z, v)
    return None


def _match_r4(g: _Work, triangles: _Triangles) -> tuple[int, ...] | None:
    # An ascending scan stops at the first vertex sharing its neighbor tuple
    # with an earlier one: the group whose second-smallest member is least.
    if not g.twins:
        return None
    firsts = [(sorted(g.groups[key])[:2], key) for key in g.twins]
    (v, x), key = min(firsts, key=lambda pair: pair[0][1])
    return (v, x) + key


def _match_r5(g: _Work, triangles: _Triangles) -> tuple[int, ...] | None:
    # ``_build`` empties the boundary when its flow test proves the graph
    # 3-edge-connected; otherwise the global search finds the cut, if any.
    cut = None if g.boundary is not None and not g.boundary else min_side_two_edge_cut(g)
    if cut is None:
        g.mark_three_edge_connected()
        return None
    x, y = min(cut.members)
    g.cut = ((x, y) if x in cut.sides[0] else (y, x), cut)
    return g.cut[0]


def _match_r6(g: _Work, triangles: _Triangles) -> tuple[int, ...] | None:
    if triangles:
        (x, y), common = triangles[0]
        return tuple(sorted((x, y, common[0])))
    return None


_MATCHERS = (
    (RuleId.R2_ADJACENT_TRIANGLES, _match_r2),
    (RuleId.R3_TRIANGLE_SQUARE, _match_r3),
    (RuleId.R4_TWO_SQUARES, _match_r4),
    (RuleId.R5_TWO_EDGE_CUT, _match_r5),
    (RuleId.R6_TRIANGLE, _match_r6),
)


def find_rule(g: Graph | _Work) -> tuple[RuleId, tuple[int, ...]]:
    """First matching rule in R1..R7 order with its lexicographically first match.

    R7 is total on the graphs the solver feeds it (cubic, 3-connected,
    triangle-free, no doubled 4-cycles); the matcher itself is well-defined
    on any graph with min degree 2. A Graph is wrapped in a fresh working
    graph; the solver passes its own, whose indices are already current.
    """
    work = g if isinstance(g, _Work) else _Work(g)
    v = work.least_deg2()
    if v is not None:
        u, w = work.adj[v]
        return RuleId.R1_DEGREE2, (v, u, w)
    triangles = sorted(work.tri.items())
    for rule, matcher in _MATCHERS:
        match = matcher(work, triangles)
        if match is not None:
            return rule, match
    v = next(iter(work.adj))
    nbrs = work.adj[v]
    return RuleId.R7_GENERIC, (v, nbrs[0], nbrs[1])


# -- rule application ----------------------------------------------------------


def _build(g: _Work, drop: list[int], add: list[tuple[int, int]],
           rule: RuleId, match: tuple[int, ...],
           designated: tuple[int, ...]) -> ReductionStep:
    n_before = g.n
    # ``cover`` gathers the dirty sets since the last graph proven 2-connected.
    cover, (name, matched) = g.pending or (set(), (rule.value, match))
    g.pending = None
    try:
        dirty, removed, added = g.rewrite(drop, add)
    except ValueError as exc:
        raise InternalInvariantBroken(
            f"{rule.value} on {match}: reduced graph is not simple ({exc})")
    if g.n >= n_before:
        raise InternalInvariantBroken(f"{rule.value} did not shrink the graph")
    # Only the dirty vertices changed degree.
    for ns in dirty.values():
        if len(ns) > 3:
            raise InternalInvariantBroken(
                f"{rule.value} on {match}: reduced graph exceeds degree 3")
    step = ReductionStep(
        rule=rule.value, matched=match,
        removed_vertices=tuple(sorted(drop)),
        removed_edges=tuple(sorted(removed)),
        added_edges=tuple(sorted(added)),
        designated=designated)
    cover.difference_update(drop)
    cover.update(dirty)
    least = g.least_deg2()
    if least is not None and not g.has_edge(*g.adj[least]):
        # R1 suppresses that vertex next, whose check then covers this one.
        g.pending = (cover, (name, matched))
        return step
    # λ >= 3 across ∂ answers R5 too and, at maximum degree 3, means 2-connected.
    if (g.boundary is not None and least is None and g.n >= 3
            and _three_edge_connected(g)):
        g.mark_three_edge_connected()
    elif not (g.n >= 3 and _edge_connected_within(g.adj, cover, 2)):
        raise InternalInvariantBroken(f"{name} on {matched}: reduced graph is not 2-connected")
    return step


def _remove_triangle(g: _Work, rule: RuleId, match: tuple[int, ...],
                     apex: int, p: int, q: int):
    """Remove the triangle apex-p-q, join the outer neighbors of p and q, designate apex."""
    a = _third(g, p, (apex, q))
    b = _third(g, q, (apex, p))
    if a == b or g.has_edge(a, b):
        raise InternalInvariantBroken(
            f"{rule.value} on {match}: outer neighbors of triangle {apex}-{p}-{q} "
            "must be distinct and non-adjacent")
    return _build(g, [apex, p, q], [(a, b)], rule, match, (apex,))


def _apply_r1(g: _Work, match: tuple[int, ...]):
    v, u, w = match
    if not g.has_edge(u, w):
        return _build(g, [v], [(u, w)], RuleId.R1_DEGREE2, match, ())
    du, dw = g.degree(u), g.degree(w)
    if du == 2 and dw == 2:
        raise InternalInvariantBroken("degree-2 triangle: graph is C3")
    if du == 2 or dw == 2:
        raise InternalInvariantBroken("degree-2 triangle neighbor: not 2-connected")
    u3 = _third(g, u, (v, w))
    w3 = _third(g, w, (v, u))
    if u3 == w3:
        raise InternalInvariantBroken("shared third neighbor: graph has 4 vertices")
    add = [] if g.has_edge(u3, w3) else [(u3, w3)]
    return _build(g, [u, v, w], add, RuleId.R1_DEGREE2, match, (u,))


def _apply_r2(g: _Work, match: tuple[int, ...]):
    x, y, z, zp = match
    if g.has_edge(z, zp):
        raise InternalInvariantBroken("triangles close into K4")
    return _remove_triangle(g, RuleId.R2_ADJACENT_TRIANGLES, match, x, z, y)


def _apply_r3(g: _Work, match: tuple[int, ...]):
    x, y, w, z, v = match
    w3 = _third(g, w, (x, y))
    if g.has_edge(v, w3):
        # z' := w3 is the common neighbor of v and w.
        zp = w3
        if g.has_edge(z, zp):
            raise InternalInvariantBroken("configuration closes into the prism")
        zpp = _third(g, zp, (v, w))
        return _build(g, [w, y, zp], [(x, v), (v, zpp)],
                      RuleId.R3_TRIANGLE_SQUARE, match, (w,))
    return _remove_triangle(g, RuleId.R3_TRIANGLE_SQUARE, match, x, y, w)


def _apply_r4(g: _Work, match: tuple[int, ...]):
    v, x, u, w, y = match
    thirds = {s: _third(g, s, (v, x)) for s in (u, w, y)}
    distinct = set(thirds.values())
    if len(distinct) == 1:
        raise InternalInvariantBroken("all spokes share their third neighbor: K3,3")
    if len(distinct) == 3:
        add = [(thirds[u], x), (thirds[w], x), (thirds[y], x)]
        return _build(g, [u, v, w, y], add, RuleId.R4_TWO_SQUARES, match, (v,))
    # Exactly two spokes share a third neighbor: relabel so they play u and y.
    spokes = (u, w, y)
    pair = next(p for p in distinct
                if sum(1 for s in spokes if thirds[s] == p) == 2)
    su, sy = sorted(s for s in spokes if thirds[s] == pair)
    sw = next(s for s in spokes if thirds[s] != pair)
    wp = thirds[sw]
    z = _third(g, pair, (su, sy))
    if z == wp:
        raise InternalInvariantBroken(
            "shared third neighbor reaches the odd spoke's neighbor: "
            "impossible in a cubic 2-connected graph")
    add = [] if g.has_edge(z, wp) else [(z, wp)]
    return _build(g, [su, v, sw, x, sy, pair], add,
                  RuleId.R4_TWO_SQUARES, match, (v, x))


def _apply_r5(g: _Work, match: tuple[int, ...]):
    v, u = match
    cut = g.cut[1] if g.cut and g.cut[0] == match else min_side_two_edge_cut(g)
    if cut is None or edge_key(u, v) not in cut.members:
        raise InternalInvariantBroken("stale 2-edge-cut match")
    side1 = cut.sides[0] if v in cut.sides[0] else cut.sides[1]
    w, x = sorted(nb for nb in g.neighbors(v) if nb != u)
    if w not in side1 or x not in side1:
        raise InternalInvariantBroken(
            "neighbors of the cut endpoint leave the minimum side")
    if g.has_edge(w, x):
        return _remove_triangle(g, RuleId.R5_TWO_EDGE_CUT, match, w, v, x)
    w0, w1 = sorted(nb for nb in g.neighbors(w) if nb != v)
    if w0 not in side1 or w1 not in side1:
        raise InternalInvariantBroken(
            "second-level neighbors leave the minimum side")
    w00, w01 = sorted(nb for nb in g.neighbors(w0) if nb != w)
    w10, w11 = sorted(nb for nb in g.neighbors(w1) if nb != w)
    for apex, p, q in ((w, w0, w1), (w0, w00, w01), (w1, w10, w11)):
        if g.has_edge(p, q):
            return _remove_triangle(g, RuleId.R5_TWO_EDGE_CUT, match, apex, p, q)
    if {w00, w01} == {w10, w11}:
        raise InternalInvariantBroken("doubled 4-cycle survived to the cut rule")
    return _build(g, [w, w0, w1], [(w00, w01), (w10, w11)],
                  RuleId.R5_TWO_EDGE_CUT, match, (w,))


def _apply_r6(g: _Work, match: tuple[int, ...]):
    u, v, w = match
    return _remove_triangle(g, RuleId.R6_TRIANGLE, match, w, u, v)


def _apply_r7(g: _Work, match: tuple[int, ...]):
    v, x, y = match
    if g.has_edge(x, y):
        raise InternalInvariantBroken("triangle survived to the generic rule")
    x0, x1 = sorted(nb for nb in g.neighbors(x) if nb != v)
    y0, y1 = sorted(nb for nb in g.neighbors(y) if nb != v)
    if g.has_edge(x0, x1) or g.has_edge(y0, y1):
        raise InternalInvariantBroken("triangle survived to the generic rule")
    if {x0, x1} == {y0, y1}:
        raise InternalInvariantBroken("doubled 4-cycle survived to the generic rule")
    return _build(g, [v, x, y], [(x0, x1), (y0, y1)],
                  RuleId.R7_GENERIC, match, (v,))


_APPLIERS = {
    RuleId.R1_DEGREE2: _apply_r1,
    RuleId.R2_ADJACENT_TRIANGLES: _apply_r2,
    RuleId.R3_TRIANGLE_SQUARE: _apply_r3,
    RuleId.R4_TWO_SQUARES: _apply_r4,
    RuleId.R5_TWO_EDGE_CUT: _apply_r5,
    RuleId.R6_TRIANGLE: _apply_r6,
    RuleId.R7_GENERIC: _apply_r7,
}


def apply_rule(g: Graph | _Work, rule: RuleId,
               match: tuple[int, ...]) -> tuple[Graph | _Work, ReductionStep]:
    """Apply one rule to its match; the result is checked to stay in class.

    The solver's working graph is rewritten in place and returned; a Graph
    is left as it is and the reduced graph returned as a new Graph. Each step
    runs one flow test across the boundary (see the module docstring); a
    Graph is not known to be in class, so its result also passes the
    whole-graph exit check. Raises InternalInvariantBroken when the reduced
    graph leaves the class of simple 2-connected subcubic graphs: the rewrite
    proofs guarantee closure, so that only signals a bug or a stale match.
    """
    if isinstance(g, _Work):
        return g, _APPLIERS[rule](g, match)
    work = _Work(g)
    step = _APPLIERS[rule](work, match)
    return _checked_freeze(work, step), step


def _checked_freeze(work: _Work, step: ReductionStep) -> Graph:
    """The working graph after ``step``, frozen and checked whole to be in class.

    A graph that is not 2-connected names the deferred step, if one is pending.
    """
    out = work.freeze()
    if out.max_degree() > 3:
        raise InternalInvariantBroken(
            f"{step.rule} on {step.matched}: reduced graph exceeds degree 3")
    if not is_two_connected(out):
        rule, match = work.pending[1] if work.pending else (step.rule, step.matched)
        raise InternalInvariantBroken(f"{rule} on {match}: reduced graph is not 2-connected")
    return out


# -- solver --------------------------------------------------------------------


def _require_in_class(g: Graph) -> None:
    if g.max_degree() > 3:
        raise PreconditionViolated("maximum degree exceeds 3")
    if not is_two_connected(g):
        raise PreconditionViolated("graph is not 2-connected")


def _checked_work(g: Graph) -> _Work:
    """g's working graph, once one cut search checks g (see the module docstring)."""
    if g.max_degree() > 3 or g.n < 3:
        _require_in_class(g)  # raises: too small, or a degree above 3
    try:
        has_cut = has_two_edge_cut(g)
    except PreconditionViolated:  # a second component or a bridge
        raise PreconditionViolated("graph is not 2-connected") from None
    work = _Work(g)
    if not has_cut:
        work.mark_three_edge_connected()
    return work


def base_case(g: Graph) -> FvsCertificate:
    """Exact optimum for an in-class graph with at most BASE_CASE_MAX_N vertices.

    A minimum feedback vertex set automatically meets 3|S| <= n + 2 because a
    set that small always exists for 2-connected subcubic graphs.
    """
    if g.n > BASE_CASE_MAX_N:
        raise PreconditionViolated(f"base case capped at n = {BASE_CASE_MAX_N}")
    _require_in_class(g)
    return _exact_base(g)


def _exact_base(g: Graph) -> FvsCertificate:
    """``base_case`` without its precondition checks."""
    result = min_fvs_exact(g)
    step = ReductionStep(rule=RuleId.R0_BASE.value, matched=(),
                         removed_vertices=g.vertices,
                         designated=tuple(sorted(result.witness)))
    cert = FvsCertificate(fvs=result.witness,
                          bound_kind=BoundKind.CUBIC_N_PLUS_2_OVER_3,
                          bound_num=g.n + 2, bound_den=3, trace=(step,))
    if not cert.meets_bound():
        raise InternalInvariantBroken(
            "optimal set exceeds (n+2)/3 on an in-class graph")
    return cert


def solve_cubic(g: Graph) -> FvsCertificate:
    """Feedback vertex set with 3|S| <= n + 2 for a 2-connected subcubic graph.

    The rewrites run on one working graph copied from ``g`` and changed in
    place, built only when ``g`` is above the base-case size; after each one
    only the dirty set (surviving neighbors of the dropped vertices,
    endpoints of the added edges) is re-indexed for the matchers. Each step
    checks that the reduced graph is simple and smaller, and, by one flow
    test near the dirty sets (see the module docstring), that it has maximum
    degree 3 and is 2-connected. Above the base-case size the entry check is
    a cut search, and an input without a 2-edge cut is 3-edge-connected from
    step 0; R5 enumerates the cuts only when that test finds one, or while
    no graph has been proven 3-edge-connected. The exit check, the base case
    and the final check, which validates the set against ``g`` and the
    bound, run on Graphs.

    Deterministic: same input graph (same ids), same trace. A reduction that
    leaves the class raises InternalInvariantBroken: the rewrite proofs rule
    that out on valid input, so it signals a bug, never a property of the
    input.
    """
    chosen: set[int] = set()
    trace: list[ReductionStep] = []
    last = g  # checked on entry
    if g.n <= BASE_CASE_MAX_N:  # no rewrite can run, and no working graph is built
        _require_in_class(g)
    else:
        cur = _checked_work(g)
        while cur.n > BASE_CASE_MAX_N:
            rule, match = find_rule(cur)
            cur, step = apply_rule(cur, rule, match)
            chosen.update(step.designated)
            trace.append(step)
        last = _checked_freeze(cur, trace[-1])
    base = _exact_base(last)
    chosen |= base.fvs
    trace.extend(base.trace)
    cert = FvsCertificate(fvs=frozenset(chosen),
                          bound_kind=BoundKind.CUBIC_N_PLUS_2_OVER_3,
                          bound_num=g.n + 2, bound_den=3, trace=tuple(trace))
    if not validate_fvs(g, cert.fvs) or not cert.meets_bound():
        raise InternalInvariantBroken(
            "assembled set is not a certified feedback vertex set")
    return cert
