"""Combinatorial plane embeddings: rotation systems, faces, and surgeries.

A rotation system stores, for every vertex, its incident neighbors in
clockwise order. Faces are recovered by the usual traversal rule (after
arriving at ``v`` from ``u``, leave along the successor of ``u`` in ``v``'s
rotation); the rotation encodes a plane embedding exactly when the number of
face walks matches Euler's formula, which ``faces_of`` enforces. A graph
without a rotation gets one from ``embed``: Brandes' left-right planarity
test, iterative, with no networkx.

Every derived plane graph (an induced subgraph, a merger's result, the end
of a run of surgeries, a generated graph) is built by ``_plane_graph_of``
from a rotation dict, which doubles as the adjacency map, and a weight map.
So the face ids the trace records are numbered one way: by first dart,
scanning vertices in ascending order and each ring clockwise. Faces are
walked from scratch, so every walk re-checks Euler's relation; the planar
cascade walks them once per run of vertex splits and degree-2 suppressions,
which edit the two maps in place.

The walk also maps each dart to the id of its face (``PlaneGraph.dart_face``),
and it checks f = m - n + 2c, so a non-empty plane graph with m - n + 2 faces
is connected: the cascade reads connectivity off the face count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InternalInvariantBroken,
    InvalidMerger,
    InvalidRotation,
    MemberNotInGraph,
    NonPlanarRotation,
    PreconditionViolated,
    WouldCreateParallelEdge,
)
from .graph import (
    EdgeKey,
    Graph,
    connected_components,
    edge_key,
    is_two_connected,
)


@dataclass(frozen=True, slots=True)
class RotationSystem:
    """Per-vertex clockwise cyclic order of neighbors."""

    order: dict[int, tuple[int, ...]]

    def validate_for(self, g: Graph) -> None:
        if self.order.keys() != g._adj.keys():
            raise InvalidRotation("rotation vertices differ from graph vertices")
        for v, ring in self.order.items():
            if tuple(sorted(ring)) != g.neighbors(v):  # Graph keeps neighbors sorted
                raise InvalidRotation(
                    f"rotation at {v} is not a permutation of its neighbors")


@dataclass(frozen=True, slots=True)
class Face:
    """A face boundary: the closed walk of directed edges tracing it."""

    id: int
    boundary: tuple[tuple[int, int], ...]

    @property
    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.boundary)

    @property
    def boundary_edges(self) -> frozenset[EdgeKey]:
        return frozenset(edge_key(u, v) for u, v in self.boundary)

    def __len__(self) -> int:
        return len(self.boundary)


@dataclass(frozen=True, slots=True)
class PlaneGraph:
    """A graph, the rotation system embedding it, the derived faces, and the
    walk's map from each dart to its face: an edge's two darts name the faces
    on its two sides, one face twice for a bridge."""

    graph: Graph
    rotation: RotationSystem
    faces: tuple[Face, ...]
    dart_face: dict[tuple[int, int], int]

    def face_count(self) -> int:
        return len(self.faces)


def faces_of(g: Graph, rotation: RotationSystem) -> PlaneGraph:
    """Derive the face set of a rotation system and check Euler's relation.

    Every component contributes its own outer walk, so a planar rotation with
    c components has exactly m - n + 2c face walks (isolated vertices count
    one degenerate empty-boundary face each). Any other count means the
    rotation encodes a surface of positive genus.
    """
    rotation.validate_for(g)
    order = rotation.order
    faces: list[Face] = []
    dart_face: dict[tuple[int, int], int] = {}
    for v in g.vertices:
        for u in order[v]:
            if (v, u) in dart_face:
                continue
            walk = []
            fid = len(faces)
            cur = (v, u)
            while cur not in dart_face:
                dart_face[cur] = fid
                walk.append(cur)
                x, y = cur
                ring = order[y]
                cur = (y, ring[(ring.index(x) + 1) % len(ring)])
            if cur != (v, u):
                raise InvalidRotation("face traversal did not close on its start")
            faces.append(Face(id=len(faces), boundary=tuple(walk)))
    for v in g.vertices:
        if g.degree(v) == 0:
            faces.append(Face(id=len(faces), boundary=()))
    c = len(connected_components(g))
    expected = g.m - g.n + 2 * c
    if len(faces) != expected:
        raise NonPlanarRotation(
            f"face count {len(faces)} != m - n + 2c = {expected}; "
            "rotation is not a plane embedding")
    return PlaneGraph(graph=g, rotation=rotation, faces=tuple(faces), dart_face=dart_face)


def embed(g: Graph) -> RotationSystem | None:
    """A rotation system embedding g in the plane, or None if g is non-planar.

    Brandes' left-right planarity test, iterative and with no networkx:
    ``_lr_planarity`` ports networkx 3.6.1's code and gives its rings, scanning
    vertices and neighbors in ascending order. It is imported on first call.
    """
    from ._lr_planarity import lr_rotation

    rings = lr_rotation(g._adj)
    return None if rings is None else RotationSystem(rings)


def _plane_graph_of(order: dict[int, tuple[int, ...]],
                    weights: dict[EdgeKey, int]) -> PlaneGraph:
    """The plane graph of a rotation dict (each vertex's neighbors, clockwise)
    and a weight map, faces walked afresh; every derived plane graph is built here."""
    graph = Graph(order, [(u, v, w) for (u, v), w in weights.items()])
    return faces_of(graph, RotationSystem({v: order[v] for v in sorted(order)}))


def plane_subgraph(pg: PlaneGraph, keep: Iterable[int]) -> PlaneGraph:
    """Induced plane subgraph: restrict both the rotation and the weights."""
    keep = set(keep)
    rings = pg.rotation.order
    missing = keep - rings.keys()
    if missing:
        raise MemberNotInGraph(f"vertices {sorted(missing)} not in graph")
    order = {v: tuple(u for u in rings[v] if u in keep) for v in keep}
    weight = pg.graph.weight
    return _plane_graph_of(order, {(v, u): weight(v, u)
                                   for v, ring in order.items() for u in ring if v < u})


# -- mergers -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MergerSpec:
    """Three mergeable faces, their crucial vertex, and the edges a merger removes.

    ``f1`` is the middle face: it shares boundary edges with both ``f0`` and
    ``f2``. ``removed_edges`` is every edge lying on the boundary of two faces
    among the three (the union over all three unordered pairs).
    """

    f0: int
    f1: int
    f2: int
    crucial: int
    removed_edges: frozenset[EdgeKey]
    removed_weight: int


def _merger_removed_edges(pg: PlaneGraph, fids: set[int]) -> frozenset[EdgeKey]:
    """The edges whose two sides are two different faces among ``fids``."""
    face_of = pg.dart_face
    return frozenset(edge_key(u, v) for f in fids for u, v in pg.faces[f].boundary
                     if face_of[v, u] != f and face_of[v, u] in fids)


def find_guaranteed_merger(pg: PlaneGraph, g_min: int) -> MergerSpec | None:
    """The proof-backed merger: a face with at most two branch vertices.

    Such a face is adjacent to exactly two other faces; merging all three
    removes at least the whole boundary of the middle face, whose weight is at
    least the minimum cycle weight, so the merger is automatically nice. Ties
    are broken by smallest face id, then smallest crucial vertex id. Returns
    None when every face has three or more vertices of degree >= 3.
    """
    graph = pg.graph
    if not is_two_connected(graph):
        raise PreconditionViolated("merger search requires a 2-connected graph")
    if all(graph.degree(v) == 2 for v in graph.vertices):
        raise PreconditionViolated("merger search requires a non-cycle")
    return _guaranteed_merger(pg, g_min)


def _guaranteed_merger(pg: PlaneGraph, g_min: int) -> MergerSpec | None:
    """``find_guaranteed_merger`` on a graph known to be 2-connected and not a cycle."""
    graph, face_of = pg.graph, pg.dart_face
    for face in pg.faces:
        if len({u for u, _ in face.boundary if graph.degree(u) >= 3}) > 2:
            continue
        # The faces across the boundary edges at each boundary vertex.
        across: dict[int, set[int]] = {}
        for u, v in face.boundary:
            f = face_of[v, u]
            across.setdefault(u, set()).add(f)
            across.setdefault(v, set()).add(f)
        neighbor_fids = set().union(*across.values()) - {face.id}
        if len(neighbor_fids) != 2:
            raise InternalInvariantBroken(
                f"face {face.id} with <=2 branch vertices is adjacent to "
                f"{len(neighbor_fids)} faces; expected exactly 2")
        fa, fb = sorted(neighbor_fids)
        crucial = min((v for v, fs in across.items() if fa in fs and fb in fs), default=None)
        if crucial is None:
            raise InternalInvariantBroken(
                f"face {face.id}: no vertex meets both adjacent faces")
        removed = _merger_removed_edges(pg, {face.id, fa, fb})
        weight = sum(graph.weight(u, v) for u, v in removed)
        if 4 * weight < 3 * g_min:
            raise InternalInvariantBroken(
                "guaranteed merger is not nice; a cycle lighter than the "
                "minimum weight must have slipped in")
        return MergerSpec(f0=fa, f1=face.id, f2=fb, crucial=crucial,
                          removed_edges=removed, removed_weight=weight)
    return None


def apply_merger(pg: PlaneGraph, spec: MergerSpec) -> PlaneGraph:
    """Delete the merger's edges and any vertex that ends up isolated.

    Both leave the rotation dict and the weight map, and ``_plane_graph_of``
    walks the faces afresh; when the result stays connected and non-empty the
    face count drops by exactly 2 (three faces became one).
    """
    fids = {spec.f0, spec.f1, spec.f2}
    if len(fids) != 3 or any(f >= len(pg.faces) or f < 0 for f in fids):
        raise InvalidMerger("merger must name three distinct existing faces")
    b0 = pg.faces[spec.f0].boundary_edges
    b1 = pg.faces[spec.f1].boundary_edges
    b2 = pg.faces[spec.f2].boundary_edges
    for fid in fids:
        if spec.crucial not in pg.faces[fid].boundary_vertices:
            raise InvalidMerger(
                f"crucial vertex {spec.crucial} is not on the boundary of face {fid}")
    if not (b0 & b1) or not (b1 & b2):
        raise InvalidMerger("middle face must share an edge with both others")
    if spec.removed_edges != _merger_removed_edges(pg, fids):
        raise InvalidMerger("removed_edges does not match the three faces' shared edges")
    order, weights = dict(pg.rotation.order), pg.graph.edge_weights()
    for u, v in spec.removed_edges:
        del weights[u, v]
        order[u] = tuple(x for x in order[u] if x != v)
        order[v] = tuple(x for x in order[v] if x != u)
    result = _plane_graph_of({v: ring for v, ring in order.items() if ring}, weights)
    # faces_of checked f = m - n + 2c, so the result is connected iff f = m - n + 2.
    n, m, f = result.graph.n, result.graph.m, result.face_count()
    if n and f == m - n + 2 and f != pg.face_count() - 2:
        raise InternalInvariantBroken("connected merger result must lose exactly two faces")
    return result


# -- degree surgeries ---------------------------------------------------------
#
# Both surgeries edit a rotation dict, which doubles as the adjacency map
# (order[v] is v's neighbors, clockwise), and a weight map in place. The
# public functions run one edit on copies; the planar cascade runs a whole
# batch on one pair and builds the plane graph once at the end.


def _relabel(ring: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    i = ring.index(old)
    return ring[:i] + (new,) + ring[i + 1:]


def _split_in_place(order: dict[int, tuple[int, ...]], weights: dict[EdgeKey, int],
                    v: int, top: int) -> tuple[int, int]:
    """Split v into w = top + 1 and w' = top + 2 (see ``split_high_degree_vertex``)."""
    ring = order.pop(v)
    start = ring.index(min(ring))
    seq = ring[start:] + ring[:start]
    w, w_prime = top + 1, top + 2
    order[w] = (seq[0], seq[1], w_prime)
    order[w_prime] = seq[2:] + (w,)
    for i, u in enumerate(seq):
        new = w if i < 2 else w_prime
        order[u] = _relabel(order[u], v, new)
        weights[edge_key(u, new)] = weights.pop(edge_key(u, v))
    weights[(w, w_prime)] = 0
    return w, w_prime


def _suppress_in_place(order: dict[int, tuple[int, ...]], weights: dict[EdgeKey, int],
                       v: int) -> None:
    """Replace the degree-2 vertex v by an edge carrying the summed weight."""
    u, w = order.pop(v)
    weights[edge_key(u, w)] = weights.pop(edge_key(u, v)) + weights.pop(edge_key(v, w))
    order[u] = _relabel(order[u], v, w)
    order[w] = _relabel(order[w], v, u)


def split_high_degree_vertex(pg: PlaneGraph, v: int) -> tuple[PlaneGraph, tuple[int, int, int]]:
    """Split a vertex of degree >= 4 into an adjacent pair (w, w').

    w keeps two neighbors that are consecutive in v's clockwise rotation
    (starting at the smallest-id neighbor, which keeps the result plane and
    the choice deterministic); w' keeps the rest; the new edge ww' has weight
    0. Returns the new plane graph and the (w, w', v) id mapping so
    certificates can be lifted back.
    """
    graph = pg.graph
    d = graph.degree(v)
    if d < 4:
        raise PreconditionViolated(f"vertex {v} has degree {d} < 4")
    order, weights = dict(pg.rotation.order), graph.edge_weights()
    w, w_prime = _split_in_place(order, weights, v, max(graph.vertices))
    result = _plane_graph_of(order, weights)
    if result.face_count() != pg.face_count():
        raise InternalInvariantBroken("vertex split must preserve the face count")
    return result, (w, w_prime, v)


def suppress_degree2_vertex(pg: PlaneGraph, v: int) -> PlaneGraph:
    """Replace a degree-2 vertex by a direct edge carrying the summed weight."""
    graph = pg.graph
    if graph.degree(v) != 2:
        raise PreconditionViolated(f"vertex {v} has degree {graph.degree(v)} != 2")
    u, w = graph.neighbors(v)
    if graph.has_edge(u, w):
        raise WouldCreateParallelEdge(
            f"neighbors {u}, {w} of {v} are adjacent; earlier rules should have fired")
    order, weights = dict(pg.rotation.order), graph.edge_weights()
    _suppress_in_place(order, weights, v)
    result = _plane_graph_of(order, weights)
    if result.face_count() != pg.face_count():
        raise InternalInvariantBroken("suppression must preserve the face count")
    return result
