"""Named instances, generators for the tightness families, and graph sources.

Named instances carry their expected headline numbers so tests can pin them.
Generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import GenerationFailed, PreconditionViolated, UnknownInstanceName
from .graph import EdgeKey, Graph, edge_key, is_two_connected
from .planar import RotationSystem, _plane_graph_of, embed

GENERATOR_RETRY_CAP = 2000

# The plane K4 that ``random_planar_girth`` grows from: ``embed`` of K4 (the
# left-right planarity test), written out so the generator never embeds.
_K4_ROTATION = {0: (1, 3, 2), 1: (0, 2, 3), 2: (1, 0, 3), 3: (2, 0, 1)}
# Its four faces, as ``faces_of`` walks and numbers them.
_K4_FACES = (((0, 1), (1, 2), (2, 0)), ((0, 3), (3, 1), (1, 0)),
             ((0, 2), (2, 3), (3, 0)), ((1, 3), (3, 2), (2, 1)))


@dataclass(frozen=True, slots=True)
class NamedInstance:
    name: str
    graph: Graph
    rotation: RotationSystem | None
    expected: dict = field(default_factory=dict)


def _cycle_graph(k: int) -> Graph:
    return Graph(range(k), [(i, (i + 1) % k) for i in range(k)])


def _cube() -> Graph:
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8)
             if bin(a ^ b).count("1") == 1]
    return Graph(range(8), edges)


def _generalized_petersen(n: int, k: int) -> Graph:
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, i + n) for i in range(n)]
    inner = [(i + n, (i + k) % n + n) for i in range(n)]
    return Graph(range(2 * n), outer + spokes + inner)


def _k33() -> Graph:
    return Graph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])


def chain(k: int) -> Graph:
    """The outerplanar ladder-with-diagonals chain, k rungs of triangle pairs.

    Column i holds bottom vertex 2i and top vertex 2i+1; every quad carries
    the diagonal top(i)-bottom(i+1), so each of the k blocks is a pair of
    triangles. n = 2(k+1), and the largest induced forest has exactly 2n/3
    vertices whenever 3 divides n.
    """
    if k < 1:
        raise PreconditionViolated("chain needs at least one block")
    edges = []
    for i in range(k + 1):
        edges.append((2 * i, 2 * i + 1))
    for i in range(k):
        edges.append((2 * i, 2 * i + 2))
        edges.append((2 * i + 1, 2 * i + 3))
        edges.append((2 * i + 1, 2 * i + 2))
    return Graph(range(2 * k + 2), edges)


def disjoint_cycles(k: int, g: int) -> Graph:
    """k disjoint cycles of length g: the tight family for the m/g conjecture."""
    if k < 1 or g < 3:
        raise PreconditionViolated("need k >= 1 and g >= 3")
    edges = []
    for j in range(k):
        base = j * g
        edges.extend((base + i, base + (i + 1) % g) for i in range(g))
    return Graph(range(k * g), edges)


_NAMED_BUILDERS = {
    "k4": lambda: (Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)]),
                   {"n": 4, "m": 6, "girth": 3, "phi": 2, "planar": True}),
    "k33": lambda: (_k33(), {"n": 6, "m": 9, "girth": 4, "phi": 2, "planar": False}),
    "cube": lambda: (_cube(), {"n": 8, "m": 12, "girth": 4, "phi": 3, "planar": True}),
    "dodecahedron": lambda: (_generalized_petersen(10, 2),
                             {"n": 20, "m": 30, "girth": 5, "phi": 6, "planar": True}),
    "prism": lambda: (_generalized_petersen(3, 1),
                      {"n": 6, "m": 9, "girth": 3, "phi": 2, "planar": True}),
    "petersen": lambda: (_generalized_petersen(5, 2),
                         {"n": 10, "m": 15, "girth": 5, "phi": 3, "planar": False}),
}


def named_instance_names() -> list[str]:
    return sorted(_NAMED_BUILDERS) + ["c<k>", "chain<k>"]


def make_named(name: str) -> NamedInstance:
    """Canonical labeled instance; planar ones come with a valid embedding."""
    key = name.lower()
    if key in _NAMED_BUILDERS:
        graph, expected = _NAMED_BUILDERS[key]()
    elif m := re.fullmatch(r"c(\d+)", key):
        k = int(m.group(1))
        if k < 3:
            raise UnknownInstanceName(f"cycle length must be >= 3, got {k}")
        graph = _cycle_graph(k)
        expected = {"n": k, "m": k, "girth": k, "phi": 1, "planar": True}
    elif m := re.fullmatch(r"chain(\d+)", key):
        k = int(m.group(1))
        graph = chain(k)
        expected = {"n": 2 * k + 2, "m": 4 * k + 1, "girth": 3, "planar": True}
    else:
        raise UnknownInstanceName(f"no instance named {name!r}")
    rotation = embed(graph) if expected.get("planar") else None
    return NamedInstance(name=key, graph=graph, rotation=rotation,
                         expected=expected)


def triangle_replace(g: Graph) -> Graph:
    """Blow each vertex of a cubic graph into a triangle, one corner per edge.

    The result is cubic on 3n vertices and every feedback vertex set must take
    a vertex from each added triangle.
    """
    if any(g.degree(v) != 3 for v in g.vertices):
        raise PreconditionViolated("triangle replacement needs a 3-regular graph")
    index = {v: i for i, v in enumerate(g.vertices)}

    def corner(v: int, towards: int) -> int:
        return 3 * index[v] + g.neighbors(v).index(towards)

    edges = []
    for v in g.vertices:
        base = 3 * index[v]
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    for u, v in g.edges():
        edges.append((corner(u, v), corner(v, u)))
    return Graph(range(3 * g.n), edges)


def random_cubic_2connected(n: int, seed: int) -> Graph:
    """Random simple cubic 2-connected graph via the pairing model.

    Pairs 3n half-edges uniformly, rejects loops, parallels, and graphs that
    are not 2-connected (equivalently 2-edge-connected at max degree 3), and
    retries; deterministic in the seed.
    """
    if n < 4 or n % 2:
        raise PreconditionViolated("cubic graphs need even n >= 4")
    rng = random.Random(seed)
    half_edges = [v for v in range(n) for _ in range(3)]
    for _ in range(GENERATOR_RETRY_CAP):
        stubs = half_edges.copy()
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(u == v for u, v in pairs):
            continue
        keys = {edge_key(u, v) for u, v in pairs}
        if len(keys) != len(pairs):
            continue
        g = Graph(range(n), sorted(keys))
        if is_two_connected(g):
            return g
    raise GenerationFailed(f"no cubic 2-connected graph after {GENERATOR_RETRY_CAP} tries")


def random_planar_girth(n_target: int, g: int, seed: int) -> tuple[Graph, RotationSystem]:
    """Random plane graph with girth >= g, embedding included.

    Grows a 2-connected cubic planar base from a fixed plane K4 by repeatedly
    subdividing two edges of one face and joining the new vertices inside it,
    then subdivides every edge ceil(g/3) - 1 times so all cycle lengths scale
    past g. Deterministic in the seed; it grows from ``_K4_ROTATION``.

    The base grows in place on one rotation dict and one weight map, and keeps
    its faces as lists of darts. Each starts at its least dart under the scan
    key (v, order[v].index(u)) of dart (v, u), and the faces are ranked by
    that key, as ``faces_of`` numbers them. The key never moves: a
    subdivision puts the middle vertex at the old neighbor's place in the
    ring, and new vertices take the largest ids. So an expansion changes the
    rank of no face but the new one. The result is built, and its faces
    walked, once: expansions and subdivisions only add vertices and edges and
    keep the surface a sphere, so that build's checks cover every step.
    """
    if g < 3:
        raise PreconditionViolated("girth target must be >= 3")
    if n_target < 4:
        raise PreconditionViolated("need n_target >= 4")
    rng = random.Random(seed)
    base = _GrowingCubicBase()
    t = -(-g // 3) - 1
    # Subdividing every edge t times turns a cubic base with n vertices into
    # n + 1.5*n*t vertices; grow the base so the final size lands near target.
    base_target = max(4, round(n_target / (1 + 1.5 * t)))
    while base.top + 3 <= base_target:  # the base has top + 1 vertices
        base.expand(rng)
    order, weights = base.order, base.weights
    if t > 0:
        weights = _subdivide_every_edge(order, weights, base.top + 1, t)
    pg = _plane_graph_of({v: tuple(ring) for v, ring in order.items()}, weights)
    return pg.graph, pg.rotation


class _GrowingCubicBase:
    """The cubic base of ``random_planar_girth``: rings, weight map and ranked
    face lists, edited in place; ``dart_face`` maps each dart to its face."""

    def __init__(self) -> None:
        self.order = {v: list(ring) for v, ring in _K4_ROTATION.items()}
        self.weights = {e: 1 for e in combinations(range(4), 2)}
        self.top = 3
        self.faces = [list(face) for face in _K4_FACES]
        self.dart_face = {d: face for face in self.faces for d in face}

    def _key(self, dart: tuple[int, int]) -> tuple[int, int]:
        v, u = dart
        return v, self.order[v].index(u)

    def expand(self, rng: random.Random) -> None:
        """Subdivide two boundary edges of a random face and join them by a chord.

        Face F = d_0..d_k with d_i = (x_a, y_a) and d_j = (x_b, y_b), i < j,
        keeps its rank as d_0..d_{i-1}, (x_a, a), (a, b), (b, y_b), d_{j+1}..;
        the new face (a, y_a), d_{i+1}..d_{j-1}, (x_b, b), (b, a) is turned to
        start at its least dart and inserted at its rank. Each face across a
        subdivided edge (x, y) gets (y, mid), (mid, x) in place of (y, x).
        """
        faces, order, weights, dart_face = self.faces, self.order, self.weights, self.dart_face
        face = faces[rng.randrange(len(faces))]
        i, j = sorted(rng.sample(range(len(face)), 2))
        (x_a, y_a), (x_b, y_b) = face[i], face[j]
        a, b = self.top + 1, self.top + 2
        self.top = b
        for x, y, mid in ((x_a, y_a, a), (x_b, y_b, b)):
            for p, q in ((x, y), (y, x)):
                ring = order[p]
                ring[ring.index(q)] = mid
            del weights[edge_key(x, y)]
            weights[x, mid] = weights[y, mid] = 1
            del dart_face[x, y]
            across = dart_face.pop((y, x))
            k = across.index((y, x))
            across[k:k + 1] = [(y, mid), (mid, x)]
            dart_face[y, mid] = dart_face[mid, x] = across
        order[a] = [x_a, b, y_a]
        order[b] = [x_b, a, y_b]
        weights[a, b] = 1
        inner = face[i + 1:j] + [(x_b, b)]
        k = inner.index(min(inner, key=self._key))
        new = inner[k:] + [(b, a), (a, y_a)] + inner[:k]
        face[i:j + 1] = [(x_a, a), (a, b), (b, y_b)]
        for d in face[i:i + 3]:
            dart_face[d] = face
        for d in new:
            dart_face[d] = new
        rank = bisect.bisect(faces, self._key(new[0]), key=lambda f: self._key(f[0]))
        faces.insert(rank, new)


def _subdivide_every_edge(order: dict[int, list[int]], weights: dict[EdgeKey, int],
                          next_id: int, t: int) -> dict[EdgeKey, int]:
    """Replace each edge by a path with t inner vertices, ids from ``next_id``
    in sorted edge order; edits the rings in place and returns the new weight
    map. Multiplies every cycle length by t + 1."""
    new_weights = {}
    for u, v in sorted(weights):
        path = [u, *range(next_id, next_id + t), v]
        next_id += t
        new_weights.update(dict.fromkeys(map(edge_key, path, path[1:]), 1))
        ring = order[u]
        ring[ring.index(v)] = path[1]
        ring = order[v]
        ring[ring.index(u)] = path[-2]
        for prev_v, mid, nxt in zip(path, path[1:], path[2:]):
            order[mid] = [prev_v, nxt]
    return new_weights
