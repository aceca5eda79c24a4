"""Named instances, generators for the tightness families, and graph sources.

Named instances carry their expected headline numbers so tests can pin them.
Generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import GenerationFailed, PreconditionViolated, UnknownInstanceName
from .graph import Graph, edge_key, is_two_connected
from .planar import PlaneGraph, RotationSystem, _plane_graph_of, embed

GENERATOR_RETRY_CAP = 2000

# The plane K4 that ``random_planar_girth`` grows from: ``embed`` of K4 under
# networkx 3.6.1, written out so the generator never loads networkx.
_K4_ROTATION = {0: (1, 3, 2), 1: (0, 2, 3), 2: (1, 0, 3), 3: (2, 0, 1)}


@dataclass(frozen=True)
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
    past g. Deterministic in the seed, and independent of the installed
    networkx, which it never loads.
    """
    if g < 3:
        raise PreconditionViolated("girth target must be >= 3")
    if n_target < 4:
        raise PreconditionViolated("need n_target >= 4")
    rng = random.Random(seed)
    pg = _plane_graph_of(_K4_ROTATION, {e: 1 for e in combinations(range(4), 2)})
    t = -(-g // 3) - 1
    # Subdividing every edge t times turns a cubic base with n vertices into
    # n + 1.5*n*t vertices; grow the base so the final size lands near target.
    base_target = max(4, round(n_target / (1 + 1.5 * t)))
    while pg.graph.n + 2 <= base_target:
        pg = _expand_inside_face(pg, rng)
    if t > 0:
        pg = _subdivide_every_edge(pg, t)
    return pg.graph, pg.rotation


def _expand_inside_face(pg: PlaneGraph, rng: random.Random) -> PlaneGraph:
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


def _subdivide_every_edge(pg: PlaneGraph, t: int) -> PlaneGraph:
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
