"""Exact minimum feedback vertex sets for desk-scale graphs.

Ground truth for tests and tightness measurements: a branch-and-bound that
branches on the vertices of a shortest cycle (complete, since every feedback
vertex set hits every cycle) with a greedy vertex-disjoint cycle packing as
an admissible lower bound, and a brute-force subset enumeration used to
cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TooLarge
from .graph import Graph, is_forest, peel_degree_le1, shortest_cycle, validate_fvs

DEFAULT_NODE_BUDGET = 2_000_000
NAIVE_MAX_N = 12


@dataclass(frozen=True)
class OracleResult:
    """Decycling number, forest number, one optimal witness, and budget status.

    ``phi`` is exact unless ``node_budget_hit`` is set, in which case it is
    only the best upper bound found before the search budget ran out.
    """

    phi: int
    forest_order: int
    witness: frozenset[int]
    node_budget_hit: bool


class _Adjacency(dict):
    """Vertex -> neighbor tuple, both ascending as in ``Graph``, with the API the search reads."""

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    neighbors = dict.__getitem__

    def degree(self, v: int) -> int:
        return len(self[v])

    def without_vertices(self, drop) -> "_Adjacency":
        drop = set(drop)
        return _Adjacency({v: tuple(u for u in ns if u not in drop)
                           for v, ns in self.items() if v not in drop})


def _prune_forest_parts(g: _Adjacency) -> _Adjacency:
    """Strip what peeling degree <= 1 vertices removes; it lies on no cycle."""
    drop = peel_degree_le1(g)
    return g.without_vertices(drop) if drop else g


def _packing_lower_bound(g: _Adjacency, cycle: list[int]) -> int:
    """Number of vertex-disjoint cycles found greedily, shortest first.

    ``g`` has no vertex of degree <= 1 and ``cycle`` is ``shortest_cycle(g)``.
    """
    count = 0
    while cycle is not None:
        count += 1
        g = _prune_forest_parts(g.without_vertices(cycle))
        cycle = shortest_cycle(g)
    return count


def _greedy_upper_bound(g: _Adjacency) -> set[int]:
    """A valid (not necessarily optimal) feedback vertex set, deterministically."""
    chosen: set[int] = set()
    g = _prune_forest_parts(g)
    while True:
        cycle = shortest_cycle(g)
        if cycle is None:
            return chosen
        v = max(cycle, key=lambda x: (g.degree(x), -x))
        chosen.add(v)
        g = _prune_forest_parts(g.without_vertices([v]))


def min_fvs_exact(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact decycling number with a witness, by branch and bound.

    The budget guards runtime on adversarial inputs; exceeding it degrades the
    answer to a clearly marked upper bound, never to a wrong optimum. Each
    node is an adjacency view, not a rebuilt ``Graph``; it keeps ``Graph``'s
    ascending order, so the nodes, their order and the witness are the same.
    """
    n = g.n
    view = _Adjacency({v: g.neighbors(v) for v in g.vertices})
    best = _greedy_upper_bound(view)
    nodes = 0
    budget_hit = False

    def search(cur: _Adjacency, chosen: set[int]) -> None:
        nonlocal best, nodes, budget_hit
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return
        cur = _prune_forest_parts(cur)
        cycle = shortest_cycle(cur)
        if cycle is None:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + _packing_lower_bound(cur, cycle) >= len(best):
            return
        for v in sorted(cycle):
            chosen.add(v)
            search(cur.without_vertices([v]), chosen)
            chosen.remove(v)
            if budget_hit:
                return

    search(view, set())
    assert validate_fvs(g, best)
    return OracleResult(phi=len(best), forest_order=n - len(best),
                        witness=frozenset(best), node_budget_hit=budget_hit)


def min_fvs_naive(g: Graph) -> int:
    """Decycling number by subset enumeration in increasing size; n <= 12 only."""
    if g.n > NAIVE_MAX_N:
        raise TooLarge(f"naive enumeration capped at n = {NAIVE_MAX_N}, got {g.n}")
    if is_forest(g):
        return 0
    vs = g.vertices
    for k in range(1, g.n + 1):
        for subset in combinations(vs, k):
            if is_forest(g.without_vertices(subset)):
                return k
    raise AssertionError("unreachable: removing all vertices leaves a forest")
