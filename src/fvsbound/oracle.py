"""Exact minimum feedback vertex sets for desk-scale graphs.

Ground truth for tests and tightness measurements: a branch-and-bound that
branches on the vertices of a shortest cycle (complete, since every feedback
vertex set hits every cycle) with two admissible lower bounds, the
cyclomatic bound and a greedy vertex-disjoint cycle packing, and a
brute-force subset enumeration used to cross-check it. The cycle search
runs on the nodes' bitmasks and stops at a girth floor read off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InternalInvariantBroken, TooLarge
from .graph import INFINITE, Graph, is_forest, validate_fvs

DEFAULT_NODE_BUDGET = 2_000_000
NAIVE_MAX_N = 12


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Decycling number, forest number, one optimal witness, and budget status.

    ``phi`` is exact unless ``node_budget_hit`` is set, in which case it is
    only the best upper bound found before the search budget ran out.
    """

    phi: int
    forest_order: int
    witness: frozenset[int]
    node_budget_hit: bool


def cyclomatic_lower_bound(degrees: list[int]) -> int:
    """Fewest vertices whose (degree - 1) values can cover m - n + 1.

    Deleting a vertex of degree d lowers m - n + c by at most d - 1, and a
    forest has m - n + c = 0, so no feedback vertex set is smaller when the
    graph is nonempty (Speckenmeyer, J. Graph Theory 12, 1988).
    """
    need = sum(degrees) // 2 - len(degrees) + 1
    k = 0
    for d in sorted(degrees, reverse=True):
        if need <= 0:
            break
        need -= d - 1
        k += 1
    return k


def _girth_floor(nbr_masks: list[int], alive: int) -> int:
    """3 if the induced graph has a triangle, else 4 if it has a 4-cycle, else 5."""
    floor, rest = 5, alive
    while rest:
        bit = rest & -rest
        rest ^= bit
        around = nbr_masks[bit.bit_length() - 1] & alive
        reach = bit  # every neighbor's neighborhood holds the vertex itself
        while around:
            low = around & -around
            around ^= low
            step = nbr_masks[low.bit_length() - 1] & alive
            if step & around:
                return 3
            if step & reach != bit:
                floor = 4
            reach |= step
    return floor


def _shortest_cycle(nbrs: list[list[int]], nbr_masks: list[int], alive: int) -> int:
    """``graph.shortest_cycle`` of the graph induced by ``alive`` as a mask; 0 for a forest.

    The same BFS on the masks (same roots, frontiers, neighbor order and
    parents), so the same first shortest cycle. Only a shorter cycle replaces
    the best, and none is shorter than ``_girth_floor``: the search ends there.
    """
    floor = best = 0
    best_len = INFINITE
    roots = alive
    while roots:
        low = roots & -roots
        roots ^= low
        root = low.bit_length() - 1
        dist = {root: 0}
        parent = {root: root}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[v]
                if 2 * dv >= best_len - 1:
                    continue
                for u in nbrs[v]:
                    if not alive >> u & 1:
                        continue
                    if u not in dist:
                        dist[u] = dv + 1
                        parent[u] = v
                        nxt.append(u)
                    elif parent[v] != u and parent[u] != v and dv + dist[u] + 1 < best_len:
                        best, x, y = 1 << u | 1 << v, v, u
                        while x != y:  # climb the deeper path to the common ancestor
                            if dist[x] >= dist[y]:
                                x = parent[x]
                            else:
                                y = parent[y]
                            best |= 1 << x | 1 << y
                        best_len = best.bit_count()
                        if best_len <= 5:  # read the floor once, when it can end the search
                            floor = floor or _girth_floor(nbr_masks, alive)
                            if best_len <= floor:
                                return best
            frontier = nxt
    return best


def min_fvs_exact(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact decycling number with a witness, by branch and bound.

    The budget guards runtime on adversarial inputs; exceeding it degrades the
    answer to a clearly marked upper bound, never to a wrong optimum. Each
    node is a bitmask over the vertex indices, in ascending id order, so the
    nodes, their order and the witness are those of a search over rebuilt
    Graphs.

    A node's peeled core is a leaf when empty; otherwise it has minimum
    degree 2 and holds a cycle. It is pruned by ``cyclomatic_lower_bound``
    before any cycle search, then by the packing bound. No admissible bound
    changes the witness: it is the greedy set when that is optimal, else the
    first optimal leaf in branch order, which no admissible bound prunes.
    Every loop over a mask takes its lowest set bit (``m & -m``) at a time,
    so the vertices come in ascending index order.
    """
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[u] for u in g.neighbors(v)] for v in vs]
    nbr_masks = [sum(1 << u for u in ns) for ns in nbrs]

    def core(alive: int) -> int:
        """``alive`` less what peeling degree <= 1 vertices removes; that lies on no cycle."""
        stack = []
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if (nbr_masks[v] & alive).bit_count() <= 1:
                stack.append(v)
        for v in stack:
            alive ^= 1 << v
        while stack:
            around = nbr_masks[stack.pop()] & alive
            while around:
                low = around & -around
                around ^= low
                u = low.bit_length() - 1
                if (nbr_masks[u] & alive).bit_count() <= 1:
                    alive ^= low
                    stack.append(u)
        return alive

    def packing_lower_bound(alive: int, cycle: int) -> int:
        """Number of vertex-disjoint cycles found greedily, shortest first."""
        count = 0
        while cycle:
            count += 1
            alive = core(alive & ~cycle)
            cycle = _shortest_cycle(nbrs, nbr_masks, alive)
        return count

    # A valid (not necessarily optimal) set, deterministically.
    best = 0
    alive = core((1 << len(vs)) - 1)
    while cycle := _shortest_cycle(nbrs, nbr_masks, alive):
        # The cycle vertex of highest degree, the least one on a tie.
        pick, top = 0, -1
        while cycle:
            low = cycle & -cycle
            cycle ^= low
            degree = (nbr_masks[low.bit_length() - 1] & alive).bit_count()
            if degree > top:
                pick, top = low, degree
        best |= pick
        alive = core(alive ^ pick)
    nodes = 0
    budget_hit = False

    def search(alive: int, chosen: int) -> None:
        nonlocal best, nodes, budget_hit
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return
        alive = core(alive)
        if not alive:  # a core of minimum degree 2 holds a cycle; this is a leaf
            if chosen.bit_count() < best.bit_count():
                best = chosen
            return
        degrees = []
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            degrees.append((nbr_masks[low.bit_length() - 1] & alive).bit_count())
        if chosen.bit_count() + cyclomatic_lower_bound(degrees) >= best.bit_count():
            return
        cycle = _shortest_cycle(nbrs, nbr_masks, alive)
        if chosen.bit_count() + packing_lower_bound(alive, cycle) >= best.bit_count():
            return
        while cycle:
            low = cycle & -cycle
            cycle ^= low
            search(alive ^ low, chosen | low)
            if budget_hit:
                return

    search((1 << len(vs)) - 1, 0)
    witness = frozenset(v for i, v in enumerate(vs) if best >> i & 1)
    if not validate_fvs(g, witness):
        raise InternalInvariantBroken("exact search returned a set that leaves a cycle")
    return OracleResult(phi=len(witness), forest_order=len(vs) - len(witness),
                        witness=witness, node_budget_hit=budget_hit)


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
