"""Seeded instance lists for the benchmark workloads, and the benchmark's own
output checks.

Every workload is a fixed list of instances that depends only on the seed.
Solvers are looked up on their modules at call time (``cubic.solve_cubic``,
never a name bound at import), so the tracer's rebinding reaches them.

The output check is independent of the library: it re-tests each returned
set with its own union-find forest test, and each size against a bound
computed here from the generated edge list, girth target and weights. It
never calls ``validate_fvs`` or ``FvsCertificate.validate``.
"""

from __future__ import annotations

import importlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

# Modules by their dotted names: ``fvsbound.girth`` as a package attribute is
# the function ``girth`` that the package re-exports.
cubic = importlib.import_module("fvsbound.cubic")
girth_mod = importlib.import_module("fvsbound.girth")
graph_mod = importlib.import_module("fvsbound.graph")
instances = importlib.import_module("fvsbound.instances")
planar = importlib.import_module("fvsbound.planar")

# n -> (graphs, repeats). An untraced round certifies each graph ``repeats``
# times, in passes spread over the round, so cheap rungs get enough samples
# to beat the host's noise while the costly top rung sets the round length.
CUBIC_LADDER = {100: (32, 4), 200: (10, 2), 400: (4, 1), 800: (3, 1)}
PLANAR_G5_LADDER = {60: (20, 2), 120: (6, 2), 240: (4, 1), 480: (2, 1)}
WEIGHTED_RANDOM = 300
WEIGHTED_CHAINS = 20
WEIGHTED_CYCLES = 20
# Per-step validation threshold of acceptance criterion 06.
VALIDATE_STEP_MAX_N = 12


@dataclass
class Instance:
    """One input: its size, its edges as generated, and how to certify it.

    ``bounds`` holds one (num, den) pair per certificate ``certify`` returns,
    in the same order; a set S meets its bound when |S| * den <= num.
    ``reps`` is how many times an untraced round certifies it.
    """

    n: int
    vertices: tuple[int, ...]
    edges: list[tuple[int, int]]
    certify: Callable[[], tuple]
    bounds: tuple[tuple[int, int], ...]
    reps: int = 1


# -- workloads -----------------------------------------------------------------


def _ladder_seeds(ladder, seed: int) -> list[tuple[int, int, int]]:
    """(n, generator seed, repeats) per instance, rungs interleaved round-robin.

    Interleaving spreads each rung over the whole round, so a slow patch of
    the host falls on every rung alike.
    """
    rng = random.Random(seed)
    rungs = [[(n, rng.randrange(2**31), reps) for _ in range(k)]
             for n, (k, reps) in ladder.items()]
    out = []
    for i in range(max(len(rung) for rung in rungs)):
        out.extend(rung[i] for rung in rungs if i < len(rung))
    return out


def cubic_random(seed: int) -> list[Instance]:
    out = []
    for n, s, reps in _ladder_seeds(CUBIC_LADDER, seed):
        g = instances.random_cubic_2connected(n, s)
        out.append(Instance(
            n=n, vertices=g.vertices, edges=g.edges(),
            certify=lambda g=g: (cubic.solve_cubic(g),),
            bounds=((n + 2, 3),), reps=reps))
    return out


def planar_g5(seed: int) -> list[Instance]:
    out = []
    for n, s, reps in _ladder_seeds(PLANAR_G5_LADDER, seed):
        g, rot = instances.random_planar_girth(n, 5, s)
        pg = planar.faces_of(g, rot)
        edges = g.edges()
        gr = bfs_girth(g.vertices, edges)
        out.append(Instance(
            n=g.n, vertices=g.vertices, edges=edges,
            certify=lambda pg=pg: (girth_mod.solve_planar_unweighted(pg),),
            bounds=((4 * len(edges), 3 * gr),), reps=reps))
    return out


def weighted_mixed(seed: int) -> list[Instance]:
    """Criterion-06 families plus weighted chains and disjoint cycles.

    Sizes, girths, family parameters and girth targets cycle through their
    ranges, so every seed gets the same mix of sizes and the median instance
    does not move with a random draw of sizes; the seed draws the graphs and
    their weights.
    """
    rng = random.Random(seed)
    plain = []
    wheels = small = main = 0
    for idx in range(WEIGHTED_RANDOM):
        gen_seed = rng.randrange(2**31)
        if idx % 7 == 3:
            # wheels bring vertices of degree >= 4 into the corpus
            k = 4 + wheels % 6
            wheels += 1
            plain.append((graph_mod.Graph(range(k + 1), [(k, i) for i in range(k)]
                          + [(i, (i + 1) % k) for i in range(k)]), None))
        elif idx % 5 == 0:
            nt, gt = ((8, 3), (10, 3), (12, 3), (10, 4), (12, 6))[small % 5]
            small += 1
            plain.append(instances.random_planar_girth(nt, gt, gen_seed))
        else:
            nt, gt = 10 + main % 35, 3 + main // 35 % 5
            main += 1
            plain.append(instances.random_planar_girth(nt, gt, gen_seed))
    for i in range(WEIGHTED_CHAINS):
        plain.append((instances.chain(2 + i % 11), None))
    for i in range(WEIGHTED_CYCLES):
        plain.append((instances.disjoint_cycles(1 + i % 6, 3 + i // 6 % 5), None))

    out = []
    for g0, rot in plain:
        if rot is None:
            rot = planar.embed(g0)
        edges = g0.edges()
        weights = {e: rng.randint(0, 8) for e in edges}
        target = 3 + len(out) % 10
        g = graph_mod.Graph(g0.vertices, [(u, v, weights[u, v]) for u, v in edges])
        wg = graph_mod.weighted_girth(g)
        if wg == 0:
            weights = {e: w + 1 for e, w in weights.items()}
            g = graph_mod.Graph(g0.vertices, [(u, v, weights[u, v]) for u, v in edges])
            wg = graph_mod.weighted_girth(g)
        if wg < target:
            scale = -(-target // int(wg))
            weights = {e: scale * w for e, w in weights.items()}
            g = graph_mod.Graph(g0.vertices, [(u, v, weights[u, v]) for u, v in edges])
            wg = scale * int(wg)
        pg = planar.faces_of(g, rot)
        cfg = girth_mod.SolverConfig(g=target, validate_every_step=g.n <= VALIDATE_STEP_MAX_N)
        total = sum(weights.values())
        out.append(Instance(
            n=g.n, vertices=g.vertices, edges=edges,
            certify=lambda pg=pg, cfg=cfg: (girth_mod.solve_planar_weighted(pg, cfg),
                                            girth_mod.trivial_baseline(pg)),
            bounds=((4 * total, 3 * target), (2 * total, int(wg)))))
    return out


WORKLOADS = {
    "cubic-random": cubic_random,
    "planar-g5": planar_g5,
    "weighted-mixed": weighted_mixed,
}



# -- independent output check ------------------------------------------------------


def bfs_girth(vertices, edges) -> int:
    """Length of a shortest cycle, by a BFS from every vertex."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = len(adj) + 1
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def is_fvs(vertices, edges, s) -> bool:
    """True iff s lies in the vertex set and removing it leaves a forest."""
    if not set(s) <= set(vertices):
        return False
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in edges:
        if u in s or v in s:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check(inst: Instance, certs) -> bool:
    """The benchmark's own verdict on one instance's certificates."""
    if len(certs) != len(inst.bounds):
        return False
    for cert, (num, den) in zip(certs, inst.bounds):
        s = set(cert.fvs)
        if not is_fvs(inst.vertices, inst.edges, s) or len(s) * den > num:
            return False
    return True


def output_key(certs) -> bytes:
    """Canonical bytes of an instance's outputs: sorted sets and traces."""
    parts = []
    for cert in certs:
        parts.append("S " + " ".join(map(str, sorted(cert.fvs))))
        for step in cert.trace:
            parts.append(f"{step.rule} {list(step.matched)} {list(step.designated)}")
    return "\n".join(parts).encode()
