"""The left-right planarity test and its embedding, on plain dicts.

A port of networkx 3.6.1's ``LRPlanarity`` and of the ``PlanarEmbedding``
half-edge rules it uses (Brandes, "The Left-Right Planarity Test", 2009; de
Fraysseix, Ossona de Mendez and Rosenstiehl, "Trémaux trees and planarity",
2006). Fed the same adjacency order, it returns the rings of networkx's
``neighbors_cw_order``. Every pass runs on an explicit stack, so no input
hits the recursion limit. Dicts replace the defaultdicts and the oriented
DiGraph, and a conflict pair is one list [left low, left high, right low,
right high]. Each new pair gets empty intervals of its own, where networkx's
``ConflictPair()`` shares its default ``Interval`` objects across calls; no
two pairs share an interval, so the lists are exact.

The ported code is covered by networkx's license, which follows.

Copyright (c) 2004-2025, NetworkX Developers
Aric Hagberg <hagberg@lanl.gov>
Dan Schult <dschult@colgate.edu>
Pieter Swart <swart@lanl.gov>
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

  * Redistributions of source code must retain the above copyright
    notice, this list of conditions and the following disclaimer.

  * Redistributions in binary form must reproduce the above
    copyright notice, this list of conditions and the following
    disclaimer in the documentation and/or other materials provided
    with the distribution.

  * Neither the name of the NetworkX Developers nor the names of its
    contributors may be used to endorse or promote products derived
    from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations


def lr_rotation(adj: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]] | None:
    """Each vertex's neighbors in clockwise order, or None if the graph is
    non-planar. ``adj`` maps every vertex, in DFS root order, to its
    neighbors in DFS scan order (``Graph._adj``: both ascending)."""
    if len(adj) > 2 and sum(map(len, adj.values())) // 2 > 3 * len(adj) - 6:
        return None
    height, parent_edge, roots = {}, {}, []
    out = {v: [] for v in adj}  # each vertex's oriented edges, in insertion order
    lowpt, lowpt2, nesting = {}, {}, {}  # by oriented edge; lowpt's keys are those edges

    # Orientation: a DFS orients every edge, computing lowpoints and nesting depth.
    ind, entered = {}, set()
    for root in adj:
        if root in height:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            hv = height[v]
            nbrs = adj[v]
            i = ind.get(v, 0)
            while i < len(nbrs):
                w = nbrs[i]
                vw = (v, w)
                if vw not in entered:
                    if vw in lowpt or (w, v) in lowpt:
                        i += 1
                        continue
                    out[v].append(w)
                    lowpt[vw] = lowpt2[vw] = hv
                    if w not in height:  # tree edge: visit w, then come back
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        entered.add(vw)
                        stack += v, w
                        break
                    lowpt[vw] = height[w]  # back edge
                low = lowpt[vw]
                nesting[vw] = 2 * low + (lowpt2[vw] < hv)  # +1 if chordal
                if e is not None:
                    low_e = lowpt[e]
                    if low < low_e:
                        lowpt2[e] = min(low_e, lowpt2[vw])
                        lowpt[e] = low
                    elif low > low_e:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1

    # Testing: merge the constraints of each vertex's outgoing edges, taken in
    # nesting order, on a stack of conflict pairs [ll, lh, rl, rh].
    ordered = {v: sorted(ws, key=lambda w, v=v: nesting[(v, w)]) for v, ws in out.items()}
    S: list[list] = []
    stack_bottom, lowpt_edge, ref, side = {}, {}, {}, {}

    def conflicting(low, high, b):
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def add_constraints(ei, e):
        pl_low = pl_high = pr_low = pr_high = None
        while True:  # merge the return edges of ei into P's right interval
            q = S.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2:] + q[:2]
            if q[0] is not None or q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if pr_low is None and pr_high is None:
                    pr_high = q[3]
                else:
                    ref[pr_low] = q[3]
                pr_low = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge the conflicting return edges of the earlier edges into P's left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            q = S.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2:] + q[:2]
            if conflicting(q[2], q[3], ei):
                return False
            ref[pr_low] = q[3]
            if q[2] is not None:
                pr_low = q[2]
            if pl_low is None and pl_high is None:
                pl_high = q[1]
            else:
                ref[pl_low] = q[1]
            pl_low = q[0]
        if not (pl_low is None and pl_high is None and pr_low is None and pr_high is None):
            S.append([pl_low, pl_high, pr_low, pr_high])
        return True

    def lowest(p):
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def remove_back_edges(e):
        u = e[0]
        hu = height[u]
        while S and lowest(S[-1]) == hu:  # drop whole pairs returning to u
            p = S.pop()
            if p[0] is not None:
                side[p[0]] = -1
        if S:  # trim the next pair's intervals
            p = S[-1]
            while p[1] is not None and p[1][1] == u:
                p[1] = ref.get(p[1])
            if p[1] is None and p[0] is not None:
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = None
            while p[3] is not None and p[3][1] == u:
                p[3] = ref.get(p[3])
            if p[3] is None and p[2] is not None:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = None
        if lowpt[e] < hu:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    ind, entered = {}, set()
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge.get(v)
            hv = height[v]
            adjv = ordered[v]
            i = ind.get(v, 0)
            while i < len(adjv):
                w = adjv[i]
                ei = (v, w)
                if ei not in entered:
                    stack_bottom[ei] = S[-1] if S else None
                    if parent_edge.get(w) == ei:  # tree edge: test w, then come back
                        ind[v] = i
                        entered.add(ei)
                        stack += v, w
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([None, None, ei, ei])
                if lowpt[ei] < hv:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            else:
                if e is not None:
                    remove_back_edges(e)

    # Embedding: resolve each edge's side along its ref chain, re-sort by
    # signed nesting depth, and lay out the rings.
    for v, ws in out.items():
        for w in ws:
            stack = [(v, w)]
            old_ref = {}
            while stack:
                e = stack.pop()
                r = ref.get(e)
                if r is not None:  # resolve r first, then come back to e
                    stack += e, r
                    old_ref[e] = r
                    ref[e] = None
                else:
                    side[e] = side.get(e, 1) * side.get(old_ref.get(e), 1)
            nesting[e] *= side[e]

    # Rings as half-edge links: cw[v][w] is the neighbor after w clockwise
    # around v. A ring is read from its leftmost neighbor.
    cw, ccw, leftmost = {v: {} for v in adj}, {v: {} for v in adj}, {}

    def add_half_edge(v, w, cw_ref=None, ccw_ref=None):
        cw_v, ccw_v = cw[v], ccw[v]
        if not cw_v:
            cw_v[w] = ccw_v[w] = leftmost[v] = w
        elif cw_ref is not None:  # w goes just counterclockwise of cw_ref
            before = ccw_v[cw_ref]
            cw_v[w], ccw_v[w] = cw_ref, before
            cw_v[before] = ccw_v[cw_ref] = w
            if cw_ref == leftmost[v]:
                leftmost[v] = w
        else:  # w goes just clockwise of ccw_ref
            after = cw_v[ccw_ref]
            cw_v[w], ccw_v[w] = after, ccw_ref
            ccw_v[after] = cw_v[ccw_ref] = w

    for v, ws in out.items():
        ordered[v] = sorted(ws, key=lambda w, v=v: nesting[(v, w)])
        for previous, w in zip([None] + ordered[v], ordered[v]):
            add_half_edge(v, w, ccw_ref=previous)

    left_ref, right_ref, ind = {}, {}, {}
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            adjv = ordered[v]
            i = ind.get(v, 0)
            while i < len(adjv):
                w = adjv[i]
                i += 1
                ei = (v, w)
                if parent_edge.get(w) == ei:  # tree edge: v becomes w's leftmost
                    add_half_edge(w, v, cw_ref=leftmost.get(w))
                    left_ref[v] = right_ref[v] = w
                    ind[v] = i
                    stack += v, w
                    break
                if side[ei] == 1:
                    add_half_edge(w, v, ccw_ref=right_ref[w])
                else:
                    add_half_edge(w, v, cw_ref=left_ref[w])
                    left_ref[w] = v

    rings = {}
    for v in adj:  # clockwise from the leftmost neighbor
        cw_v = cw[v]
        ring = [leftmost[v]] if v in leftmost else []
        while ring and cw_v[ring[-1]] != ring[0]:
            ring.append(cw_v[ring[-1]])
        rings[v] = tuple(ring)
    return rings
