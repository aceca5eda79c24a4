"""Golden digests: pin every set and trace on a fixed corpus across refactors.

Each digest is the sha256 of the sorted set on one line followed by the
trace, one ``cli._format_step`` line per step. A refactor that changes any
chosen vertex, match order or rule firing changes the digest.
"""

import hashlib
import random

import pytest

from fvsbound.cli import _format_step
from fvsbound.cubic import solve_cubic
from fvsbound.girth import SolverConfig, solve_planar_unweighted, solve_planar_weighted, trivial_baseline
from fvsbound.graph import Graph, weighted_girth
from fvsbound.instances import (
    chain,
    disjoint_cycles,
    make_named,
    random_cubic_2connected,
    random_planar_girth,
    triangle_replace,
)
from fvsbound.planar import embed, faces_of

from bruteforce import (
    assert_canonical,
    cut_joined_pair,
    far_cut_triangle_chain,
    r4_all_distinct_instance,
    r4_two_equal_instance,
    r5_gadget_pair,
    subdivided,
    subdivided_rim_wheel,
    three_edge_joined_pair,
    triangle_chain,
    weighted_chorded_cycle,
)


def canonical_text(cert) -> str:
    lines = ["S " + " ".join(map(str, sorted(cert.fvs)))]
    lines.extend(_format_step(step) for step in cert.trace)
    return "\n".join(lines) + "\n"


def _named_plane(name):
    inst = make_named(name)
    return faces_of(inst.graph, inst.rotation)


def _embedded(g):
    return faces_of(g, embed(g))


# The path 0-1 joins a triangle and a square, with a pendant path 3-9-10 and
# an isolated vertex 11. The baseline takes {2, 5}; a pick from the 2-core,
# which keeps the path 0-1, would start at 0.
BRIDGED = Graph(range(12), [(2, 0), (0, 1), (1, 5), (2, 3), (3, 4), (4, 2), (5, 6),
                            (6, 7), (7, 8), (8, 5), (3, 9), (9, 10)])


def _wheels(*wheels):
    """Union of wheels, each given as (rim ids in cyclic order, hub id)."""
    edges = {e for rim, hub in wheels
             for e in [(hub, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1]))}
    return Graph(sorted({v for e in edges for v in e}), edges)


def _solve_weighted_checked(g, target=None):
    target = int(weighted_girth(g)) if target is None else target
    return solve_planar_weighted(_embedded(g), SolverConfig(g=target, validate_every_step=True))


def _solve_weighted(g):
    return solve_planar_weighted(_embedded(g), SolverConfig(g=int(weighted_girth(g))))


def _cycled_weights(g):
    """g with weights 1, 2, ..., 5, 1, ... on its edges in sorted order."""
    return Graph(g.vertices, [(u, v, 1 + i % 5) for i, (u, v) in enumerate(g.edges())])


def _subdivided_cubic():
    g = random_cubic_2connected(40, 3)
    return subdivided(g, random.Random(3), g.m // 3)


CASES = {
    **{f"cubic-{name}": (lambda name=name: solve_cubic(make_named(name).graph))
       for name in ("k4", "k33", "cube", "dodecahedron", "prism", "petersen")},
    **{f"planar-{name}": (lambda name=name: solve_planar_unweighted(_named_plane(name)))
       for name in ("k4", "cube", "dodecahedron", "prism", "c5", "chain4")},
    **{f"cubic-random-n{n}": (lambda n=n: solve_cubic(random_cubic_2connected(n, 1)))
       for n in (12, 50, 200, 800)},
    # Fires R1, R3, R5 and R6.
    "cubic-triangle-replaced-n30":
        lambda: solve_cubic(triangle_replace(random_cubic_2connected(30, 2))),
    # Fires R1, R4, R6 and R7.
    "cubic-subdivided-n40": lambda: solve_cubic(_subdivided_cubic()),
    "cubic-r4-two-equal": lambda: solve_cubic(r4_two_equal_instance()),
    "cubic-r4-all-distinct": lambda: solve_cubic(r4_all_distinct_instance()),
    "cubic-r5-gadget-pair": lambda: solve_cubic(r5_gadget_pair()),
    "cubic-random-n1600": lambda: solve_cubic(random_cubic_2connected(1600, 1)),
    # 688 vertices; R5 fires 76 times on the first cut, before any graph is
    # proven 3-edge-connected, so each of its queries is global.
    "cubic-cut-joined-pair-n688":
        lambda: solve_cubic(cut_joined_pair(random.Random(1), 1, (150, 200))),
    # 708 vertices; R5 fires 7 times on 2-edge cuts that rewrites make after
    # a graph was proven 3-edge-connected, so the local tests find them first.
    "cubic-three-edge-joined-pair-n708":
        lambda: solve_cubic(three_edge_joined_pair(random.Random(5), 5, (150, 200))),
    **{f"planar-random-g{g}":
       (lambda g=g: solve_planar_unweighted(faces_of(*random_planar_girth(60, g, 1))))
       for g in (3, 5)},
    "trivial-dodecahedron": lambda: trivial_baseline(_named_plane("dodecahedron")),
    **{f"trivial-random-g{g}":
       (lambda g=g: trivial_baseline(faces_of(*random_planar_girth(60, g, 1))))
       for g in (3, 5)},
    "trivial-bridged": lambda: trivial_baseline(_embedded(BRIDGED)),
    "planar-disjoint-cycles-4x5": lambda: solve_planar_unweighted(_embedded(disjoint_cycles(4, 5))),
    # Fires P4 then P5.
    "planar-random-g7-n240":
        lambda: solve_planar_unweighted(faces_of(*random_planar_girth(240, 7, 1))),
    "planar-chain50": lambda: solve_planar_unweighted(_embedded(chain(50))),
    # Fires P3 x3, then P4 x6; unit weights, so both digests agree.
    "planar-subdivided-w6": lambda: solve_planar_unweighted(_embedded(subdivided_rim_wheel(6))),
    "weighted-subdivided-w6-g4": lambda: _solve_weighted_checked(subdivided_rim_wheel(6), 4),
    "planar-triangle-chain30": lambda: solve_planar_unweighted(_embedded(triangle_chain(30))),
    # Fires P2 x2, P3 x3, P4 x6.
    "weighted-random-plane-s5": lambda: _solve_weighted_checked(weighted_chorded_cycle(5)),
    # Split ids are fresh only in their own side, so each side lifts its own.
    "planar-disjoint-w4-pair":
        lambda: solve_planar_unweighted(_embedded(_wheels(([0, 1, 2, 3], 4), ([5, 6, 7, 8], 9)))),
    "planar-hub-glued-w4-pair":
        lambda: solve_planar_unweighted(_embedded(_wheels(([0, 1, 2, 3], 4), ([5, 6, 7, 8], 4)))),
    # Fires P3 x37.
    "planar-w40": lambda: solve_planar_unweighted(_embedded(_wheels((list(range(40)), 40)))),
    "planar-far-cut-triangle-chain30":
        lambda: solve_planar_unweighted(_embedded(far_cut_triangle_chain(30))),
    # The weighted tail without per-step validation, which skips every
    # intermediate graph: P2 x2, P3 x3, P4 x6; P3 x3, P4 x6; P3 x9.
    "weighted-random-plane-s5-unchecked": lambda: _solve_weighted(weighted_chorded_cycle(5)),
    "weighted-subdivided-w6-unchecked":
        lambda: _solve_weighted(_cycled_weights(subdivided_rim_wheel(6))),
    "weighted-w12-unchecked": lambda: _solve_weighted(_cycled_weights(_wheels((list(range(12)), 12)))),
}

GOLDEN = {
    "cubic-cube": "12c73cfcc04d5a082b08441e75689a52de33bd35f005b3d2a0dd08081b444db6",
    "cubic-dodecahedron": "f2ddd28b3245609e58361e8b1cf35f0f4322dcf3a2fac3f14c5c621285278e99",
    "cubic-k33": "aa8c0d0b0bb81b7e3d252ebe560ec670ffb7152b297934e5f478262f9bb71a9c",
    "cubic-k4": "c05cdb4870e90b1548014b2cdb40c82b635cfd3dfab1d423aeffd801c9aaf477",
    "cubic-petersen": "ab63ddfb3e6ff403db63ce40f36fb3d883937685666999d8b0c0b61a6864c9b5",
    "cubic-prism": "61a2646d1b2f589dfaff393bd7b4742ccfc4312868011764bb385a5dae593ebe",
    "cubic-r4-all-distinct": "2b52d43515a68fc0554868a69780e13710e275ec12e6d917d36ea787414c90a5",
    "cubic-r4-two-equal": "7908a3d5ccbe993bd494ea49c28b7873c8f99bc3542b9417b9c17a7db96df602",
    "cubic-r5-gadget-pair": "919042b06783dd4e7e6714459b197d394455eb4d377dd37c05eb43f9bd82e7f8",
    "cubic-cut-joined-pair-n688": "b36aab58f875a160d83bcd3eb194e8b751021e558b1f7077f34bbe191dd84cd6",
    "cubic-random-n1600": "5f1dc1f4d433ca19551b08d2581e9b881abaf3a70e8b4409f5641c23118fc866",
    "cubic-random-n12": "847800d943fc4f8d83cd93ac2bbe5a5a2ecedeb3c8f62d3e5dc8f353b2016a90",
    "cubic-random-n200": "f4525ed947ca20157929ea73312df3ab78669147134f00214e1eba8e379daa60",
    "cubic-random-n50": "26cd6a8159f6e51cda3a81bdfc1f7d3740aab4f0ca919dc08a5b7aad70e636a3",
    "cubic-random-n800": "8bb62ee2f44e73deff7627df6210b3a24bf6327e67d43f37fb59c49b84e8e52a",
    "cubic-subdivided-n40": "4172ff429d7a95ec8f5a6348400eba48292663668aa2f88a42693d54707e1f6a",
    "cubic-three-edge-joined-pair-n708": "7ef07ce57c1db961301abdc8c9c47cf8b148836a6e74e37038c7fbe73035e083",
    "cubic-triangle-replaced-n30": "efaf3d8e4b51d8af6b10ac6769bbc0d8ffceacd6b0e751c5beea8b3501de4006",
    "planar-c5": "4f4053df74a135e0d81ce5e80497c1cb21fa64a5d0c3f40c37cc01fd8d48a617",
    "planar-chain4": "e9552a141c30c062ca473201fda580677e891bb782cdf478963f2725a0a730b5",
    "planar-chain50": "50dd456aad7f1621093fe2a8dd039972d706300e0620bb55b52b1cc03cb6a17d",
    "planar-cube": "b0108605ef4c43c4850c3d960e515b8f74bff44cc1d84c6fa893eec19d5dc3e3",
    "planar-disjoint-cycles-4x5": "3d7603bdc1a86b1aae59214c5e428b3009595fdf94bfb6ba6b364123f86163a4",
    "planar-disjoint-w4-pair": "96c3005ac87b89beed5eac6d84aa7beff712110209318e07df5f70c903a301c0",
    "planar-dodecahedron": "23a81b36fe01e8f57345b1bb03c117a802af0bd8ba11505729a0aab51844070d",
    "planar-far-cut-triangle-chain30": "c46306b56213b0f214cc68cbabed43374b356b4acd44f331e4f32917752891b4",
    "planar-hub-glued-w4-pair": "5e3f0dcd42ab07ce9bbf7d3014debe0940fbc6167f6fee6d88eb7d5aebf5ffed",
    "planar-k4": "9b2b92ce7ed36cc2fb2b453c2f0c37ae99fe07f31d6e62877957b63eb0ad2bcb",
    "planar-prism": "9583a159e01dd560002c15dcf28459195aef6b43623375c521168d84ef9980db",
    "planar-random-g3": "768255d94211594d0625a14d2f4d219dd1fc49961063565ade6c9b091d6d0e8f",
    "planar-random-g5": "a7e72f3ba485fb9182b3d93c1a8cf9bd818a6bfb6ab039a89e01ab86931d3dc7",
    "planar-random-g7-n240": "ed91298872557d69e5221d70cde3329a1fc1e4f2bb58ebcd17fda256a79933fb",
    "planar-subdivided-w6": "56cc3204bdacf8b9606ed09ed6f10fca18eec6ecfa1ee475a3cb44082764f58e",
    "planar-triangle-chain30": "ef99f7eae7b8cec0b14199bc79f6d56b9a77566d62878c40c471c6461c5fef71",
    "planar-w40": "8dadb52c3bc5ca4788221144a9b066b21c6e932432e474dc702de3135c5aaf9a",
    "trivial-bridged": "2088bedd7a370d96a619dd23456c24b6b3f8c1640c330fa128e1767d2c129e2a",
    "trivial-dodecahedron": "be25d553a3990232a06290011954dfea9f247ced9d2d450981259608aa8389ce",
    "trivial-random-g3": "80ee6dcddf24be8d751c8739bd187868a775a2af09e7bf5e87e608a3e9288c1c",
    "trivial-random-g5": "1e233c7aef4ffc59ac529fa597b0483a1664c9f75b7b1f522b5f0701497bd013",
    "weighted-random-plane-s5": "f2490c161ad113a765cfd2a140d0d99d101df1d5afd3060ae5c2fed204e850eb",
    "weighted-subdivided-w6-g4": "56cc3204bdacf8b9606ed09ed6f10fca18eec6ecfa1ee475a3cb44082764f58e",
    "weighted-random-plane-s5-unchecked": "f2490c161ad113a765cfd2a140d0d99d101df1d5afd3060ae5c2fed204e850eb",
    "weighted-subdivided-w6-unchecked": "56cc3204bdacf8b9606ed09ed6f10fca18eec6ecfa1ee475a3cb44082764f58e",
    "weighted-w12-unchecked": "42173a8817db64feff1915148beaed2615b8d0d4453650436f9e78db7ae75fee",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    text = canonical_text(CASES[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_fields_are_sorted_tuples(case):
    for step in CASES[case]().trace:
        assert_canonical(step)
