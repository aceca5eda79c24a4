"""Golden digests: pin every set and trace on a fixed corpus across refactors.

Each digest is the sha256 of the sorted set on one line followed by the
trace, one ``cli._format_step`` line per step. A refactor that changes any
chosen vertex, match order or rule firing changes the digest.
"""

import hashlib

import pytest

from fvsbound.cli import _format_step
from fvsbound.cubic import solve_cubic
from fvsbound.girth import solve_planar_unweighted, trivial_baseline
from fvsbound.instances import make_named, random_cubic_2connected, random_planar_girth
from fvsbound.planar import faces_of


def canonical_text(cert) -> str:
    lines = ["S " + " ".join(map(str, sorted(cert.fvs)))]
    lines.extend(_format_step(step) for step in cert.trace)
    return "\n".join(lines) + "\n"


def _named_plane(name):
    inst = make_named(name)
    return faces_of(inst.graph, inst.rotation)


CASES = {
    **{f"cubic-{name}": (lambda name=name: solve_cubic(make_named(name).graph))
       for name in ("k4", "k33", "cube", "dodecahedron", "prism", "petersen")},
    **{f"planar-{name}": (lambda name=name: solve_planar_unweighted(_named_plane(name)))
       for name in ("k4", "cube", "dodecahedron", "prism", "c5", "chain4")},
    **{f"cubic-random-n{n}": (lambda n=n: solve_cubic(random_cubic_2connected(n, 1)))
       for n in (12, 50, 200)},
    **{f"planar-random-g{g}":
       (lambda g=g: solve_planar_unweighted(faces_of(*random_planar_girth(60, g, 1))))
       for g in (3, 5)},
    "trivial-dodecahedron": lambda: trivial_baseline(_named_plane("dodecahedron")),
}

GOLDEN = {
    "cubic-cube": "12c73cfcc04d5a082b08441e75689a52de33bd35f005b3d2a0dd08081b444db6",
    "cubic-dodecahedron": "f2ddd28b3245609e58361e8b1cf35f0f4322dcf3a2fac3f14c5c621285278e99",
    "cubic-k33": "aa8c0d0b0bb81b7e3d252ebe560ec670ffb7152b297934e5f478262f9bb71a9c",
    "cubic-k4": "c05cdb4870e90b1548014b2cdb40c82b635cfd3dfab1d423aeffd801c9aaf477",
    "cubic-petersen": "ab63ddfb3e6ff403db63ce40f36fb3d883937685666999d8b0c0b61a6864c9b5",
    "cubic-prism": "61a2646d1b2f589dfaff393bd7b4742ccfc4312868011764bb385a5dae593ebe",
    "cubic-random-n12": "847800d943fc4f8d83cd93ac2bbe5a5a2ecedeb3c8f62d3e5dc8f353b2016a90",
    "cubic-random-n200": "f4525ed947ca20157929ea73312df3ab78669147134f00214e1eba8e379daa60",
    "cubic-random-n50": "26cd6a8159f6e51cda3a81bdfc1f7d3740aab4f0ca919dc08a5b7aad70e636a3",
    "planar-c5": "4f4053df74a135e0d81ce5e80497c1cb21fa64a5d0c3f40c37cc01fd8d48a617",
    "planar-chain4": "e9552a141c30c062ca473201fda580677e891bb782cdf478963f2725a0a730b5",
    "planar-cube": "b0108605ef4c43c4850c3d960e515b8f74bff44cc1d84c6fa893eec19d5dc3e3",
    "planar-dodecahedron": "23a81b36fe01e8f57345b1bb03c117a802af0bd8ba11505729a0aab51844070d",
    "planar-k4": "9b2b92ce7ed36cc2fb2b453c2f0c37ae99fe07f31d6e62877957b63eb0ad2bcb",
    "planar-prism": "9583a159e01dd560002c15dcf28459195aef6b43623375c521168d84ef9980db",
    "planar-random-g3": "768255d94211594d0625a14d2f4d219dd1fc49961063565ade6c9b091d6d0e8f",
    "planar-random-g5": "a7e72f3ba485fb9182b3d93c1a8cf9bd818a6bfb6ab039a89e01ab86931d3dc7",
    "trivial-dodecahedron": "be25d553a3990232a06290011954dfea9f247ced9d2d450981259608aa8389ce",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    text = canonical_text(CASES[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]
