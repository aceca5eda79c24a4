"""Certified feedback vertex sets and the reduction traces behind them."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .graph import EdgeKey, Graph, validate_fvs


class BoundKind(enum.Enum):
    CUBIC_N_PLUS_2_OVER_3 = "cubic_n_plus_2_over_3"
    PLANAR_4M_OVER_3G = "planar_4m_over_3g"
    PLANAR_WEIGHTED = "planar_weighted"
    TRIVIAL_2M_OVER_G = "trivial_2m_over_g"
    EXACT_OPTIMUM = "exact_optimum"


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One rule application: what matched, what changed, who joined the set.

    ``designated`` lists the vertices this step adds to the feedback vertex
    set (empty for weight-free steps, two for the six-vertex double-square
    reduction). ``removed_vertices``, ``removed_edges`` and ``added_edges``
    are tuples in ascending order, each edge written (u, v) with u < v. A
    trace holds one step per rewrite, so these fields hold most of a
    certificate's memory: a small tuple takes a fraction of a frozenset's,
    its order is the order the trace prints, and an edge tuple may be the
    very key of the graph the edge came from.
    """

    rule: str
    matched: tuple[int, ...]
    removed_vertices: tuple[int, ...] = ()
    removed_edges: tuple[EdgeKey, ...] = ()
    added_edges: tuple[EdgeKey, ...] = ()
    designated: tuple[int, ...] = ()
    note: str = ""


@dataclass(frozen=True, slots=True)
class FvsCertificate:
    """A vertex set together with the exact rational bound it is certified against.

    Bounds are stored as integer numerator/denominator and every check is done
    in integer arithmetic: ``size * bound_den <= bound_num``.
    """

    fvs: frozenset[int]
    bound_kind: BoundKind
    bound_num: int
    bound_den: int
    trace: tuple[ReductionStep, ...] = ()

    @property
    def size(self) -> int:
        return len(self.fvs)

    @property
    def bound(self) -> Fraction:
        return Fraction(self.bound_num, self.bound_den)

    def meets_bound(self) -> bool:
        return self.size * self.bound_den <= self.bound_num

    def validate(self, g: Graph) -> bool:
        """True iff the set is a feedback vertex set of g and meets the bound."""
        return validate_fvs(g, self.fvs) and self.meets_bound()
