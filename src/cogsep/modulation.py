"""Rectangular QAM/PAM constellation geometry.

Constellations are M_I x M_Q grids of equiprobable points with a prescribed
average symbol power; PAM is the M_Q = 1 special case. Points are classified
as corner / edge / inner, which is the symmetry grouping the closed-form
error-rate expressions rely on.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mathcore import _check_integer, _check_positive

__all__ = [
    "ConstellationSpec",
    "PointClass",
    "DegenerateConstellationError",
]


class DegenerateConstellationError(ValueError):
    """Constellation with a single point (M_I = M_Q = 1)."""


class PointClass(Enum):
    CORNER = "corner"
    EDGE = "edge"
    INNER = "inner"


@dataclass(frozen=True)
class ConstellationSpec:
    """Rectangular grid constellation: sizes per axis and average power.

    ``power`` is the mean symbol power (1/M) sum |s|^2 in linear units.
    Symbols are equiprobable.
    """

    m_inphase: int
    m_quadrature: int
    power: float

    def __post_init__(self) -> None:
        for name in ("m_inphase", "m_quadrature"):
            # stored as a Python int: a numpy integer would wrap in m**2
            # without a warning
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), 1))
        if self.size < 2:
            raise DegenerateConstellationError(
                "constellation needs at least 2 points (M_I * M_Q >= 2)"
            )
        object.__setattr__(self, "power", _check_positive("power", self.power))

    @property
    def size(self) -> int:
        return self.m_inphase * self.m_quadrature

    def min_distance(self) -> float:
        """Minimum inter-point distance sqrt(12 P / (M_I^2 + M_Q^2 - 2))."""
        denom = self.m_inphase**2 + self.m_quadrature**2 - 2
        return math.sqrt(12.0 * self.power / denom)

    def inphase_levels(self) -> np.ndarray:
        """Amplitude levels (2n + 1 - M_I) * d/2 for n = 0..M_I-1."""
        return self._levels(self.m_inphase)

    def quadrature_levels(self) -> np.ndarray:
        """Amplitude levels (2q + 1 - M_Q) * d/2 for q = 0..M_Q-1."""
        return self._levels(self.m_quadrature)

    def _levels(self, m: int) -> np.ndarray:
        return (2 * np.arange(m) + 1 - m) * (self.min_distance() / 2.0)

    def classify_point(self, n: int, q: int) -> PointClass:
        """Geometric class of a grid point.

        Corner: both coordinates extremal. Inner: neither extremal.
        Everything else is an edge point. For PAM (an axis of size 1) the
        single index on that axis counts as extremal, so the two endpoint
        symbols classify as corners and interior symbols as edges.
        """
        self._check_indices(n, q)
        n_ext = n in (0, self.m_inphase - 1)
        q_ext = q in (0, self.m_quadrature - 1)
        if n_ext and q_ext:
            return PointClass.CORNER
        if not n_ext and not q_ext:
            return PointClass.INNER
        return PointClass.EDGE

    def class_counts(self) -> dict[PointClass, int]:
        """Points per class; weighs ``sep_class_conditional`` into the full SEP."""
        counts = {PointClass.CORNER: 0, PointClass.EDGE: 0, PointClass.INNER: 0}
        for q in range(self.m_quadrature):
            for n in range(self.m_inphase):
                counts[self.classify_point(n, q)] += 1
        return counts

    def _check_indices(self, n: int, q: int) -> None:
        if not (0 <= n < self.m_inphase and 0 <= q < self.m_quadrature):
            raise ValueError(
                f"indices ({n}, {q}) out of range for "
                f"{self.m_inphase}x{self.m_quadrature} grid"
            )
