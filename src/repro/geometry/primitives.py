"""Planar geometric primitives used by layouts and the area model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import LayoutError


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle, coordinates in metres.

    ``x`` runs along the transistor channel (gate length direction), ``y``
    along the channel width, matching the top views of Figure 2.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LayoutError(
                f"rectangle {self.label!r} has negative extent: "
                f"({self.x0}, {self.y0}) .. ({self.x1}, {self.y1})")

    @property
    def width(self) -> float:
        """Extent along x [m]."""
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        """Extent along y [m]."""
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Area [m^2]."""
        return self.width * self.height

    def expanded(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` on every side (keep-out zones)."""
        if margin < 0 and (self.width < -2 * margin or self.height < -2 * margin):
            raise LayoutError(
                f"cannot shrink rectangle {self.label!r} by {-margin}")
        return Rect(self.x0 - margin, self.y0 - margin,
                    self.x1 + margin, self.y1 + margin, self.label)

    def overlaps(self, other: "Rect") -> bool:
        """True when the two rectangles overlap with positive area."""
        return (self.x0 < other.x1 and other.x0 < self.x1 and
                self.y0 < other.y1 and other.y0 < self.y1)

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies fully inside this rectangle."""
        return (self.x0 <= other.x0 and other.x1 <= self.x1 and
                self.y0 <= other.y0 and other.y1 <= self.y1)


@dataclass(frozen=True)
class BoundingBox:
    """Running bounding box accumulator over rectangles."""

    x0: float = float("inf")
    y0: float = float("inf")
    x1: float = float("-inf")
    y1: float = float("-inf")

    def including(self, rect: Rect) -> "BoundingBox":
        """Return a bounding box that also covers ``rect``."""
        return BoundingBox(
            min(self.x0, rect.x0), min(self.y0, rect.y0),
            max(self.x1, rect.x1), max(self.y1, rect.y1))

    @property
    def is_empty(self) -> bool:
        """True when no rectangle has been included yet."""
        return self.x0 > self.x1

    def to_rect(self, label: str = "bbox") -> Rect:
        """Materialise as a :class:`Rect`; raises if empty."""
        if self.is_empty:
            raise LayoutError("bounding box is empty")
        return Rect(self.x0, self.y0, self.x1, self.y1, label)


def bounding_rect(rects: Iterable[Rect], label: str = "bbox") -> Rect:
    """Bounding rectangle of a non-empty collection of rectangles."""
    box: Optional[BoundingBox] = None
    for rect in rects:
        box = (box or BoundingBox()).including(rect)
    if box is None:
        raise LayoutError("cannot bound an empty collection of rectangles")
    return box.to_rect(label)
