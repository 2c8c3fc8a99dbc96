"""Rect / bounding-box primitives."""

import pytest

from repro.errors import LayoutError
from repro.geometry.primitives import BoundingBox, Rect, bounding_rect


def test_rect_dimensions():
    r = Rect(0, 0, 3, 2)
    assert r.width == 3
    assert r.height == 2
    assert r.area == 6


def test_rect_negative_extent_rejected():
    with pytest.raises(LayoutError):
        Rect(1, 0, 0, 1)


def test_rect_zero_area_allowed():
    assert Rect(1, 1, 1, 1).area == 0


def test_expanded_grows_all_sides():
    r = Rect(0, 0, 2, 2).expanded(1)
    assert (r.x0, r.y0, r.x1, r.y1) == (-1, -1, 3, 3)


def test_expanded_negative_margin_shrinks():
    r = Rect(0, 0, 4, 4).expanded(-1)
    assert r.area == pytest.approx(4)


def test_expanded_too_much_shrink_rejected():
    with pytest.raises(LayoutError):
        Rect(0, 0, 1, 1).expanded(-1)


def test_overlaps():
    a = Rect(0, 0, 2, 2)
    assert a.overlaps(Rect(1, 1, 3, 3))
    assert not a.overlaps(Rect(2, 0, 3, 1))  # touching is not overlap
    assert not a.overlaps(Rect(5, 5, 6, 6))


def test_contains():
    outer = Rect(0, 0, 10, 10)
    assert outer.contains(Rect(1, 1, 2, 2))
    assert outer.contains(outer)
    assert not outer.contains(Rect(9, 9, 11, 11))


def test_bounding_rect():
    box = bounding_rect([Rect(0, 0, 1, 1), Rect(5, -1, 6, 3)])
    assert (box.x0, box.y0, box.x1, box.y1) == (0, -1, 6, 3)


def test_bounding_rect_empty_rejected():
    with pytest.raises(LayoutError):
        bounding_rect([])


def test_bounding_box_accumulation():
    box = BoundingBox().including(Rect(0, 0, 1, 1))
    box = box.including(Rect(-2, 0, 0, 5))
    r = box.to_rect()
    assert (r.x0, r.y0, r.x1, r.y1) == (-2, 0, 1, 5)


def test_empty_bounding_box_rejected():
    with pytest.raises(LayoutError):
        BoundingBox().to_rect()
