"""``SpatialIndex.update`` is all or nothing, on every backend.

A refused geometry (outside the universe, not a point) or an unknown id
must leave the index as it was: same size, same stored geometry, same
answers.  The default ``update`` used to delete first and fail second.
"""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index import GridIndex, KDTree, PyramidGrid, QuadTree, RTree

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
OUTSIDE = Rect.from_point(Point(150.0, 50.0))
NOT_A_POINT = Rect(10.0, 10.0, 20.0, 20.0)

BACKENDS = {
    "rtree": (lambda: RTree(max_entries=4), []),
    "quadtree": (lambda: QuadTree(BOUNDS, capacity=2), [OUTSIDE, NOT_A_POINT]),
    "grid": (lambda: GridIndex(BOUNDS, cols=5), [OUTSIDE, NOT_A_POINT]),
    "pyramid": (lambda: PyramidGrid(BOUNDS, height=3), [OUTSIDE, NOT_A_POINT]),
    "kdtree": (lambda: KDTree(), [NOT_A_POINT]),
}
POINTS = {n: Point(7.0 * n % 100, 13.0 * n % 100) for n in range(30)}
WINDOW = Rect(0.0, 0.0, 60.0, 60.0)


def observed(index):
    return (
        len(index),
        {item: index.geometry_of(item) for item in index},
        sorted(index.range_query(WINDOW)),
        index.nearest(Point(50.0, 50.0), 5),
    )


@pytest.fixture(params=sorted(BACKENDS))
def loaded(request):
    build, refused = BACKENDS[request.param]
    index = build()
    for item, point in POINTS.items():
        index.insert_point(item, point)
    return index, refused


def test_refused_geometry_leaves_the_entry_where_it_was(loaded):
    index, refused = loaded
    before = observed(index)
    for geometry in refused:
        with pytest.raises(ValueError):
            index.update(3, geometry)
        assert observed(index) == before


def test_unknown_id_changes_nothing(loaded):
    index, _ = loaded
    before = observed(index)
    with pytest.raises(KeyError):
        index.update("ghost", Rect.from_point(Point(1.0, 1.0)))
    assert "ghost" not in index
    assert observed(index) == before


def test_accepted_update_still_moves_the_entry(loaded):
    index, _ = loaded
    index.update(3, Rect.from_point(Point(99.0, 1.0)))
    assert index.geometry_of(3) == Rect.from_point(Point(99.0, 1.0))
    assert len(index) == len(POINTS)
    assert index.nearest(Point(100.0, 0.0), 1) == [3]
