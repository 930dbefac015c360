"""Unit tests for the uniform grid index."""

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex, square_grid_for_density

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def loaded(uniform_points_500):
    grid = GridIndex(BOUNDS, cols=16)
    points = dict(enumerate(uniform_points_500))
    for i, p in points.items():
        grid.insert_point(i, p)
    return grid, points


class TestCellArithmetic:
    def test_cell_of_interior(self):
        grid = GridIndex(BOUNDS, cols=10)
        assert grid.cell_of(Point(5, 5)) == (0, 0)
        assert grid.cell_of(Point(95, 15)) == (9, 1)

    def test_cell_of_far_boundary_belongs_to_last_cell(self):
        grid = GridIndex(BOUNDS, cols=10)
        assert grid.cell_of(Point(100, 100)) == (9, 9)

    def test_cell_of_outside_raises(self):
        grid = GridIndex(BOUNDS, cols=10)
        with pytest.raises(ValueError):
            grid.cell_of(Point(101, 0))

    def test_cell_rect_tiles_universe(self):
        grid = GridIndex(BOUNDS, cols=4, rows=5)
        total = sum(
            grid.cell_rect(c, r).area for c in range(4) for r in range(5)
        )
        assert total == pytest.approx(BOUNDS.area)

    @pytest.mark.parametrize("cols", [9, 11, 97])
    def test_last_column_and_row_end_on_the_bound(self, cols):
        """``min + cols * cell`` rounds exactly / above / below the bound
        for 9 / 11 / 97 columns; the last cell ends on the bound itself,
        so a far-boundary point lies inside the cell it is assigned to."""
        grid = GridIndex(BOUNDS, cols=cols)
        last = grid.cell_rect(cols - 1, cols - 1)
        assert (last.max_x, last.max_y) == (BOUNDS.max_x, BOUNDS.max_y)
        for point in (Point(100.0, 50.0), Point(50.0, 100.0), Point(100.0, 100.0)):
            assert grid.cell_rect(*grid.cell_of(point)).contains_point(point)
        # Interior gridlines are untouched: neighbours still share an edge.
        assert grid.cell_rect(cols - 2, 0).max_x == grid.cell_rect(cols - 1, 0).min_x

    def test_far_boundary_user_is_cloaked_on_a_non_dyadic_grid(self):
        """Was ``CloakingError: algorithm grid lost its own user``."""
        from repro.cloaking.grid_cloak import GridCloaker
        from repro.core.profiles import PrivacyRequirement

        cloaker = GridCloaker(BOUNDS, cols=97)
        cloaker.add_user("edge", Point(100.0, 50.0))
        cloaker.add_user("mate", Point(99.5, 50.2))
        region = cloaker.cloak("edge", PrivacyRequirement(k=2)).region
        assert region.contains_point(Point(100.0, 50.0))
        assert region.max_x == 100.0

    def test_cell_rect_out_of_range_raises(self):
        grid = GridIndex(BOUNDS, cols=4)
        with pytest.raises(ValueError):
            grid.cell_rect(4, 0)

    def test_block_rect_spans_cells(self):
        grid = GridIndex(BOUNDS, cols=10)
        assert grid.block_rect(1, 1, 3, 2) == Rect(10, 10, 40, 30)

    def test_point_lands_in_its_cell_rect(self, rng):
        grid = GridIndex(BOUNDS, cols=7, rows=13)
        for _ in range(200):
            p = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            col, row = grid.cell_of(p)
            assert grid.cell_rect(col, row).contains_point(p)


class TestCounts:
    def test_cell_counts_sum_to_total(self, loaded):
        grid, points = loaded
        total = sum(
            grid.cell_count(c, r) for c in range(grid.cols) for r in range(grid.rows)
        )
        assert total == len(points)

    def test_block_count_matches_cells(self, loaded):
        grid, _ = loaded
        block = grid.block_count(2, 3, 5, 7)
        manual = sum(
            grid.cell_count(c, r) for c in range(2, 6) for r in range(3, 8)
        )
        assert block == manual

    def test_counts_follow_deletes(self, loaded):
        grid, points = loaded
        col, row = grid.cell_of(points[0])
        before = grid.cell_count(col, row)
        grid.delete(0)
        assert grid.cell_count(col, row) == before - 1


class TestQueries:
    def test_range_matches_brute_force(self, loaded):
        grid, points = loaded
        for window in [Rect(0, 0, 100, 100), Rect(13, 27, 55, 61), Rect(-10, -10, 5, 5)]:
            expected = sorted(i for i, p in points.items() if window.contains_point(p))
            assert sorted(grid.range_query(window)) == expected

    def test_range_disjoint_window(self, loaded):
        grid, _ = loaded
        assert grid.range_query(Rect(200, 200, 300, 300)) == []

    def test_nearest_matches_brute_force(self, loaded, rng):
        grid, points = loaded
        for _ in range(10):
            q = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            got = grid.nearest(q, 3)
            got_d = sorted(points[i].distance_to(q) for i in got)
            exp_d = sorted(points[i].distance_to(q) for i in points)[:3]
            assert got_d == pytest.approx(exp_d)

    def test_nearest_in_sparse_grid(self):
        grid = GridIndex(BOUNDS, cols=20)
        grid.insert_point("far", Point(99, 99))
        assert grid.nearest(Point(0, 0), 1) == ["far"]

    def test_nearest_keeps_expanding_until_the_guard_clears(self):
        """One ring past the first candidate is not a bound: the winner
        can sit several rings out along an axis while a diagonal cell
        closer in ring order holds a farther point."""
        grid = GridIndex(BOUNDS, cols=9)
        grid.insert_point("straight_up", Point(0, 78))
        grid.insert_point("diagonal", Point(41, 66))
        query = Point(0, 2)
        assert grid.nearest(query, 1) == ["straight_up"]
        assert Point(0, 78).distance_to(query) == 76.0
        assert grid.nearest(query, 2) == ["straight_up", "diagonal"]

    def test_nearest_stops_early_when_the_guard_allows(self):
        grid = GridIndex(BOUNDS, cols=10)
        grid.insert_point("here", Point(55, 55))
        grid.insert_point("there", Point(5, 5))
        before = grid.counters.node_visits
        assert grid.nearest(Point(54, 56), 1) == ["here"]
        assert grid.counters.node_visits - before == 1  # the home cell only

    def test_nearest_empty(self):
        assert GridIndex(BOUNDS, cols=4).nearest(Point(0, 0)) == []


class TestLifecycle:
    def test_duplicate_raises(self):
        grid = GridIndex(BOUNDS, cols=4)
        grid.insert_point("a", Point(1, 1))
        with pytest.raises(ValueError, match="duplicate"):
            grid.insert_point("a", Point(2, 2))

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            GridIndex(BOUNDS, cols=4).delete("nope")

    def test_update_moves_between_cells(self):
        grid = GridIndex(BOUNDS, cols=10)
        grid.insert_point("a", Point(5, 5))
        grid.update("a", Rect.from_point(Point(95, 95)))
        assert grid.cell_count(0, 0) == 0
        assert grid.cell_count(9, 9) == 1

    def test_non_point_insert_raises(self):
        with pytest.raises(ValueError, match="points"):
            GridIndex(BOUNDS, cols=4).insert("a", Rect(0, 0, 5, 5))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GridIndex(BOUNDS, cols=0)
        with pytest.raises(ValueError):
            GridIndex(Rect(0, 0, 5, 0), cols=4)


class TestMovePoint:
    """``move_point`` is ``delete`` + ``insert_point`` in one cell step."""

    @pytest.mark.parametrize("cols,rows", [(16, 16), (97, 7), (1, 3)])
    def test_cells_equal_the_delete_insert_path_after_random_moves(self, cols, rows):
        import random

        rng = random.Random(cols * 31 + rows)
        bounds = Rect(-3.0, 2.0, 100.0, 58.5)
        stepped = GridIndex(bounds, cols=cols, rows=rows)
        reference = GridIndex(bounds, cols=cols, rows=rows)
        # Far-boundary, corner and cell-edge coordinates beside random ones.
        xs = [bounds.min_x, bounds.max_x, bounds.min_x + bounds.width / cols]
        ys = [bounds.min_y, bounds.max_y, bounds.min_y + bounds.height / rows]

        def point() -> Point:
            if rng.random() < 0.3:
                return Point(rng.choice(xs), rng.choice(ys))
            return Point(
                rng.uniform(bounds.min_x, bounds.max_x),
                rng.uniform(bounds.min_y, bounds.max_y),
            )

        for i in range(60):
            p = point()
            stepped.insert_point(i, p)
            reference.insert_point(i, p)
        for _ in range(2000):
            i = rng.randrange(60)
            p = point() if rng.random() < 0.8 else stepped.location_of(i)
            stepped.move_point(i, p)
            reference.delete(i)
            reference.insert_point(i, p)
        assert stepped._cells == reference._cells
        assert stepped._locations == reference._locations
        for col in range(cols):
            for row in range(rows):
                assert stepped.cell_count(col, row) == reference.cell_count(col, row)

    def test_same_cell_move_updates_the_point(self):
        grid = GridIndex(BOUNDS, cols=4)
        grid.insert_point("a", Point(1, 1))
        grid.move_point("a", Point(2, 3))
        assert grid.location_of("a") == Point(2, 3)
        assert grid._cells[0] == {"a": Point(2, 3)}

    def test_unknown_id_and_outside_point_change_nothing(self):
        grid = GridIndex(BOUNDS, cols=4)
        grid.insert_point("a", Point(1, 1))
        with pytest.raises(KeyError):
            grid.move_point("b", Point(2, 2))
        with pytest.raises(ValueError, match="outside"):
            grid.move_point("a", Point(101, 2))
        assert grid.location_of("a") == Point(1, 1)
        assert grid.cell_count(0, 0) == 1


class TestDensityHelper:
    def test_square_grid_for_density(self):
        grid = square_grid_for_density(BOUNDS, n_points=1000, points_per_cell=10)
        assert grid.cols == grid.rows == 10

    def test_small_population_gets_single_cell(self):
        grid = square_grid_for_density(BOUNDS, n_points=0, points_per_cell=10)
        assert grid.cols == 1

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            square_grid_for_density(BOUNDS, n_points=10, points_per_cell=0)
