"""The random waypoint mobility model.

The standard synthetic movement model of the mobile-systems literature:
each user picks a uniform destination, travels to it in a straight line at
her speed, optionally pauses, then repeats.  It exercises exactly what the
anonymizer's incremental machinery cares about — users drifting out of
their cached cloaked regions at population-dependent rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import uniform_point


@dataclass
class _WaypointState:
    position: Point
    target: Point
    speed: float
    pause_left: float = 0.0


class RandomWaypointModel:
    """Moves a set of users by the random waypoint process.

    Args:
        bounds: the universe users roam in.
        rng: random generator (owned by the model).
        speed_range: per-user speed drawn uniformly from this interval.
        pause_range: pause duration at each waypoint, drawn uniformly.
    """

    def __init__(
        self,
        bounds: Rect,
        rng: np.random.Generator,
        speed_range: tuple[float, float] = (0.5, 2.0),
        pause_range: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        lo, hi = speed_range
        if lo < 0 or hi < lo:
            raise ValueError("speed_range must be 0 <= lo <= hi")
        p_lo, p_hi = pause_range
        if p_lo < 0 or p_hi < p_lo:
            raise ValueError("pause_range must be 0 <= lo <= hi")
        self.bounds = bounds
        self._rng = rng
        self._speed_range = speed_range
        self._pause_range = pause_range
        self._states: dict[Hashable, _WaypointState] = {}

    def add_user(self, user_id: Hashable, position: Point, speed: float | None = None) -> None:
        """Start tracking a user from ``position``."""
        if user_id in self._states:
            raise ValueError(f"duplicate user: {user_id!r}")
        if not self.bounds.contains_point(position):
            raise ValueError(f"{position} outside {self.bounds}")
        lo, hi = self._speed_range
        self._states[user_id] = _WaypointState(
            position=position,
            target=uniform_point(self.bounds, self._rng),
            speed=speed if speed is not None else float(self._rng.uniform(lo, hi)),
        )

    def remove_user(self, user_id: Hashable) -> None:
        del self._states[user_id]

    def position_of(self, user_id: Hashable) -> Point:
        return self._states[user_id].position

    def __len__(self) -> int:
        return len(self._states)

    def step(self, dt: float) -> dict[Hashable, Point]:
        """Advance every user by ``dt`` seconds; returns the new positions.

        Users reaching their waypoint inside the step pause (if configured)
        and then head to a fresh uniform target.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        moved: dict[Hashable, Point] = {}
        p_lo, p_hi = self._pause_range
        for user_id, state in self._states.items():
            remaining = dt
            while remaining > 0:
                if state.pause_left > 0:
                    consumed = min(state.pause_left, remaining)
                    state.pause_left -= consumed
                    remaining -= consumed
                    continue
                distance_to_target = state.position.distance_to(state.target)
                reach = state.speed * remaining
                if reach < distance_to_target or distance_to_target == 0.0:
                    if distance_to_target > 0.0:
                        frac = reach / distance_to_target
                        state.position = Point(
                            state.position.x + frac * (state.target.x - state.position.x),
                            state.position.y + frac * (state.target.y - state.position.y),
                        )
                    remaining = 0.0
                else:
                    travel_time = distance_to_target / state.speed if state.speed > 0 else remaining
                    state.position = state.target
                    remaining -= travel_time
                    state.target = uniform_point(self.bounds, self._rng)
                    if p_hi > 0:
                        state.pause_left = float(self._rng.uniform(p_lo, p_hi))
            moved[user_id] = state.position
        return moved
