"""k-nearest-neighbour MBR cloaking (Figure 3b).

The cloaked region is the minimum bounding rectangle of the user and her
``k - 1`` nearest neighbours — the smarter data-dependent technique the
paper attributes to Gedik & Liu's CliqueCloak line of work.  There is no
direct centre-of-region give-away, but the paper points out the residual
leakage: an MBR of k points has at least one point on each edge, so for
small k an adversary bets on the boundary.  The boundary attack in
:mod:`repro.attacks` exploits exactly this.
"""

from __future__ import annotations

import numpy as np

from repro.cloaking.base import Cloaker, UserId, enforce_area_window
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class MBRCloaker(Cloaker):
    """MBR-of-k-nearest-neighbours cloaker.

    Args:
        bounds: the universe rectangle.
        pad_fraction: optional symmetric padding applied to the raw MBR,
            expressed as a fraction of its width/height.  Zero reproduces
            the textbook algorithm; a small pad is a cheap (incomplete)
            mitigation of the boundary leakage used in ablation studies.
    """

    name = "mbr"
    data_dependent = True

    def __init__(self, bounds: Rect, pad_fraction: float = 0.0) -> None:
        super().__init__(bounds)
        if pad_fraction < 0:
            raise ValueError("pad_fraction must be non-negative")
        self._pad = pad_fraction

    def config(self) -> dict:
        return {"pad_fraction": self._pad}

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        group = self.k_nearest_points(point, requirement.k)
        mbr = Rect.from_points(group)
        if self._pad > 0:
            mbr = mbr.expanded(self._pad * max(mbr.width, mbr.height, 1e-12))
        return enforce_area_window(mbr, requirement, self.bounds, min_region=mbr)

    def k_nearest_points(self, point: Point, k: int) -> list[Point]:
        """The ``k`` registered locations closest to ``point`` (inclusive).

        ``point`` itself is one of the registered locations, so the group
        always contains the requesting user.
        """
        xs, ys = self._arrays()
        d2 = (xs - point.x) ** 2 + (ys - point.y) ** 2
        if k >= len(d2):
            idx = np.arange(len(d2))
        else:
            idx = np.argpartition(d2, k - 1)[:k]
        group = [Point(float(xs[i]), float(ys[i])) for i in idx]
        if not any(p.x == point.x and p.y == point.y for p in group):
            # Squared distances can underflow to an exact tie (denormal
            # coordinates), letting argpartition pick a neighbour over the
            # user herself; swap the farthest pick for her actual point.
            farthest = max(range(len(group)), key=lambda j: d2[idx[j]])
            group[farthest] = point
        return group
