"""Location cloaking algorithms (Section 5 of the paper).

Data-dependent (Figure 3): :class:`NaiveCloaker`, :class:`MBRCloaker`.
Space-dependent (Figure 4): :class:`QuadtreeCloaker`, :class:`GridCloaker`,
:class:`PyramidCloaker`; plus the reciprocal :class:`HilbertCloaker`
extension.  Scalability (Section 5.3): the :class:`IncrementalCloaker`
wrapper here; shared execution is :func:`repro.engine.cloak.bulk_cloak`,
which cloaks once per partition and requirement.
"""

from repro.cloaking.base import CloakResult, Cloaker, CloakerStats, UserId, enforce_area_window
from repro.cloaking.clique import CliqueCloak, CliqueRequest, GroupCloakResult
from repro.cloaking.dummies import (
    DummyGenerator,
    DummyReport,
    dummy_posterior_size,
    reachability_filter,
)
from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker, hilbert_d
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.cloaking.temporal import TemporalCloaker, TemporalCloakResult

ALL_CLOAKERS = (
    NaiveCloaker,
    MBRCloaker,
    QuadtreeCloaker,
    GridCloaker,
    PyramidCloaker,
    HilbertCloaker,
)

__all__ = [
    "Cloaker",
    "CloakResult",
    "CloakerStats",
    "UserId",
    "enforce_area_window",
    "NaiveCloaker",
    "MBRCloaker",
    "QuadtreeCloaker",
    "GridCloaker",
    "PyramidCloaker",
    "HilbertCloaker",
    "hilbert_d",
    "IncrementalCloaker",
    "TemporalCloaker",
    "TemporalCloakResult",
    "CliqueCloak",
    "CliqueRequest",
    "GroupCloakResult",
    "DummyGenerator",
    "DummyReport",
    "reachability_filter",
    "dummy_posterior_size",
    "ALL_CLOAKERS",
]
