"""Adversary models quantifying cloaking information leakage (Section 5)."""

from repro.attacks.base import AttackOutcome, LocationAttack
from repro.attacks.density import DensityModel, DensityWeightedAttack
from repro.attacks.linkage import LinkageStep, MaxSpeedLinkageAttack
from repro.attacks.location import (
    BoundaryAttack,
    CenterAttack,
    RandomGuessAttack,
    distance_to_boundary,
    on_boundary_fraction,
)
from repro.attacks.metrics import AttackReport, evaluate_attacks
from repro.attacks.posterior import (
    PosteriorResult,
    posterior_anonymity,
    reciprocity_rate,
    regions_equal,
)
from repro.attacks.streaming import (
    StreamingDensityModel,
    StreamingPosteriorIndex,
    bucket_anonymity,
)

__all__ = [
    "AttackOutcome",
    "LocationAttack",
    "DensityModel",
    "DensityWeightedAttack",
    "CenterAttack",
    "BoundaryAttack",
    "RandomGuessAttack",
    "distance_to_boundary",
    "on_boundary_fraction",
    "PosteriorResult",
    "posterior_anonymity",
    "reciprocity_rate",
    "regions_equal",
    "MaxSpeedLinkageAttack",
    "LinkageStep",
    "AttackReport",
    "evaluate_attacks",
    "StreamingDensityModel",
    "StreamingPosteriorIndex",
    "bucket_anonymity",
]
