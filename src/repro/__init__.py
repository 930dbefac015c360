"""Privacy-aware location-based database server.

A full reproduction of Mokbel, "Towards Privacy-Aware Location-Based
Database Servers" (ICDE Workshops 2006): the Location Anonymizer trusted
third party, six cloaking algorithms, the privacy-aware query processor for
private-over-public and public-over-private queries, an adversary suite,
and the experiment harness regenerating every figure of the paper.

Quickstart::

    from repro import PrivacySystem, PyramidCloaker, MobileUser, PrivacyProfile
    from repro.geometry import Point, Rect

    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds))
    system.add_poi("cafe", Point(10, 12))
    system.add_user(MobileUser("alice", Point(11, 11),
                               PrivacyProfile.always(k=5)))
"""

from repro.cloaking import (
    ALL_CLOAKERS,
    CloakResult,
    Cloaker,
    GridCloaker,
    HilbertCloaker,
    IncrementalCloaker,
    MBRCloaker,
    NaiveCloaker,
    PyramidCloaker,
    QuadtreeCloaker,
)
from repro.core import (
    LocationAnonymizer,
    LocationServer,
    PrivacyProfile,
    PrivacyRequirement,
    PrivacySystem,
    example_profile,
)
from repro.engine import (
    BatchEngine,
    BruteForceOracle,
    ServerSnapshot,
)
from repro.geometry import Point, Rect
from repro.mobility import MobileUser, UserMode
from repro.obs import Telemetry, disable_tracing, enable_tracing, get_telemetry
from repro.queries.spec import (
    CountSpec,
    KNNSpec,
    NNSpec,
    QuerySpec,
    RangeSpec,
    dump_specs,
    load_specs,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Point",
    "Rect",
    "PrivacyProfile",
    "PrivacyRequirement",
    "example_profile",
    "MobileUser",
    "UserMode",
    "Cloaker",
    "CloakResult",
    "NaiveCloaker",
    "MBRCloaker",
    "QuadtreeCloaker",
    "GridCloaker",
    "PyramidCloaker",
    "HilbertCloaker",
    "IncrementalCloaker",
    "ALL_CLOAKERS",
    "LocationAnonymizer",
    "LocationServer",
    "PrivacySystem",
    "BatchEngine",
    "BruteForceOracle",
    "ServerSnapshot",
    "Telemetry",
    "get_telemetry",
    "enable_tracing",
    "disable_tracing",
    "QuerySpec",
    "RangeSpec",
    "NNSpec",
    "KNNSpec",
    "CountSpec",
    "dump_specs",
    "load_specs",
]
