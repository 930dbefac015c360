"""Core: privacy profiles, the Location Anonymizer, and the database server.

The leaf modules (errors, profiles) are imported eagerly; the orchestration
classes are loaded lazily via module ``__getattr__`` because they depend on
:mod:`repro.cloaking` and :mod:`repro.queries`, which in turn import this
package's leaf modules — eager imports would be circular.
"""

from repro.core.errors import (
    CloakingError,
    ProfileError,
    QueryError,
    RegistrationError,
    ReproError,
)
from repro.core.profiles import (
    NO_PRIVACY,
    PrivacyProfile,
    PrivacyRequirement,
    ProfileEntry,
    example_profile,
    hhmm,
    time_of_day,
)

__all__ = [
    "ReproError",
    "ProfileError",
    "CloakingError",
    "RegistrationError",
    "QueryError",
    "PrivacyRequirement",
    "PrivacyProfile",
    "ProfileEntry",
    "NO_PRIVACY",
    "hhmm",
    "time_of_day",
    "example_profile",
    "PublicStore",
    "PrivateStore",
    "LocationServer",
    "LocationAnonymizer",
    "PrivacySystem",
    "QoSLedger",
    "RangeQueryOutcome",
    "NNQueryOutcome",
]

_LAZY = {
    "PublicStore": ("repro.core.stores", "PublicStore"),
    "PrivateStore": ("repro.core.stores", "PrivateStore"),
    "LocationServer": ("repro.core.server", "LocationServer"),
    "LocationAnonymizer": ("repro.core.anonymizer", "LocationAnonymizer"),
    "PrivacySystem": ("repro.core.system", "PrivacySystem"),
    "QoSLedger": ("repro.core.system", "QoSLedger"),
    "RangeQueryOutcome": ("repro.core.system", "RangeQueryOutcome"),
    "NNQueryOutcome": ("repro.core.system", "NNQueryOutcome"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
