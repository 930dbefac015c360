"""Declarative query specifications: the system's single query language.

A :class:`QuerySpec` *describes* a question without choosing how to
answer it — no index backend, no kernel-vs-scalar route, no server entry
point.  The four spec classes cover the paper's query taxonomy
(range / NN / k-NN / count), each in a ``public`` flavor (exact
parameters, no privacy) and a ``private`` flavor (asked through the
anonymizer from a cloaked region, optionally bound to a registered
user).  :meth:`repro.core.system.PrivacySystem.query` accepts any spec
and routes it through the planner (:mod:`repro.planner`), whose route
table picks the scalar processor or the vectorized kernel by kind.

Specs are frozen, validated at construction (bad queries fail before
they reach a server), and JSON round-trippable via
:meth:`to_dict` / :func:`spec_from_dict` — a workload is a list of
dicts, i.e. data, not code (``evalx/query_workload.py`` draws its mixed
workloads straight into spec lists).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Hashable, Iterable, Mapping, Union

from repro.core.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Who is asking: ``public`` = exact parameters in the clear, ``private``
#: = through the anonymizer from a cloaked region.
QUERY_FLAVORS = ("public", "private")


def _require_flavor(flavor: str) -> None:
    if flavor not in QUERY_FLAVORS:
        raise QueryError(
            f"flavor must be one of {QUERY_FLAVORS}, got {flavor!r}"
        )


def _require_subject(spec) -> None:
    """Private-flavor specs name exactly one subject: a user or a region."""
    if (spec.user is None) == (spec.region is None):
        raise QueryError(
            f"private {spec.kind} spec needs exactly one of user= "
            f"(full pipeline) or region= (server-side candidates)"
        )


def _rect_out(rect: Rect | None) -> list[float] | None:
    return None if rect is None else list(rect.as_tuple())


def _rect_in(value) -> Rect | None:
    return None if value is None else Rect(*(float(v) for v in value))


def _point_out(point: Point | None) -> list[float] | None:
    return None if point is None else [point.x, point.y]


def _point_in(value) -> Point | None:
    return None if value is None else Point(float(value[0]), float(value[1]))


@dataclass(frozen=True)
class RangeSpec:
    """Range query.

    Public flavor: all public objects inside ``window``.
    Private flavor: all public objects within ``radius`` of the subject —
    a registered ``user`` (cloak + refine pipeline) or a cloaked
    ``region`` (server-side candidate set only).
    """

    flavor: str = "public"
    window: Rect | None = None
    user: Hashable | None = None
    region: Rect | None = None
    radius: float = 0.0
    method: str = "exact"
    kind: ClassVar[str] = "range"

    def __post_init__(self) -> None:
        _require_flavor(self.flavor)
        if self.flavor == "public":
            if self.window is None:
                raise QueryError("public range spec needs window=")
            if self.user is not None or self.region is not None:
                raise QueryError(
                    "public range spec takes no user/region subject"
                )
        else:
            if self.window is not None:
                raise QueryError(
                    "private range spec takes radius=, not window="
                )
            _require_subject(self)
            if self.radius < 0:
                raise QueryError(
                    f"radius must be non-negative, got {self.radius}"
                )
            if self.method not in ("exact", "mbr"):
                raise QueryError(
                    f"unknown candidate method: {self.method!r}"
                )


@dataclass(frozen=True)
class NNSpec:
    """Nearest-neighbour query.

    Public flavor: the nearest object to ``point`` — over the public
    store (``dataset="public"``, exact) or over the cloaked private
    regions (``dataset="private"``, the paper's probabilistic Figure 6b
    answer, Monte-Carlo seeded by ``seed``).
    Private flavor: "my nearest public object" for a ``user`` or from a
    cloaked ``region``.
    """

    flavor: str = "public"
    point: Point | None = None
    dataset: str = "public"
    samples: int = 4096
    seed: int = 0
    user: Hashable | None = None
    region: Rect | None = None
    method: str = "filter"
    kind: ClassVar[str] = "nn"
    #: Nearest neighbour is the k = 1 case of k-NN (not a field: the
    #: runners read ``spec.k`` off either class).
    k: ClassVar[int] = 1

    def __post_init__(self) -> None:
        _require_flavor(self.flavor)
        if self.dataset not in ("public", "private"):
            raise QueryError(
                f"dataset must be 'public' or 'private', got {self.dataset!r}"
            )
        if self.flavor == "public":
            if self.point is None:
                raise QueryError("public nn spec needs point=")
            if self.user is not None or self.region is not None:
                raise QueryError("public nn spec takes no user/region subject")
            if self.samples < 0:
                raise QueryError("samples must be non-negative")
        else:
            if self.point is not None:
                raise QueryError("private nn spec locates its subject itself")
            if self.dataset != "public":
                raise QueryError(
                    "private nn queries answer over public objects; "
                    "dataset='private' is only meaningful for flavor='public'"
                )
            _require_subject(self)
            if self.method not in ("range", "filter", "exact"):
                raise QueryError(
                    f"unknown candidate method: {self.method!r}"
                )


@dataclass(frozen=True)
class KNNSpec:
    """k-nearest-neighbour query over the public objects.

    Public flavor: the canonical k-NN list for ``point``.
    Private flavor: the candidate superset for a ``user`` (with local
    refinement to the true k list) or a cloaked ``region``.
    """

    flavor: str = "public"
    k: int = 1
    point: Point | None = None
    user: Hashable | None = None
    region: Rect | None = None
    method: str = "filter"
    kind: ClassVar[str] = "knn"

    def __post_init__(self) -> None:
        _require_flavor(self.flavor)
        if self.k < 1:
            raise QueryError(f"k must be positive, got {self.k}")
        if self.flavor == "public":
            if self.point is None:
                raise QueryError("public knn spec needs point=")
            if self.user is not None or self.region is not None:
                raise QueryError(
                    "public knn spec takes no user/region subject"
                )
        else:
            if self.point is not None:
                raise QueryError("private knn spec locates its subject itself")
            _require_subject(self)
            if self.method not in ("range", "filter"):
                raise QueryError(
                    f"unknown candidate method: {self.method!r}"
                )


@dataclass(frozen=True)
class CountSpec:
    """Probabilistic count of cloaked private users inside ``window``.

    Only the public flavor exists: the paper reduces private-over-private
    queries to the other quadrants (end of its Section 6.1), so a private
    count is expressed as a public ``CountSpec`` over the asker's own
    cloaked neighbourhood.
    """

    window: Rect
    flavor: str = "public"
    kind: ClassVar[str] = "count"

    def __post_init__(self) -> None:
        _require_flavor(self.flavor)
        if self.flavor != "public":
            raise QueryError(
                "count queries have no private flavor: the paper reduces "
                "private-over-private queries to the public count quadrant"
            )
        if self.window is None:
            raise QueryError("count spec needs window=")


QuerySpec = Union[RangeSpec, NNSpec, KNNSpec, CountSpec]

#: Concrete spec classes, keyed by their ``kind`` tag.
SPEC_CLASSES: dict[str, type] = {
    cls.kind: cls for cls in (RangeSpec, NNSpec, KNNSpec, CountSpec)
}

#: For ``isinstance`` checks at the front doors.
SPEC_TYPES: tuple[type, ...] = tuple(SPEC_CLASSES.values())

#: The server's native query kinds: Section 6.1's taxonomy, one name per
#: question.  ``public_knn`` is the exact k-NN over public objects
#: (``NNSpec`` over public data is its k = 1 case); ``public_nn`` is the
#: probabilistic Figure 6b NN over cloaked regions.
NATIVE_KINDS: tuple[str, ...] = (
    "public_range",
    "public_knn",
    "public_count",
    "public_nn",
    "private_range",
    "private_nn",
    "private_knn",
)


#: (spec kind, flavor, dataset) -> native kind: the whole mapping.
_NATIVE_KIND: dict[tuple[str, str, str], str] = {
    ("range", "public", "public"): "public_range",
    ("range", "private", "public"): "private_range",
    ("count", "public", "public"): "public_count",
    ("knn", "public", "public"): "public_knn",
    ("knn", "private", "public"): "private_knn",
    ("nn", "public", "public"): "public_knn",
    ("nn", "public", "private"): "public_nn",
    ("nn", "private", "public"): "private_nn",
}


def native_kind(spec: QuerySpec) -> str:
    """The one name ``spec`` is counted, spanned and grouped under.

    The only spec -> kind mapping in the system: the planner, the batch
    engine, the server's counters, the planner's route census and
    EXPLAIN all key on it, so a question keeps its name whatever route
    answers it.  (A table lookup: the engine calls this once per spec of
    a batch.)
    """
    try:
        return _NATIVE_KIND[
            spec.kind, spec.flavor, getattr(spec, "dataset", "public")
        ]
    except (AttributeError, KeyError):
        raise QueryError(f"not a query spec: {spec!r}") from None


_GEOM_FIELDS = {"window": (_rect_out, _rect_in), "region": (_rect_out, _rect_in),
                "point": (_point_out, _point_in)}


def is_user_bound(spec: QuerySpec) -> bool:
    """True when the spec runs the full per-user privacy pipeline."""
    return getattr(spec, "user", None) is not None


def require_bound(spec: QuerySpec) -> None:
    """Reject user-bound specs where no anonymizer can resolve them."""
    if is_user_bound(spec):
        raise QueryError(
            "user-bound specs need the anonymizer pipeline; submit them "
            "through PrivacySystem.query() / execute_batch()"
        )


def spec_to_dict(spec: QuerySpec) -> dict:
    """Flat JSON-serialisable form; ``None`` fields are omitted.

    User ids must be JSON scalars (str/int/float/bool) to round-trip.
    """
    out: dict = {"kind": spec.kind}
    for field_ in fields(spec):
        value = getattr(spec, field_.name)
        if value is None:
            continue
        if field_.name in _GEOM_FIELDS:
            value = _GEOM_FIELDS[field_.name][0](value)
        elif field_.name == "user" and not isinstance(
            value, (str, int, float, bool)
        ):
            raise QueryError(
                f"user id {value!r} is not JSON-serialisable; "
                "use str or int ids in workloads-as-data"
            )
        out[field_.name] = value
    return out


def spec_from_dict(record: Mapping) -> QuerySpec:
    """Inverse of :func:`spec_to_dict` (dispatches on ``kind``)."""
    data = dict(record)
    kind = data.pop("kind", None)
    cls = SPEC_CLASSES.get(kind)
    if cls is None:
        raise QueryError(
            f"unknown spec kind {kind!r}; expected one of "
            f"{sorted(SPEC_CLASSES)}"
        )
    allowed = {field_.name for field_ in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise QueryError(
            f"unknown fields for {kind} spec: {sorted(unknown)}"
        )
    for name, (_, reader) in _GEOM_FIELDS.items():
        if name in data:
            data[name] = reader(data[name])
    return cls(**data)


def dump_specs(specs: Iterable[QuerySpec]) -> list[dict]:
    """A whole workload as plain data (JSON-ready list of dicts)."""
    return [spec_to_dict(spec) for spec in specs]


def load_specs(records: Iterable[Mapping]) -> list[QuerySpec]:
    """Inverse of :func:`dump_specs`."""
    return [spec_from_dict(record) for record in records]
