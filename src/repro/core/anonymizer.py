"""The Location Anonymizer — the trusted third party (Sections 3 and 5).

The anonymizer sits between mobile users and the location-based database
server.  It:

1. registers users with their privacy profiles;
2. receives exact location updates (the only component besides the user
   herself that ever sees them);
3. cloaks locations per the profile in force at the current time and
   pushes only the cloaked region — under a pseudonym — to the server;
4. cloaks the asker of a query (:meth:`LocationAnonymizer.cloak_user`), so
   the server sees a region-bound spec — never an identity or a point
   (:meth:`repro.core.system.PrivacySystem.query` runs that pipeline).

Pseudonym policy: by default each user keeps one stable pseudonym, which
preserves continuous-query semantics but exposes the update *stream* to the
linkage attack of :mod:`repro.attacks.linkage`.  With
``rotate_pseudonyms=True`` every publish retires the previous pseudonym,
trading server-side continuity for unlinkability — the trade-off the
paper's "avoid location tracking" related-work category gestures at.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from repro.cloaking.base import CloakResult, Cloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.core.errors import RegistrationError
from repro.core.profiles import PrivacyProfile, PrivacyRequirement, profile_rows
from repro.core.server import LocationServer
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry, get_telemetry
from repro.obs.events import (
    CLOAK_ATTEMPT,
    CLOAK_BULK,
    CLOAK_DEGRADED,
    CLOAK_ESCALATED,
    CLOAK_RESULT,
    PROFILE_UPDATED,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    USER_ADMITTED,
    USER_RETIRED,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cloak import BulkCloakOutcome


#: Tracked objects a bulk round must leave behind (about 2.5 per user)
#: before it runs the full collector pass itself; smaller rounds leave
#: the collector's own schedule alone.
_FULL_PASS_DUE = 32_768


@contextmanager
def _collector_held():
    """Hold the cyclic garbage collector across one bulk round.

    A round creates a few tracked records per user in one burst and none
    of them is garbage before it ends, so the hundreds of young passes
    the allocation thresholds would trigger find nothing.  On a large
    population the survivors are over a quarter of the heap, CPython's
    own trigger for a full-heap pass, and only that pass frees what the
    round retired when the server repacked its R-tree (parent pointers
    make the old tree a cycle).  Left to the thresholds, the full pass
    fires at whatever allocation trips it: one tick pays it, the next
    does not or pays twice, or it stalls a query batch.  Run here, it
    costs every round the same and no other call anything.
    """
    if not gc.isenabled():  # the caller schedules the collector itself
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        if gc.get_count()[0] >= _FULL_PASS_DUE:
            gc.collect()


@dataclass
class _Registration:
    profile: PrivacyProfile
    pseudonym: str
    published: bool = False


class LocationAnonymizer:
    """Trusted third party between mobile users and the database server.

    Args:
        cloaker: the cloaking algorithm (optionally an
            :class:`~repro.cloaking.incremental.IncrementalCloaker`).
        server: the downstream database server; may be attached later via
            :meth:`connect`.
        rotate_pseudonyms: retire the previous pseudonym on every publish.
        telemetry: observability sink for the admission/cloak/publish
            spans; the process-global telemetry is used when omitted.
    """

    def __init__(
        self,
        cloaker: Cloaker | IncrementalCloaker,
        server: LocationServer | None = None,
        rotate_pseudonyms: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cloaker = cloaker
        self.server = server
        self.rotate_pseudonyms = rotate_pseudonyms
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self._registrations: dict[Hashable, _Registration] = {}
        # Plain integer (not itertools.count) so checkpointing can read
        # and recovery can restore the counter without consuming it.
        self._pseudonym_seq = 0
        #: Outcome of the most recent :meth:`publish_all_bulk` round, kept
        #: for observability (EXPLAIN reads its path/group summaries).
        self.last_bulk_outcome: "BulkCloakOutcome | None" = None

    def connect(self, server: LocationServer) -> None:
        """Attach the downstream server."""
        self.server = server

    # ------------------------------------------------------------------
    # Registration and location updates
    # ------------------------------------------------------------------

    def register(
        self, user_id: Hashable, profile: PrivacyProfile, location: Point
    ) -> str:
        """Subscribe a user; returns her (initial) pseudonym."""
        if user_id in self._registrations:
            raise RegistrationError(f"user already registered: {user_id!r}")
        with self.telemetry.span("anonymizer.admission"):
            registration = self._admit(
                user_id, location, profile, self._fresh_pseudonym()
            )
        self.telemetry.set_gauge("anonymizer.registered_users", len(self._registrations))
        # x/y/profile make the event replayable: a recovery engine can
        # re-admit the user (same pseudonym, same requirement schedule)
        # from the record alone.  Exact coordinates stay anonymizer-side
        # knowledge — the WAL is trusted-tier state, never server state.
        self.telemetry.emit(
            USER_ADMITTED,
            user=str(user_id),
            pseudonym=registration.pseudonym,
            population=len(self._registrations),
            x=location.x,
            y=location.y,
            profile=profile_rows(profile),
        )
        return registration.pseudonym

    def unregister(self, user_id: Hashable) -> None:
        """Unsubscribe a user and retire her server-side region."""
        self._registration_of(user_id)
        self._emit_retired(user_id, self._retire(user_id))

    def update_location(self, user_id: Hashable, location: Point) -> None:
        """Receive an exact location report (kept inside the anonymizer).

        The report joins the event log's open run: a run of reports is
        one ``users.moved`` event, durable once the run closes
        (docs/durability.md).
        """
        self._registration_of(user_id)
        self.cloaker.move_user(user_id, location)
        self.telemetry.events.append_move(str(user_id), location.x, location.y)

    def update_profile(self, user_id: Hashable, profile: PrivacyProfile) -> None:
        """Users may change their privacy profiles at any time (Section 4)."""
        self._registration_of(user_id)
        self._change_profile(user_id, profile)
        self.telemetry.emit(
            PROFILE_UPDATED, user=str(user_id), profile=profile_rows(profile)
        )

    def registered_users(self) -> list[Hashable]:
        return list(self._registrations)

    def pseudonym_of(self, user_id: Hashable) -> str:
        return self._registration_of(user_id).pseudonym

    # ------------------------------------------------------------------
    # Cloaking and publication
    # ------------------------------------------------------------------

    def requirement_for(self, user_id: Hashable, t: float) -> PrivacyRequirement:
        """The requirement in force for ``user_id`` at time ``t``."""
        return self._registration_of(user_id).profile.requirement_at(t)

    def cloak_user(self, user_id: Hashable, t: float) -> CloakResult:
        """Cloak one user under her current profile.

        Users whose requirement asks for no privacy get a degenerate
        (exact-point) region — they are effectively public data.

        Best effort (Section 5): a k exceeding the subscribed population
        is clamped to the population — the densest anonymity that exists —
        and the returned result still carries the *original* requirement,
        so ``k_satisfied`` correctly reads False.
        """
        with self.telemetry.span("anonymizer.cloak", algo=self.cloaker.name):
            requirement = self.requirement_for(user_id, t)
            self.telemetry.emit(
                CLOAK_ATTEMPT,
                user=str(user_id),
                t=t,
                algo=self.cloaker.name,
                k=requirement.k,
                min_area=requirement.min_area,
                max_area=requirement.max_area,
            )
            if not requirement.wants_privacy:
                point = self.cloaker.location_of(user_id)
                result = CloakResult(
                    region=Rect.from_point(point), user_count=1, requirement=requirement
                )
                self._emit_cloak_result(user_id, t, result)
                return result
            population = self.cloaker.user_count()
            if requirement.k > population:
                effective = replace(requirement, k=max(1, population))
                self.telemetry.emit(
                    CLOAK_ESCALATED,
                    user=str(user_id),
                    t=t,
                    requested_k=requirement.k,
                    effective_k=effective.k,
                    population=population,
                )
                result = self.cloaker.cloak(user_id, effective)
                result = CloakResult(
                    region=result.region,
                    user_count=result.user_count,
                    requirement=requirement,
                    reused=result.reused,
                )
            else:
                result = self.cloaker.cloak(user_id, requirement)
        self.telemetry.observe("cloak_area", result.area)
        self._emit_cloak_result(user_id, t, result)
        return result

    def _emit_cloak_result(self, user_id: Hashable, t: float, result: CloakResult) -> None:
        """Emit the per-query privacy audit record (plus any degradation)."""
        requirement = result.requirement
        degraded = not result.fully_satisfied
        seq = self.telemetry.emit(
            CLOAK_RESULT,
            user=str(user_id),
            t=t,
            algo=self.cloaker.name,
            k=requirement.k,
            k_achieved=result.user_count,
            min_area=requirement.min_area,
            max_area=requirement.max_area,
            area=result.area,
            k_satisfied=result.k_satisfied,
            area_satisfied=result.area_satisfied,
            reused=result.reused,
            degraded=degraded,
        )
        if degraded and seq is not None:
            self.telemetry.emit(
                CLOAK_DEGRADED,
                user=str(user_id),
                t=t,
                result_seq=seq,
                k=requirement.k,
                k_achieved=result.user_count,
                min_area=requirement.min_area,
                area=result.area,
            )

    def publish(self, user_id: Hashable, t: float) -> CloakResult:
        """Cloak and push one user's region to the server."""
        if self.server is None:
            raise RegistrationError("anonymizer is not connected to a server")
        result = self.cloak_user(user_id, t)
        self._push(user_id, result)
        return result

    def publish_all(self, t: float) -> dict[Hashable, CloakResult]:
        """Cloak and push every registered user (one reporting round).

        The round runs through the Section 5.3 shared-execution engine:
        users falling in the same space partition with the same
        requirement are cloaked once.  Users whose requirement asks for
        no privacy publish their exact point directly (nothing to share).
        The per-user loop it must agree with is :meth:`publish`.
        """
        if self.server is None:
            raise RegistrationError("anonymizer is not connected to a server")
        # One batch correlation id per publication round; reused when the
        # system front door already opened one (repro.obs.correlate).
        with self.telemetry.correlate("b", reuse=True):
            from repro.cloaking.shared import CloakRequest, cloak_batch

            results: dict[Hashable, CloakResult] = {}
            requests: list[CloakRequest] = []
            population = self.cloaker.user_count()
            for user_id, registration in self._registrations.items():
                requirement = registration.profile.requirement_at(t)
                if not requirement.wants_privacy or requirement.k > population:
                    # Exact-point and clamped best-effort paths keep their
                    # specialised handling in cloak_user.
                    results[user_id] = self.cloak_user(user_id, t)
                    continue
                requests.append(CloakRequest(user_id, requirement))
            outcome = cloak_batch(
                self.cloaker, requests, emit=self.telemetry.emit
            )
            # Batched users bypass cloak_user, so their per-query audit
            # records are emitted here (the others already emitted theirs).
            for user_id, result in outcome.results.items():
                self._emit_cloak_result(user_id, t, result)
            results.update(outcome.results)
            for user_id, result in results.items():
                self._push(user_id, result)
            return results

    def publish_all_bulk(self, t: float) -> Mapping[Hashable, CloakResult]:
        """Cloak and push every registered user in one vectorized pass.

        The write-path counterpart of the server's batch engine: the whole
        population is cloaked by the numpy kernels of
        :mod:`repro.engine.cloak` (scalar fallback for algorithms without
        one) and published to the server as a single bulk region batch.
        Escalation and degradation semantics match :meth:`cloak_user`
        exactly — the per-user path remains the differential-testing
        oracle — but auditing is aggregated: one ``cloak.bulk`` event per
        distinct requirement replaces the per-user event stream, with
        every degradation declared in-band, and one
        ``regions.published_bulk`` event covers the push.
        """
        if self.server is None:
            raise RegistrationError("anonymizer is not connected to a server")
        from repro.engine.cloak import bulk_cloak

        # One batch correlation id per bulk round; reused when the system
        # front door already opened one (repro.obs.correlate).
        with self.telemetry.correlate("b", reuse=True), _collector_held():
            with self.telemetry.span(
                "anonymizer.publish_bulk", algo=self.cloaker.name
            ):
                requests = [
                    (user_id, registration.profile.requirement_at(t))
                    for user_id, registration in self._registrations.items()
                ]
                outcome = bulk_cloak(self.cloaker, requests)
                self.last_bulk_outcome = outcome
                for group in outcome.groups:
                    self.telemetry.emit(
                        CLOAK_BULK,
                        t=t,
                        algo=outcome.algo,
                        path=outcome.path,
                        **group,
                    )
                pseudonyms: list[str] = []
                rotated = 0
                for user_id in outcome.users:
                    registration, fresh = self._rotate(user_id)
                    rotated += fresh
                    pseudonyms.append(registration.pseudonym)
                shared, region_of = outcome.regions, outcome.region_index.tolist()
                regions = dict(zip(pseudonyms, map(shared.__getitem__, region_of)))
                # Rows reuse each region's own side floats, as its Rect does.
                sides = [
                    [getattr(region, side) for region in shared]
                    for side in ("min_x", "min_y", "max_x", "max_y")
                ]
                rows = list(
                    map(
                        list,
                        zip(
                            map(str, outcome.users),
                            pseudonyms,
                            *(map(side.__getitem__, region_of) for side in sides),
                        ),
                    )
                )
                areas = outcome.areas
                area_sum = float(np.cumsum(areas)[-1]) if areas.size else 0.0
                self.server.receive_regions(regions)
            self.telemetry.count(
                "anonymizer.bulk_cloaks", amount=len(requests)
            )
            # ``regions`` rows (user, pseudonym, region sides) make the
            # bulk push replayable from the WAL with rotation included:
            # a row whose pseudonym differs from the replayer's current
            # registration implies the old pseudonym was retired.
            self.telemetry.emit(
                REGIONS_PUBLISHED_BULK,
                n=len(regions),
                rotated=rotated,
                area_sum=area_sum,
                path=outcome.path,
                algo=outcome.algo,
                escalated=outcome.escalated,
                degraded=outcome.degraded,
                regions=rows,
            )
        return outcome.results

    def _push(self, user_id: Hashable, result: CloakResult) -> None:
        """Send one cloaked region to the server under the pseudonym policy."""
        old_pseudonym = self._registration_of(user_id).pseudonym
        with self.telemetry.span("anonymizer.publish"):
            registration, rotated = self._rotate(user_id)
            region = result.region
            self.server.receive_region(registration.pseudonym, region)
        # user + region sides make the publication replayable (WAL); the
        # old pseudonym lets replay retire the rotated-away region.
        self.telemetry.emit(
            REGION_PUBLISHED,
            pseudonym=registration.pseudonym,
            area=result.area,
            rotated=rotated,
            user=str(user_id),
            min_x=region.min_x,
            min_y=region.min_y,
            max_x=region.max_x,
            max_y=region.max_y,
            **({"old_pseudonym": old_pseudonym} if rotated else {}),
        )

    # ------------------------------------------------------------------
    # Trade-off previews (Section 1: "users would have the ability to
    # tune a set of parameters to achieve a personal trade-off")
    # ------------------------------------------------------------------

    def preview(
        self, user_id: Hashable, ks: "list[int]", min_area: float = 0.0
    ) -> list[tuple[int, float, int]]:
        """What-if cloaks at several anonymity levels, without publishing.

        Returns ``(k, region_area, users_inside)`` per requested ``k`` so a
        client UI can show the user what each privacy level would cost her
        in region size right now, right here.  Nothing reaches the server.
        """
        self._registration_of(user_id)
        rows = []
        for k in ks:
            result = self.cloaker.cloak(
                user_id, PrivacyRequirement(k=k, min_area=min_area)
            )
            rows.append((k, result.area, result.user_count))
        return rows

    def suggest_k_for_area(
        self, user_id: Hashable, max_area: float, k_ceiling: int | None = None
    ) -> int:
        """The largest k whose cloaked region stays within ``max_area``.

        Binary-searches over k, which is sound when cloaked area is
        non-decreasing in k.  That holds for every algorithm here except
        the Hilbert cloaker, whose bucket re-partitioning can shrink the
        region as k grows; for Hilbert the result is a useful heuristic
        rather than the exact maximum.  Returns at least 1 (an exact
        point always "fits").
        """
        self._registration_of(user_id)
        if max_area < 0:
            raise RegistrationError("max_area must be non-negative")
        population = self.cloaker.user_count()
        hi = min(k_ceiling, population) if k_ceiling is not None else population
        lo = 1
        if hi < 1:
            return 1

        def area_at(k: int) -> float:
            return self.cloaker.cloak(user_id, PrivacyRequirement(k=k)).area

        if area_at(hi) <= max_area:
            return hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if area_at(mid) <= max_area:
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _registration_of(self, user_id: Hashable) -> _Registration:
        try:
            return self._registrations[user_id]
        except KeyError:
            raise RegistrationError(f"unknown user: {user_id!r}") from None

    def _rotate(self, user_id: Hashable) -> tuple[_Registration, bool]:
        """The pseudonym policy, ahead of one publication: under
        ``rotate_pseudonyms`` a user who has published before takes a
        fresh pseudonym (the flag says whether one was taken), and
        :meth:`_adopt` applies the choice.  The caller delivers the region.
        """
        registration = self._registrations[user_id]
        rotated = self.rotate_pseudonyms and registration.published
        pseudonym = self._fresh_pseudonym() if rotated else registration.pseudonym
        return self._adopt(user_id, pseudonym), rotated

    def _fresh_pseudonym(self) -> str:
        """The next pseudonym; the applier that adopts it advances the counter."""
        return f"anon-{self._pseudonym_seq + 1:06d}"

    def _emit_retired(self, user_id: Hashable, registration: _Registration) -> None:
        """The durable record of one retirement, after its applier ran."""
        self.telemetry.set_gauge("anonymizer.registered_users", len(self._registrations))
        self.telemetry.emit(
            USER_RETIRED,
            user=str(user_id),
            pseudonym=registration.pseudonym,
            population=len(self._registrations),
        )

    # ------------------------------------------------------------------
    # Appliers (docs/durability.md): the one state change per durable
    # fact, live and in recovery alike.  No telemetry in them.
    # ------------------------------------------------------------------

    def _admit(
        self,
        user_id: Hashable,
        location: Point,
        profile: PrivacyProfile,
        pseudonym: str,
        published: bool = False,
    ) -> _Registration:
        """``user.admitted``: enter the cloaker and the registration table."""
        self.cloaker.add_user(user_id, location)
        registration = _Registration(profile, pseudonym, published)
        self._registrations[user_id] = registration
        self._advance_pseudonyms(_pseudonym_number(pseudonym))
        return registration

    def _retire(self, user_id: Hashable) -> _Registration:
        """``user.retired``, this side: leave the cloaker and the table and
        take a published region off the server; returns the registration."""
        registration = self._registrations.pop(user_id)
        self.cloaker.remove_user(user_id)
        if self.server is not None and registration.published:
            self.server.forget_region(registration.pseudonym)
        return registration

    def _adopt(self, user_id: Hashable, pseudonym: str) -> _Registration:
        """Publish under ``pseudonym``: one that differs from the current
        one retires the old region when it was published, and advances the
        counter.  The registration ends up published."""
        registration = self._registrations[user_id]
        if pseudonym != registration.pseudonym:
            if registration.published:
                self.server.forget_region(registration.pseudonym)
            registration.pseudonym = pseudonym
            self._advance_pseudonyms(_pseudonym_number(pseudonym))
        registration.published = True
        return registration

    def _change_profile(self, user_id: Hashable, profile: PrivacyProfile) -> None:
        """``profile.updated``: the profile in force from now on."""
        self._registrations[user_id].profile = profile

    def _advance_pseudonyms(self, seq: int) -> None:
        """Keep the pseudonym counter at or past ``seq``."""
        if seq > self._pseudonym_seq:
            self._pseudonym_seq = seq


def _pseudonym_number(pseudonym: str) -> int:
    """The counter value behind an ``anon-<n>`` pseudonym; 0 for others."""
    try:
        return int(str(pseudonym).rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0
