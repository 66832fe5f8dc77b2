"""Self-healing fleet membership: prober, state machine, migration planner.

The coordinator's recovery verbs (:meth:`SketchCoordinator.readmit`,
:meth:`SketchCoordinator.migrate_server`) are manual levers; this module
adds the supervisor that pulls them.  A background :class:`FleetProber`
pings every server on a :class:`~repro.service.retry.RetryPolicy`-derived
cadence and drives a per-server state machine::

    up --(suspect_after consecutive failures)--> suspect
    suspect --(recover_after consecutive successes)--> readmitting --> up
    suspect --(down_after seconds without recovery)--> down
    down --(recover_after consecutive successes)--> readmitting --> up
    down --(still failing, shards migrated to a survivor)--> down[migrated]

Hysteresis lives in the consecutive-count thresholds: one dropped ping
never declares an outage, and a *flapping* server (alternating pings)
keeps resetting its success streak, so it sits in ``suspect`` rather
than bouncing through readmission.  Readmission is fingerprint-verified
by the coordinator; a server that comes back differently-constructed
(an imposter) or returns with state after its shards migrated away is
*quarantined*: pinned ``down``, never auto-readmitted again.

Timing is injectable (``clock=``) so every transition is unit-testable
with a fake clock, and the probe/readmit/migrate actions are injectable
callables so the machine can be exercised without sockets.

All of it runs on the coordinator's event loop -- no threads.  The
probe path opens a short-lived one-shot connection per ping (the
coordinator's own per-server clients stay reserved for sequenced
feeds; a probe must never desynchronize their one-in-flight streams).
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Optional

from repro.distributed.codec import FingerprintMismatch
from repro.obs import MEMBERSHIP_METRIC, get_registry as _get_obs_registry
from repro.service.protocol import ProtocolError
from repro.service.retry import RetryPolicy

__all__ = [
    "DOWN",
    "READMITTING",
    "SUSPECT",
    "UP",
    "FleetProber",
    "MembershipStateMachine",
    "ShardMigrationPlanner",
]

UP = "up"
SUSPECT = "suspect"
DOWN = "down"
READMITTING = "readmitting"

STATES = (UP, SUSPECT, DOWN, READMITTING)

_obs_registry = _get_obs_registry()
_obs_membership = _obs_registry.gauge(
    MEMBERSHIP_METRIC,
    "Servers per membership state (up / suspect / down / readmitting)",
)


class _Member:
    __slots__ = (
        "state",
        "failures",
        "successes",
        "suspect_since",
        "migrated",
        "quarantined",
    )

    def __init__(self) -> None:
        self.state = UP
        self.failures = 0
        self.successes = 0
        self.suspect_since: Optional[float] = None
        self.migrated = False
        self.quarantined = False


class MembershipStateMachine:
    """Per-server ``up / suspect / down / readmitting`` bookkeeping.

    Pure and clock-injected: callers report probe outcomes
    (:meth:`record_success` / :meth:`record_failure`) and act on the
    returned action -- ``"readmit"`` when a lapsed server has proven
    itself alive again, ``"migrate"`` when a suspect exceeded the down
    deadline.  The machine never touches the network.

    Parameters
    ----------
    num_servers:
        Fleet width; members are indexed like coordinator servers.
    policy:
        Source of the derived defaults (``suspect_after`` from
        ``max_attempts``, ``down_after`` from ``deadline``).
    suspect_after:
        Consecutive probe failures before ``up`` -> ``suspect``
        (default ``max(1, policy.max_attempts - 1)``).
    recover_after:
        Consecutive probe successes a ``suspect``/``down`` server needs
        before auto-readmission is attempted (default 2) -- the
        flapping guard.
    down_after:
        Seconds a server may sit in ``suspect`` before it is declared
        ``down`` and its shards migrate (default ``policy.deadline``).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        num_servers: int,
        *,
        policy: Optional[RetryPolicy] = None,
        suspect_after: Optional[int] = None,
        recover_after: int = 2,
        down_after: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        policy = policy or RetryPolicy()
        if suspect_after is None:
            suspect_after = max(1, policy.max_attempts - 1)
        if down_after is None:
            down_after = policy.deadline if policy.deadline else 30.0
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if recover_after < 1:
            raise ValueError("recover_after must be >= 1")
        self.suspect_after = int(suspect_after)
        self.recover_after = int(recover_after)
        self.down_after = float(down_after)
        self.clock = clock
        self._members = [_Member() for _ in range(num_servers)]

    # -- introspection ------------------------------------------------------

    def state(self, index: int) -> str:
        """Current membership state of server ``index``."""
        return self._members[index].state

    def states(self) -> list[str]:
        """Per-server membership states, in server order."""
        return [member.state for member in self._members]

    def is_migrated(self, index: int) -> bool:
        """Whether server ``index``'s shards were migrated away."""
        return self._members[index].migrated

    def is_quarantined(self, index: int) -> bool:
        """Whether server ``index`` is barred from readmission."""
        return self._members[index].quarantined

    def counts(self) -> dict[str, int]:
        """``state -> member count`` over all states (zeros included)."""
        counts = {state: 0 for state in STATES}
        for member in self._members:
            counts[member.state] += 1
        return counts

    # -- probe outcomes -----------------------------------------------------

    def record_success(self, index: int) -> Optional[str]:
        """A probe answered; returns ``"readmit"`` once the streak holds.

        A quarantined member never earns readmission -- its fingerprint
        mismatched or its shards already live elsewhere, and no number
        of healthy pings changes that.
        """
        member = self._members[index]
        member.failures = 0
        if member.state == UP or member.quarantined:
            return None
        member.successes += 1
        if member.successes >= self.recover_after:
            member.state = READMITTING
            member.successes = 0
            return "readmit"
        return None

    def record_failure(self, index: int) -> Optional[str]:
        """A probe failed; returns ``"migrate"`` once the deadline passes."""
        member = self._members[index]
        member.successes = 0
        member.failures += 1
        if member.state == UP:
            if member.failures >= self.suspect_after:
                member.state = SUSPECT
                member.suspect_since = self.clock()
            return None
        if member.state == READMITTING:
            # The comeback died mid-readmission; fall back to where the
            # deadline logic left it.
            member.state = DOWN if member.migrated else SUSPECT
            if member.state == SUSPECT and member.suspect_since is None:
                member.suspect_since = self.clock()
            return None
        if member.state == SUSPECT:
            since = member.suspect_since
            if since is not None and self.clock() - since >= self.down_after:
                member.state = DOWN
                if not member.migrated and not member.quarantined:
                    return "migrate"
            return None
        # DOWN: keep asking for migration until it actually happens.
        if not member.migrated and not member.quarantined:
            return "migrate"
        return None

    # -- action outcomes ----------------------------------------------------

    def record_readmitted(self, index: int) -> None:
        """Readmission succeeded: the member is ``up`` again, history wiped."""
        member = self._members[index]
        member.state = UP
        member.failures = 0
        member.successes = 0
        member.suspect_since = None
        member.migrated = False

    def record_readmit_failed(self, index: int, *, permanent: bool = False) -> None:
        """Readmission failed; ``permanent`` quarantines the member.

        Permanent failures are identity failures -- fingerprint mismatch
        (an imposter answered the probe) or a migrated server returning
        with state (re-admitting would double-count).  Transient
        failures drop the member back to ``suspect``/``down`` and the
        streak restarts.
        """
        member = self._members[index]
        member.successes = 0
        if permanent:
            member.state = DOWN
            member.quarantined = True
            return
        member.state = DOWN if member.migrated else SUSPECT
        if member.state == SUSPECT and member.suspect_since is None:
            member.suspect_since = self.clock()

    def record_migrated(self, index: int) -> None:
        """Shard migration completed; the member stays ``down`` but its
        partitions are safe, so no further migration is requested."""
        member = self._members[index]
        member.state = DOWN
        member.migrated = True


class ShardMigrationPlanner:
    """Chooses migration destinations and executes the transfer.

    The default plan is *least-loaded survivor*: the non-migrated server
    (other than the casualty) with the fewest routed updates, ties
    broken by index -- the same key :meth:`SketchCoordinator.feed`
    accounting maintains, so repeated failures spread load instead of
    piling onto server 0.
    """

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def plan(self, index: int) -> int:
        """Destination server index for ``index``'s shards (raises
        :class:`RuntimeError` when no survivor remains)."""
        return self.coordinator._pick_destination(index)

    async def migrate(self, index: int) -> dict:
        """Run the transfer via :meth:`SketchCoordinator.migrate_server`."""
        return await self.coordinator.migrate_server(
            index, destination=self.plan(index)
        )


class FleetProber:
    """Background health prober driving automatic readmission/migration.

    Pings each server on a cadence derived from ``policy``: healthy
    servers every ``healthy_interval`` seconds (default
    ``policy.max_delay``), failing servers on the policy's backoff
    ladder (``policy.delay(failures)``) so a flapping server is probed
    *more* often while its fate is undecided.  Probe outcomes feed a
    :class:`MembershipStateMachine`; its actions call the coordinator's
    :meth:`readmit` / the :class:`ShardMigrationPlanner`.

    ``probe`` / ``readmit`` / ``migrate`` are injectable async callables
    (``index -> awaitable``) so the loop is unit-testable without
    sockets; the defaults run against ``coordinator``.  The prober
    also maintains the ``repro_fleet_membership{state=}`` gauge after
    every step.

    Use :meth:`SketchCoordinator.start_prober` to attach one, or drive
    :meth:`step` manually (``force=True`` ignores the cadence) from
    tests.
    """

    def __init__(
        self,
        coordinator,
        *,
        policy: Optional[RetryPolicy] = None,
        suspect_after: Optional[int] = None,
        recover_after: int = 2,
        down_after: Optional[float] = None,
        healthy_interval: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        probe: Optional[Callable[[int], Awaitable[bool]]] = None,
        readmit: Optional[Callable[[int], Awaitable[dict]]] = None,
        migrate: Optional[Callable[[int], Awaitable[dict]]] = None,
    ) -> None:
        self.coordinator = coordinator
        self.policy = policy or (
            getattr(coordinator, "_policy", None) or RetryPolicy()
        )
        self.machine = MembershipStateMachine(
            len(coordinator.addresses),
            policy=self.policy,
            suspect_after=suspect_after,
            recover_after=recover_after,
            down_after=down_after,
            clock=clock,
        )
        self.planner = ShardMigrationPlanner(coordinator)
        self.healthy_interval = (
            self.policy.max_delay if healthy_interval is None else healthy_interval
        )
        self.clock = clock
        self._probe = probe or self._default_probe
        self._readmit = readmit or coordinator.readmit
        self._migrate = migrate or self.planner.migrate
        now = clock()
        self._next_probe = [now] * len(coordinator.addresses)
        self._task: Optional[asyncio.Task] = None
        #: Readmissions and migrations performed, plus terminal failures.
        self.events: list[dict] = []

    # -- probing ------------------------------------------------------------

    async def _default_probe(self, index: int) -> bool:
        """One-shot connect + ping against server ``index``.

        A dedicated throwaway connection: probing through the
        coordinator's feed clients would race their one-in-flight
        request streams.  The connect and the ping reply are bounded by
        the client's ``op_timeout``: the policy's, or ``base_delay * 4``
        when unset -- a probe must never hang the loop.
        """
        from repro.service.client import AsyncSketchClient

        host, port = self.coordinator.addresses[index]
        timeout = self.policy.op_timeout or max(self.policy.base_delay * 4, 0.2)
        try:
            client = await AsyncSketchClient.connect(
                host,
                port,
                retry=RetryPolicy(max_attempts=1, op_timeout=timeout),
                hello=False,
            )
        except OSError:
            return False
        try:
            await client.ping()
            return True
        except (OSError, ProtocolError):
            return False
        finally:
            await client.close()

    def _reschedule(self, index: int, healthy: bool) -> None:
        if healthy:
            delay = self.healthy_interval
        else:
            failures = self.machine._members[index].failures
            delay = self.policy.delay(max(failures - 1, 0))
        self._next_probe[index] = self.clock() + delay

    async def step(self, force: bool = False) -> dict[str, int]:
        """Probe every due server once and apply resulting actions.

        Returns the post-step membership counts.  ``force=True`` probes
        everyone regardless of cadence (tests, and the first loop
        iteration).
        """
        now = self.clock()
        due = [
            index
            for index in range(len(self._next_probe))
            if force or now >= self._next_probe[index]
        ]
        if due:
            outcomes = await asyncio.gather(
                *(self._probe(index) for index in due),
                return_exceptions=True,
            )
            for index, outcome in zip(due, outcomes):
                alive = outcome is True
                if alive:
                    action = self.machine.record_success(index)
                else:
                    action = self.machine.record_failure(index)
                self._reschedule(index, alive)
                if action == "readmit":
                    await self._do_readmit(index)
                elif action == "migrate":
                    await self._do_migrate(index)
        counts = self.machine.counts()
        if _obs_registry.enabled:
            for state, value in counts.items():
                _obs_membership.set(value, state=state)
        return counts

    async def _do_readmit(self, index: int) -> None:
        try:
            info = await self._readmit(index)
        except (FingerprintMismatch, RuntimeError) as exc:
            # Identity failure: an imposter fingerprint, or a migrated
            # server back with state.  Never retry it.
            self.machine.record_readmit_failed(index, permanent=True)
            self.events.append(
                {"event": "quarantined", "server": index, "error": str(exc)}
            )
        except Exception as exc:
            self.machine.record_readmit_failed(index)
            self.events.append(
                {"event": "readmit-failed", "server": index, "error": str(exc)}
            )
        else:
            self.machine.record_readmitted(index)
            self.events.append(
                {"event": "readmitted", "server": index, "info": info}
            )

    async def _do_migrate(self, index: int) -> None:
        try:
            info = await self._migrate(index)
        except RuntimeError as exc:
            # No survivor to migrate to; nothing to do but keep trying.
            self.events.append(
                {"event": "migrate-failed", "server": index, "error": str(exc)}
            )
        except Exception as exc:
            self.events.append(
                {"event": "migrate-failed", "server": index, "error": str(exc)}
            )
        else:
            self.machine.record_migrated(index)
            self.events.append(
                {"event": "migrated", "server": index, "info": info}
            )

    # -- lifecycle ----------------------------------------------------------

    async def run(self) -> None:
        """Probe loop: step, sleep one policy base delay, repeat."""
        while True:
            await self.step()
            await asyncio.sleep(self.policy.base_delay)

    def start(self) -> asyncio.Task:
        """Start :meth:`run` on the current loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self.run())
        return self._task

    async def stop(self) -> None:
        """Cancel the probe loop and wait for it to unwind."""
        task, self._task = self._task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass
