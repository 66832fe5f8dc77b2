"""The unified retry policy: capped exponential backoff under a deadline.

One policy object answers every "how do I wait for this to work?"
question in the service tier -- client connects, reconnect-and-replay
during resilient feeds, coordinator re-admission -- replacing the ad-hoc
fixed-interval sleep loops that retried forever at one cadence:

* **capped exponential backoff**: delay ``base_delay * multiplier**n``,
  clamped at ``max_delay``, so a flapping server sees quick first
  retries and a down server sees bounded pressure;
* **a total deadline**: the whole retry episode -- every attempt plus
  every sleep -- must fit in ``deadline`` seconds, so callers block for
  a bounded time instead of ``retries * interval`` surprises;
* **per-op timeouts**: ``op_timeout`` is applied to the underlying
  socket operations by the clients, so one wedged server cannot hang a
  caller forever between retries;
* **idempotence discipline**: nothing in this module retries by itself.
  A policy only *schedules*; each call site decides what is safe to
  resend (connects always; sequenced feeds, whose server-side dedup
  makes resends exactly-once; never a bare non-idempotent request).

Every consumed retry is counted in ``repro_client_retries_total`` (label
``kind=`` names the call site) -- the ``client-retry-storm`` default
alert rule reads that series.

:class:`RetryPolicy` is immutable and shareable; per-episode state lives
in the :class:`RetrySchedule` that :meth:`RetryPolicy.start` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import CLIENT_RETRIES_METRIC, get_registry as _get_obs_registry

__all__ = ["RetryPolicy", "RetrySchedule"]

_obs_registry = _get_obs_registry()
_obs_retries = _obs_registry.counter(
    CLIENT_RETRIES_METRIC,
    "Service-client retries consumed (connects, reconnects, feed replays)",
)


def count_retry(kind: str) -> None:
    """Count one consumed retry (no-op under the ``REPRO_OBS`` switch)."""
    if _obs_registry.enabled:
        _obs_retries.add(1, kind=kind)


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable retry schedule: backoff shape, attempt cap, deadline.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``1`` = never retry).
    base_delay:
        Sleep before the first retry, in seconds.
    multiplier:
        Backoff growth per retry (``2.0`` doubles each time; ``1.0``
        is a fixed interval).
    max_delay:
        Upper clamp on any single sleep.
    deadline:
        Wall-clock budget for the whole episode (attempts + sleeps),
        measured from :meth:`start`; ``None`` = attempts-bounded only.
    op_timeout:
        Per-operation timeout clients apply while this policy governs a
        connection: it bounds each connect and every reply wait;
        ``None`` = block indefinitely.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    deadline: Optional[float] = 30.0
    op_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} below base_delay {self.base_delay}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError(
                f"op_timeout must be positive, got {self.op_timeout}"
            )

    def delay(self, retry_index: int) -> float:
        """The sleep before retry ``retry_index`` (0-based), clamped."""
        return min(
            self.base_delay * (self.multiplier ** retry_index), self.max_delay
        )

    def start(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "RetrySchedule":
        """Begin one retry episode (deadline measured from now)."""
        return RetrySchedule(self, clock)


class RetrySchedule:
    """Mutable per-episode state: which retry is next, how long is left.

    ``next_delay()`` is the whole interface: it returns the next sleep
    in seconds, or ``None`` when the budget (attempts or deadline) is
    exhausted -- callers sleep and retry on a float, and re-raise the
    last error on ``None``.  A sleep is clipped to the remaining
    deadline rather than overshooting it.
    """

    def __init__(
        self, policy: RetryPolicy, clock: Callable[[], float]
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.started = clock()
        self.retries = 0

    def next_delay(self) -> Optional[float]:
        """Seconds to sleep before the next attempt, or ``None`` when the
        episode is exhausted (attempts spent or deadline passed); the
        returned delay never overshoots the remaining deadline."""
        if self.retries >= self.policy.max_attempts - 1:
            return None
        delay = self.policy.delay(self.retries)
        if self.policy.deadline is not None:
            remaining = self.policy.deadline - (self.clock() - self.started)
            if remaining <= 0:
                return None
            delay = min(delay, remaining)
        self.retries += 1
        return delay
