"""Test-support harnesses shipped with the library.

:mod:`repro.testing.faults` is the deterministic chaos-injection
harness: seeded fault plans, a frame-aware TCP chaos proxy, and worker
SIGKILL helpers.  It lives in the package (not under ``tests/``) so the
benchmark recorder and external integration suites can drive the same
certified fault schedules the unit tests pin.
"""

from repro.testing.faults import (
    ChaosProxy,
    FaultEvent,
    FaultPlan,
    inject_chunk_faults,
    kill_worker,
)

__all__ = [
    "ChaosProxy",
    "FaultEvent",
    "FaultPlan",
    "inject_chunk_faults",
    "kill_worker",
]
