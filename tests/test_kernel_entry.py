"""Every native kernel entry point, fed the operands pointers are taken from.

:mod:`repro.core.kernels` hands each operand's address to C.  Three kinds
of operand take different routes to that address, so each entry point
gets all three: a read-only array (``np.frombuffer`` over ``bytes``), a
zero-length one, and one fresh from the wire codec.  Each call must give
the numpy tier's result and run the tier it ran before the address
helper existed: the native kernel wherever the native tier is up (a
read-only or empty operand was never refused for being one), the numpy
tier otherwise.  A spy between the entry points and the library records
which C functions each call reached.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.distributed import codec
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
from repro.parallel.partition import UniversePartitioner

UNIVERSE = 9_999
KINDS = ["read-only", "zero-length", "decoded"]
SIS_PARAMS = SISParams(rows=6, cols=50, modulus=next_prime(1 << 18), beta=1e9)


def _stream():
    rng = np.random.default_rng(17)
    items = rng.integers(0, UNIVERSE, 3_000, dtype=np.int64)
    deltas = rng.integers(-4, 9, 3_000, dtype=np.int64)
    return items, deltas


def _operand(kind: str, array: np.ndarray) -> np.ndarray:
    if kind == "read-only":
        view = np.frombuffer(array.tobytes(), dtype=np.int64)
        assert not view.flags.writeable and view.flags.aligned
        return view
    if kind == "zero-length":
        return np.empty(0, dtype=np.int64)
    decoded = codec.decode_value(codec.encode_value(array))
    assert decoded.flags.owndata and decoded.flags.writeable
    return decoded


class _LibrarySpy:
    """Stands in for the loaded library and notes each function fetched."""

    def __init__(self, lib):
        self._lib = lib
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._lib, name)


# Each case feeds one entry point through the caller that runs it in the
# library and returns what the caller computed.


def _batch_stats(items, deltas):
    try:
        return tuple(kernels.batch_stats(items, deltas)[2:])
    except ValueError as exc:  # an empty batch, on both tiers
        return str(exc)


def _count_min_scatter(items, deltas):
    sketch = CountMinSketch(UNIVERSE, 64, 4, seed=3)
    sketch.process_batch(items, deltas)
    return sketch.table, sketch.total


def _count_sketch_scatter(items, deltas):
    sketch = CountSketch(UNIVERSE, 64, 4, seed=3)
    sketch.process_batch(items, deltas)
    return sketch.table


def _count_min_estimate(items, deltas):
    sketch = CountMinSketch(UNIVERSE, 64, 4, seed=3)
    sketch.table = np.arange(sketch.table.size, dtype=np.int64).reshape(4, 64) % 97
    return sketch.estimate_batch(items)


def _sis_update(items, deltas):
    sketch = SisL0Estimator(UNIVERSE, params=SIS_PARAMS, seed=6)
    if not kernels.sis_update(
        sketch._dense,
        items,
        deltas,
        sketch._cols64,
        SIS_PARAMS.modulus,
        sketch.chunk_width,
        sketch.universe_size,
    ):
        sketch.process_batch(items, deltas)
    return sketch._dense


def _partition_scatter(items, deltas):
    return UniversePartitioner(2, seed=9).split(items, deltas)


def _ams_sign_bits(items, deltas):
    sketch = AMSSketch(UNIVERSE, rows=2, seed=5)
    return sketch.sign_row(1, items)


#: entry -> (its case, the library functions a non-empty call reaches,
#: what an empty one reaches, its dispatch kernel name or None).
ENTRIES = {
    "batch_stats": (_batch_stats, ["repro_batch_stats"], [], None),
    "count_min_scatter": (
        _count_min_scatter,
        ["repro_batch_stats", "repro_cm_scatter"],
        [],
        "count_min_scatter",
    ),
    "count_sketch_scatter": (
        _count_sketch_scatter,
        ["repro_batch_stats", "repro_cs_scatter"],
        [],
        "count_sketch_scatter",
    ),
    "count_min_estimate": (
        _count_min_estimate,
        ["repro_cm_estimate"],
        [],
        "count_min_estimate",
    ),
    "sis_update": (_sis_update, ["repro_sis_update"], ["repro_sis_update"], None),
    "partition_scatter": (
        _partition_scatter,
        ["repro_partition"],
        ["repro_partition"],
        "partition_scatter",
    ),
    "ams_sign_bits": (_ams_sign_bits, ["repro_ams_signs"], ["repro_ams_signs"], None),
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


@pytest.fixture
def dispatches(monkeypatch):
    seen = []
    monkeypatch.setattr(
        kernels, "record_dispatch", lambda kernel, tier: seen.append((kernel, tier))
    )
    return seen


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_entry_point_matches_numpy_tier_and_keeps_its_tier(
    entry, kind, monkeypatch, dispatches
):
    case, reached, reached_empty, dispatch_name = ENTRIES[entry]
    items, deltas = (_operand(kind, array) for array in _stream())
    lib = kernels._native()

    monkeypatch.setattr(kernels, "_native", lambda: None)
    want = case(items, deltas)
    dispatches.clear()

    spy = None if lib is None else _LibrarySpy(lib)
    monkeypatch.setattr(kernels, "_native", lambda: spy)
    got = case(items, deltas)

    assert _same(got, want)
    native_calls = [] if spy is None else spy.calls
    if lib is None:
        assert native_calls == []
    else:
        assert native_calls == (reached_empty if kind == "zero-length" else reached)
    if dispatch_name is None:
        assert dispatches == []
    elif entry == "partition_scatter":
        assert dispatches == [(dispatch_name, "native" if lib else "gather")]
    elif kind == "zero-length":
        assert dispatches == []  # an empty batch or probe returns first
    else:
        assert dispatches == [(dispatch_name, "native" if lib else "numpy")]
