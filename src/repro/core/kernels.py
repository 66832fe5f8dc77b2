"""Fused scatter/gather kernels -- the library's one hot-loop layer.

Every batched sketch update bottoms out in the same three-step shape:
hash a chunk of items, (optionally) weight the deltas, and scatter-add
into a small table.  Before this module each sketch ran that shape as a
chain of numpy ufunc passes (one hash kernel, one weight multiply, one
``np.add.at``), each pass streaming the whole chunk through memory.  The
kernels here fuse the chain two ways:

The *query* side mirrors the shape: a batched point estimate hashes a
chunk of probe items and gathers table cells instead of scattering into
them.  ``count_min_estimate`` fuses hash+gather+row-min into one native
pass, and ``ams_sign_bits`` decodes AMS sign bits -- a full CPython
``random.Random(seed).getrandbits(1)`` (MT19937 ``init_by_array``
seeding plus one tempered output word) per item, bit-identical to the
interpreter's own derivation -- without entering the Python interpreter
per item, which is what makes the adversary probe loops in
:mod:`repro.adversaries.blackbox_attack` fast.

**Native tier.**  A few hundred lines of C -- compiled *on demand* with
the host's system compiler (``cc``/``gcc``/``clang``), loaded through
:mod:`ctypes`, and cached under ``~/.cache/repro-kernels`` keyed by a
hash of the source and flags -- make one native pass per batch for each
layer of the engine thread:

* *Row hash.*  ``hash_block`` computes ``((a*x + b) mod p) mod w``
  entirely in doubles: the quotient is ``trunc(v * r)`` with ``r`` the
  double just above ``1/m``, which lands on ``floor(v/m)`` or one past
  it, and one branchless correction makes the remainder exact.  The
  ``p < 2**26`` gate (:data:`NATIVE_HASH_BOUND`, with ``0 <= a, b, x <
  p``) is what makes this exact: ``a*x + b < 2**53``, so every
  intermediate -- products, quotients times moduli, differences -- is
  an integer a double holds exactly, and no step ever rounds.  With no
  int64 multiply or int64/double convert in the loop it vectorizes on
  every SIMD level (the int64 formulation vectorizes only with
  AVX-512DQ).  The CountMin and CountSketch scatters and the CountMin
  estimate share it.
* *Batch statistics.*  :func:`batch_stats` reads items min/max and
  deltas min/max/sum in one pass; the CountMin and CountSketch batches
  take their mass bound, running total and item-domain gate from it.
* *SIS-L0.*  :func:`sis_update` takes raw items: it validates them
  (refusing the whole batch, unwritten, if one lies outside the
  universe), splits chunk/offset, reduces deltas mod q like Python's
  ``%`` and accumulates mod q, all in one call.
* *Partition.*  Two shards -- the top bit of the Fibonacci product --
  take a count pass and one scatter pass with both write cursors in
  registers; wider fleets keep the counting sort over stored shard ids.

The compiler is invoked exactly once per machine; the ``.so`` is reused
across processes, and the calls release the GIL, so the thread scatter
backend gets real parallelism out of them.  No compiler, a failed
compile, a failed self-check (which runs every kernel at the ``2**26``
edge), or ``REPRO_NATIVE_KERNELS=0`` all degrade silently to the numpy
tier -- the native tier is an accelerator, never a dependency.

**Numpy tier.**  Always available, bit-identical, and itself fused where
that wins: constant-delta scatters (the unit-insertion workloads that
dominate every benchmark) collapse to one unweighted ``np.bincount``
(pure int64 -- exact for any constant, no float64 round-trip), and
varying-delta scatters keep numpy's indexed ``np.add.at`` loops.  A
float64-weighted ``np.bincount`` was evaluated for the varying case and
rejected: it is only exact while the batch's absolute delta mass stays
below 2**53, and on numpy >= 1.24 (whose ``add.at`` dispatches to typed
indexed loops) it also measures *slower* -- so the int64-exact path is
the fast path and nothing ever rounds through float64.

Exactness contract: every entry point is bit-identical to its reference
formulation (the per-row ``np.add.at`` loops, the stable-argsort
partition) for every input the gates admit, and refuses -- returning
``False`` so the caller keeps its reference path -- for every input they
do not.  ``tests/test_fused_scatter.py`` pins the equivalence on both
tiers, including overflow edges, object-dtype tables, and empty and
singleton batches.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from collections import deque
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from repro.obs.metrics import get_registry as _get_obs_registry

__all__ = [
    "NATIVE_HASH_BOUND",
    "BatchStats",
    "ams_sign_bits",
    "batch_stats",
    "count_min_estimate",
    "count_min_scatter",
    "count_sketch_scatter",
    "native_kernels_available",
    "partition_scatter",
    "record_dispatch",
    "scatter_add",
    "sis_update",
]

_obs_registry = _get_obs_registry()
_obs_dispatch = _obs_registry.counter(
    "repro_kernel_dispatch_total",
    "Kernel dispatches by entry point and executed tier",
)
# (kernel, tier) -> pending-dispatch deque; the working set is a handful
# of pairs, so the dict stays tiny and the hot path never formats labels
# or takes a lock -- deque appends are GIL-atomic and the counts fold
# into the registry at snapshot time (or at the backstop depth below).
_obs_dispatch_pending: dict[tuple, deque] = {}
_OBS_DISPATCH_FOLD_AT = 8192


def record_dispatch(kernel: str, tier: str) -> None:
    """Count one kernel dispatch under the tier that actually ran it.

    Callers record at the dispatch *site* -- after the tiered entry
    points above accept or refuse -- so the counter reflects executed
    tiers (``native`` / ``numpy`` / ``scalar`` / ``gather`` / ``radix``),
    not attempted ones.
    """
    if _obs_registry.enabled:
        pending = _obs_dispatch_pending.get((kernel, tier))
        if pending is None:
            pending = _obs_dispatch_pending.setdefault(
                (kernel, tier), deque()
            )
        pending.append(1)
        if len(pending) >= _OBS_DISPATCH_FOLD_AT:
            _obs_fold_dispatch()


def _obs_fold_dispatch() -> None:
    """Drain pending dispatch counts into the registry (fold hook).

    Writes through a bound series rather than ``Counter.add`` so counts
    recorded while enabled still land even if the registry has been
    disabled by fold time (benchmarks flip the switch between runs).
    """
    for (kernel, tier), pending in list(_obs_dispatch_pending.items()):
        count = 0
        while True:
            try:
                pending.popleft()
            except IndexError:
                break
            count += 1
        if count:
            bound = _obs_dispatch.bind(kernel=kernel, tier=tier)
            with _obs_registry.lock:
                bound.add_unlocked(count)


def _obs_discard_dispatch() -> None:
    for pending in list(_obs_dispatch_pending.values()):
        pending.clear()


_obs_registry.add_collector(_obs_fold_dispatch, _obs_discard_dispatch)

#: Primes (and SIS moduli) below this bound keep every hash intermediate
#: ``a*x + b < p**2`` under 2**53, where the native row hash holds every
#: value exactly as a double, and every SIS accumulation ``reg + d*col``
#: under 2**52, where its double-reciprocal quotient is exact after a +-1
#: correction.  Larger parameters stay on the numpy tier, whose int64
#: Barrett path admits primes up to ``INT64_HASH_BOUND``.
NATIVE_HASH_BOUND = 1 << 26
#: The largest prime below :data:`NATIVE_HASH_BOUND` (``2**26 - 5``).
_EDGE_PRIME = NATIVE_HASH_BOUND - 5

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Exact v mod p for 0 <= v < 2^52, p >= 2: double-reciprocal quotient
   plus branchless +-1 correction.  trunc == floor (v is nonnegative),
   and |v*inv - v/p| < 1 under the caller's 2^52 gate. */
static inline int64_t mod_dr(int64_t v, int64_t p, double inv)
{
    int64_t q = (int64_t)((double)v * inv);
    int64_t m = v - q * p;
    m += (m >> 63) & p;
    m -= p & -(int64_t)(m >= p);
    return m;
}

/* x as a double, exactly, for 0 <= x < 2^52: OR the bits under the
   exponent of 2^52 and subtract 2^52 -- an integer OR and a double
   subtract, which vectorize where an int64 -> double convert does not. */
static inline double exact_f64(int64_t x)
{
    uint64_t bits = (uint64_t)x | 0x4330000000000000ULL;
    double d;
    memcpy(&d, &bits, sizeof d);
    return d - 4503599627370496.0;
}

/* The double just above 1/m (positive doubles order like their bit
   patterns).  It is never below the real 1/m, so for an integer v >= 0
   the product v * inv_up(m) truncates to floor(v/m) or floor(v/m) + 1,
   never lower, and one correction step below makes it exact. */
static inline double inv_up(double m)
{
    double inv = 1.0 / m;
    uint64_t bits;
    memcpy(&bits, &inv, sizeof bits);
    ++bits;
    memcpy(&inv, &bits, sizeof inv);
    return inv;
}

/* v mod m for a double holding an integer 0 <= v < 2^53 with v/m < 2^27
   and inv = inv_up(m).  The quotient truncates through int32 (a convert
   every SIMD level has) and overshoots by at most one; every product
   and difference is an integer below 2^53, so no step rounds. */
static inline double dmod(double v, double m, double inv)
{
    double r = v - (double)(int32_t)(v * inv) * m;
    r += r < 0.0 ? m : 0.0;
    return r;
}

#define BLOCK 512

/* Hash one block of items into cells: ((a*x + b) mod p) mod w, in
   doubles.  Under the p < 2^26 gate (0 <= a, b, x < p) a*x + b < 2^53,
   so every intermediate is an exactly represented integer and the
   result equals the int64 formulation bit for bit; a power-of-two
   width finishes with a mask on the exact integer.  Table-free so the
   compiler vectorizes it; the scatter loops below are loop-carried on
   the table and stay scalar. */
static void hash_block(const int64_t *items, int64_t cnt, int64_t a,
                       int64_t b, int64_t prime, int64_t width,
                       int32_t *cells)
{
    double da = (double)a, db = (double)b;
    double p = (double)prime, inv_p = inv_up(p);
    double w = (double)width, inv_w = inv_up(w);
    int32_t wmask = (width & (width - 1)) ? 0 : (int32_t)(width - 1);
    int64_t i;
    if (wmask) {
        for (i = 0; i < cnt; ++i) {
            double v = da * exact_f64(items[i]) + db;
            cells[i] = (int32_t)dmod(v, p, inv_p) & wmask;
        }
    } else {
        for (i = 0; i < cnt; ++i) {
            double v = da * exact_f64(items[i]) + db;
            cells[i] = (int32_t)dmod(dmod(v, p, inv_p), w, inv_w);
        }
    }
}

/* One pass over a batch: items min/max and deltas min/max/sum (the sum
   wraps mod 2^64 exactly like numpy's int64 sum). */
void repro_batch_stats(const int64_t *items, const int64_t *deltas,
                       int64_t n, int64_t *out)
{
    int64_t imin = INT64_MAX, imax = INT64_MIN;
    int64_t dmin = INT64_MAX, dmax = INT64_MIN;
    uint64_t dsum = 0;
    int64_t i;
    for (i = 0; i < n; ++i) {
        int64_t x = items[i], d = deltas[i];
        imin = x < imin ? x : imin;
        imax = x > imax ? x : imax;
        dmin = d < dmin ? d : dmin;
        dmax = d > dmax ? d : dmax;
        dsum += (uint64_t)d;
    }
    out[0] = imin;
    out[1] = imax;
    out[2] = dmin;
    out[3] = dmax;
    out[4] = (int64_t)dsum;
}

/* Fused CountMin batch: per row, hash + scatter-add in one pass.
   deltas == NULL means unit insertions. */
void repro_cm_scatter(int64_t *table, int64_t depth, int64_t width,
                      const int64_t *items, const int64_t *deltas,
                      int64_t n, const int64_t *a, const int64_t *b,
                      int64_t prime)
{
    int32_t cells[BLOCK];
    int64_t start, r, i;
    for (start = 0; start < n; start += BLOCK) {
        int64_t cnt = n - start < BLOCK ? n - start : BLOCK;
        for (r = 0; r < depth; ++r) {
            int64_t *row = table + r * width;
            hash_block(items + start, cnt, a[r], b[r], prime, width, cells);
            if (deltas) {
                const int64_t *d = deltas + start;
                for (i = 0; i < cnt; ++i) row[cells[i]] += d[i];
            } else {
                for (i = 0; i < cnt; ++i) row[cells[i]] += 1;
            }
        }
    }
}

/* Fused CountSketch batch: bucket hash + sign hash + signed scatter.
   The sign hash is the bucket hash with width 2: (.. mod p) mod 2. */
void repro_cs_scatter(int64_t *table, int64_t depth, int64_t width,
                      const int64_t *items, const int64_t *deltas,
                      int64_t n, const int64_t *ba, const int64_t *bb,
                      const int64_t *sa, const int64_t *sb, int64_t prime)
{
    int32_t cells[BLOCK];
    int32_t parity[BLOCK];
    int64_t start, r, i;
    for (start = 0; start < n; start += BLOCK) {
        int64_t cnt = n - start < BLOCK ? n - start : BLOCK;
        const int64_t *blk = items + start;
        for (r = 0; r < depth; ++r) {
            int64_t *row = table + r * width;
            hash_block(blk, cnt, ba[r], bb[r], prime, width, cells);
            hash_block(blk, cnt, sa[r], sb[r], prime, 2, parity);
            if (deltas) {
                const int64_t *d = deltas + start;
                for (i = 0; i < cnt; ++i)
                    row[cells[i]] += (1 - 2 * (int64_t)parity[i]) * d[i];
            } else {
                for (i = 0; i < cnt; ++i)
                    row[cells[i]] += 1 - 2 * (int64_t)parity[i];
            }
        }
    }
}

/* SIS-L0 dense batch on raw items (Algorithm 5's chunk sketches):
   validate, split item -> (chunk, offset), reduce the delta mod q
   exactly like Python's %, then gather the column, multiply and
   accumulate mod q at every step, so registers stay in [0, q).
   Returns 0 -- having written nothing -- when any item lies outside
   [0, universe); 1 once the batch is applied. */
int64_t repro_sis_update(int64_t *dense, int64_t rows,
                         const int64_t *items, const int64_t *deltas,
                         int64_t n, const int64_t *cols, int64_t q,
                         int64_t chunk_width, int64_t universe)
{
    double inv_q = 1.0 / (double)q;
    double inv_cw = 1.0 / (double)chunk_width;
    uint64_t outside = 0;
    int64_t i, r;
    for (i = 0; i < n; ++i)
        outside |= (uint64_t)items[i] >= (uint64_t)universe;
    if (outside) return 0;
    for (i = 0; i < n; ++i) {
        int64_t x = items[i], d = deltas[i];
        int64_t chunk = (int64_t)((double)x * inv_cw);
        int64_t offset = x - chunk * chunk_width;
        int64_t *reg;
        const int64_t *col;
        if (offset < 0) {
            offset += chunk_width;
            --chunk;
        } else if (offset >= chunk_width) {
            offset -= chunk_width;
            ++chunk;
        }
        if (d < 0 || d >= q) {
            d %= q;
            d += d < 0 ? q : 0;
        }
        if (!d) continue;
        reg = dense + chunk * rows;
        col = cols + offset * rows;
        for (r = 0; r < rows; ++r)
            reg[r] = mod_dr(reg[r] + d * col[r], q, inv_q);
    }
    return 1;
}

/* Fused CountMin batched estimate: per block, hash every row and fold
   the gathered cells into a running minimum -- one pass over the probe
   items, no (depth, n) intermediate. */
void repro_cm_estimate(const int64_t *table, int64_t depth, int64_t width,
                       const int64_t *items, int64_t n, const int64_t *a,
                       const int64_t *b, int64_t prime, int64_t *out)
{
    int32_t cells[BLOCK];
    int64_t start, r, i;
    for (start = 0; start < n; start += BLOCK) {
        int64_t cnt = n - start < BLOCK ? n - start : BLOCK;
        for (r = 0; r < depth; ++r) {
            const int64_t *row = table + r * width;
            int64_t *dst = out + start;
            hash_block(items + start, cnt, a[r], b[r], prime, width, cells);
            if (r == 0) {
                for (i = 0; i < cnt; ++i) dst[i] = row[cells[i]];
            } else {
                for (i = 0; i < cnt; ++i) {
                    int64_t v = row[cells[i]];
                    if (v < dst[i]) dst[i] = v;
                }
            }
        }
    }
}

#define MT_N 624

/* mt[] <- init_genrand(s): the MT19937 state fill CPython seeds with. */
static void mt_init_genrand(uint32_t *mt, uint32_t s)
{
    int i;
    mt[0] = s;
    for (i = 1; i < MT_N; i++)
        mt[i] = (uint32_t)(1812433253UL * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i);
}

/* First output bit of CPython's random.Random(seed).getrandbits(1) for
   0 <= seed < 2^64: init_by_array over the 1-or-2-word little-endian
   key (exactly random_seed() in Modules/_randommodule.c), then the
   index-0 twist step and tempering of genrand_uint32 -- only the first
   word is ever read, so the remaining 623 twist steps are skipped.
   base[] is the shared init_genrand(19650218) state, computed once per
   batch. */
static int64_t mt_first_bit(const uint32_t *base, uint64_t seed)
{
    uint32_t mt[MT_N];
    uint32_t key[2];
    uint32_t y, y0;
    int keylen, i, j, k;
    key[0] = (uint32_t)(seed & 0xffffffffUL);
    key[1] = (uint32_t)(seed >> 32);
    keylen = key[1] ? 2 : 1;
    for (i = 0; i < MT_N; i++) mt[i] = base[i];
    i = 1; j = 0;
    for (k = MT_N; k; k--) {
        mt[i] = (uint32_t)((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30))
                                     * 1664525UL)) + key[j] + (uint32_t)j);
        i++; j++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
        if (j >= keylen) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (uint32_t)((mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30))
                                     * 1566083941UL)) - (uint32_t)i);
        i++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
    }
    mt[0] = 0x80000000UL;
    y = (mt[0] & 0x80000000UL) | (mt[1] & 0x7fffffffUL);
    y0 = mt[397] ^ (y >> 1) ^ ((y & 1) ? 0x9908b0dfUL : 0UL);
    y0 ^= (y0 >> 11);
    y0 ^= (y0 << 7) & 0x9d2c5680UL;
    y0 ^= (y0 << 15) & 0xefc60000UL;
    y0 ^= (y0 >> 18);
    return (int64_t)(y0 >> 31);
}

/* AMS sign decode: out[i] = +-1 with the same bit CPython's
   random.Random((row_seed << 20) ^ items[i]).getrandbits(1) draws. */
void repro_ams_signs(uint64_t base_seed, const int64_t *items, int64_t n,
                     int64_t *out)
{
    uint32_t base[MT_N];
    int64_t i;
    mt_init_genrand(base, 19650218UL);
    for (i = 0; i < n; ++i) {
        uint64_t seed = base_seed ^ (uint64_t)items[i];
        out[i] = mt_first_bit(base, seed) ? 1 : -1;
    }
}

/* Fused universe partition: Fibonacci hash + counting sort + stable
   scatter.  counts must hold 2*num_shards slots (the second half is the
   running-write-position scratch).  Two shards -- the top product bit --
   take a count pass and one scatter pass with both write cursors in
   registers; wider fleets store shard ids in scratch (length n) for the
   scatter pass. */
void repro_partition(const int64_t *items, const int64_t *deltas,
                     int64_t n, uint64_t multiplier, int64_t shard_bits,
                     int64_t window_shift, int64_t num_shards,
                     int64_t power_of_two, int64_t *out_items,
                     int64_t *out_deltas, int64_t *counts,
                     int64_t *scratch)
{
    int64_t *next = counts + num_shards;
    int64_t i, s, pos;
    if (num_shards == 2) {
        int64_t ones = 0, lo, hi;
        for (i = 0; i < n; ++i)
            ones += (int64_t)(((uint64_t)items[i] * multiplier) >> 63);
        lo = 0;
        hi = n - ones;
        for (i = 0; i < n; ++i) {
            int64_t x = items[i], d = deltas[i];
            int64_t bit = (int64_t)(((uint64_t)x * multiplier) >> 63);
            /* A masked select, not `bit ? hi : lo`: compilers turn the
               ternary into a branch that mispredicts on every other
               item of a well-mixed stream. */
            int64_t dst = lo ^ ((lo ^ hi) & -bit);
            out_items[dst] = x;
            out_deltas[dst] = d;
            hi += bit;
            lo += bit ^ 1;
        }
        counts[0] = n - ones;
        counts[1] = ones;
        return;
    }
    for (s = 0; s < num_shards; ++s) counts[s] = 0;
    for (i = 0; i < n; ++i) {
        uint64_t mixed = (uint64_t)items[i] * multiplier;
        int64_t id = power_of_two
            ? (int64_t)(shard_bits ? (mixed >> (64 - shard_bits)) : 0)
            : (int64_t)((mixed >> window_shift) % (uint64_t)num_shards);
        scratch[i] = id;
        counts[id]++;
    }
    pos = 0;
    for (s = 0; s < num_shards; ++s) { next[s] = pos; pos += counts[s]; }
    for (i = 0; i < n; ++i) {
        int64_t dst = next[scratch[i]]++;
        out_items[dst] = items[i];
        out_deltas[dst] = deltas[i];
    }
}
"""

_I64 = ctypes.c_int64
_P64 = ctypes.c_void_p
_SIGNATURES = {
    "repro_batch_stats": [_P64, _P64, _I64, _P64],
    "repro_cm_scatter": [_P64, _I64, _I64, _P64, _P64, _I64, _P64, _P64, _I64],
    "repro_cs_scatter": [
        _P64, _I64, _I64, _P64, _P64, _I64, _P64, _P64, _P64, _P64, _I64,
    ],
    "repro_sis_update": [
        _P64, _I64, _P64, _P64, _I64, _P64, _I64, _I64, _I64,
    ],
    "repro_cm_estimate": [_P64, _I64, _I64, _P64, _I64, _P64, _P64, _I64, _P64],
    "repro_ams_signs": [ctypes.c_uint64, _P64, _I64, _P64],
    "repro_partition": [
        _P64, _P64, _I64, ctypes.c_uint64, _I64, _I64, _I64, _I64,
        _P64, _P64, _P64, _P64,
    ],
}

_build_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_lib_tried = False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _cpu_identity() -> str:
    """Best-effort CPU fingerprint for the build-cache key.

    ``-march=native`` libraries are only valid on the microarchitecture
    that built them; a cache shared across machines (NFS home, baked
    container image, restored CI cache) must therefore key on the CPU,
    or loading a stale ``.so`` would SIGILL the process instead of
    falling back to the numpy tier.
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith(("model name", "flags", "Features")):
                    parts.append(line.strip())
                if len(parts) > 2:
                    break
    except OSError:
        parts.append(platform.processor())
    return "|".join(parts)


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile(compiler: str, flags: list[str], out_path: Path) -> bool:
    """Compile the kernel source to ``out_path`` atomically; False on failure."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_path.parent) as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(_C_SOURCE)
        obj = Path(tmp) / out_path.name
        command = [compiler, *flags, "-o", str(obj), str(src)]
        try:
            result = subprocess.run(
                command, capture_output=True, timeout=120, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return False
        if result.returncode != 0 or not obj.exists():
            return False
        try:
            os.replace(obj, out_path)
        except OSError:
            return False
    return True


def _self_check(lib: ctypes.CDLL) -> bool:
    """Smoke every compiled kernel against tiny numpy references.

    Guards against a miscompiling toolchain (or an exotic ABI) silently
    poisoning sketch state: any mismatch in any kernel discards the
    native tier wholesale.  The hash kernels run at the exactness edge
    too -- the largest prime the gate admits, items ``0`` and ``p - 1``
    and coefficients near ``p`` (so ``a*x + b`` nears ``2**52``), with
    a power-of-two and an odd width -- so a double path that rounds
    anywhere fails here, at load, instead of in a sketch.
    """
    items = np.array([0, 1, 5, 6, 6, 3], dtype=np.int64)
    deltas = np.array([1, -2, 3, 1, 1, 4], dtype=np.int64)
    stats = np.empty(5, dtype=np.int64)
    lib.repro_batch_stats(
        items.ctypes.data, deltas.ctypes.data, _I64(items.size),
        stats.ctypes.data,
    )
    if stats.tolist() != [0, 6, -2, 4, 8]:
        return False

    # Edge items; under the row x -> x - 1 (a = 1, b = p - 1) the last
    # two land on exact multiples of 49, whose quotient a reciprocal
    # rounded down would truncate one short.
    edge = _EDGE_PRIME
    edge_items = np.array(
        [0, edge - 1, 1, edge - 2, edge // 2, 40_000_003, edge - 1, 50, 99],
        dtype=np.int64,
    )
    edge_deltas = np.array([3, -1, 7, 1, -5, 2, 9, 4, -2], dtype=np.int64)
    cases = [
        (items, deltas, 13, 3, [3, 7], [1, 4], [5, 2], [0, 11]),
        (edge_items, edge_deltas, edge, 1024, [edge - 1, 977], [edge - 1, 0],
         [edge - 2, 31_337], [5, edge - 3]),
        (edge_items, edge_deltas, edge, 49, [edge - 1, 1], [edge - 2, edge - 1],
         [edge - 1, 2], [edge - 1, 0]),
    ]
    for case_items, case_deltas, prime, width, a, b, sa, sb in cases:
        a, b, sa, sb = (np.array(v, dtype=np.int64) for v in (a, b, sa, sb))
        depth, n = a.size, case_items.size
        cells = [((a[r] * case_items + b[r]) % prime) % width for r in range(depth)]
        signs = [1 - 2 * (((sa[r] * case_items + sb[r]) % prime) % 2) for r in range(depth)]
        table = np.zeros((depth, width), dtype=np.int64)
        lib.repro_cm_scatter(
            table.ctypes.data, _I64(depth), _I64(width), case_items.ctypes.data,
            case_deltas.ctypes.data, _I64(n), a.ctypes.data, b.ctypes.data,
            _I64(prime),
        )
        expected = np.zeros_like(table)
        for row in range(depth):
            np.add.at(expected[row], cells[row], case_deltas)
        if not np.array_equal(table, expected):
            return False

        estimates = np.empty(n, dtype=np.int64)
        lib.repro_cm_estimate(
            table.ctypes.data, _I64(depth), _I64(width), case_items.ctypes.data,
            _I64(n), a.ctypes.data, b.ctypes.data, _I64(prime),
            estimates.ctypes.data,
        )
        gathered = np.stack([table[r, cells[r]] for r in range(depth)])
        if not np.array_equal(estimates, gathered.min(axis=0)):
            return False

        table[:] = 0
        lib.repro_cs_scatter(
            table.ctypes.data, _I64(depth), _I64(width), case_items.ctypes.data,
            case_deltas.ctypes.data, _I64(n), a.ctypes.data, b.ctypes.data,
            sa.ctypes.data, sb.ctypes.data, _I64(prime),
        )
        expected[:] = 0
        for row in range(depth):
            np.add.at(expected[row], cells[row], signs[row] * case_deltas)
        if not np.array_equal(table, expected):
            return False

    # SIS update: universe 11 in chunks of 3 (4 chunk registers of 3
    # rows), deltas of both signs and beyond 2**52, and a refusal.
    rows, chunk_width, universe, modulus = 3, 3, 11, 11
    cols = (np.arange(9, dtype=np.int64).reshape(chunk_width, rows) * 5) % modulus
    sis_items = np.array([1, 10, 1, 8, 3, 0], dtype=np.int64)
    sis_deltas = np.array(
        [4, -1, (1 << 52) + 3, 22, -(1 << 62), -(1 << 63)], dtype=np.int64
    )
    dense = np.ones((4, rows), dtype=np.int64)
    if lib.repro_sis_update(
        dense.ctypes.data, _I64(rows), sis_items.ctypes.data,
        sis_deltas.ctypes.data, _I64(sis_items.size), cols.ctypes.data,
        _I64(modulus), _I64(chunk_width), _I64(universe),
    ) != 1:
        return False
    expected_dense = [[1] * rows for _ in range(4)]
    for item, delta in zip(sis_items.tolist(), sis_deltas.tolist()):
        chunk, offset = divmod(item, chunk_width)
        for row in range(rows):
            expected_dense[chunk][row] = (
                expected_dense[chunk][row]
                + (delta % modulus) * int(cols[offset, row])
            ) % modulus
    if dense.tolist() != expected_dense:
        return False
    outside = np.array([2, universe], dtype=np.int64)
    if lib.repro_sis_update(
        dense.ctypes.data, _I64(rows), outside.ctypes.data,
        sis_deltas.ctypes.data, _I64(outside.size), cols.ctypes.data,
        _I64(modulus), _I64(chunk_width), _I64(universe),
    ) != 0 or dense.tolist() != expected_dense:
        return False

    import random as _random

    base_seed = 1234567 << 20
    sign_items = np.array([0, 1, 2, 77, (1 << 33) + 5], dtype=np.int64)
    signs_out = np.empty(sign_items.size, dtype=np.int64)
    lib.repro_ams_signs(
        ctypes.c_uint64(base_seed), sign_items.ctypes.data,
        _I64(sign_items.size), signs_out.ctypes.data,
    )
    expected_signs = np.array(
        [
            1 if _random.Random(base_seed ^ int(item)).getrandbits(1) else -1
            for item in sign_items
        ],
        dtype=np.int64,
    )
    if not np.array_equal(signs_out, expected_signs):
        return False

    # Partition: the generic counting sort (4 shards) and the two-way
    # register-cursor path, each against a stable argsort.
    multiplier = 0x9E3779B97F4A7C15
    for num_shards, shard_bits in ((4, 2), (2, 1)):
        out_items = np.empty_like(items)
        out_deltas = np.empty_like(deltas)
        counts = np.empty(2 * num_shards, dtype=np.int64)
        scratch = np.empty(items.size, dtype=np.int64)
        lib.repro_partition(
            items.ctypes.data, deltas.ctypes.data, _I64(items.size),
            ctypes.c_uint64(multiplier), _I64(shard_bits), _I64(33),
            _I64(num_shards), _I64(1), out_items.ctypes.data,
            out_deltas.ctypes.data, counts.ctypes.data, scratch.ctypes.data,
        )
        ids = (items.astype(np.uint64) * np.uint64(multiplier)) >> np.uint64(
            64 - shard_bits
        )
        order = np.argsort(ids, kind="stable")
        if not (
            np.array_equal(out_items, items[order])
            and np.array_equal(out_deltas, deltas[order])
            and np.array_equal(
                counts[:num_shards], np.bincount(ids.astype(np.int64), minlength=num_shards)
            )
        ):
            return False
    return True


def _load_native() -> Optional[ctypes.CDLL]:
    """Build (once per machine) and load the native kernel library."""
    if os.environ.get("REPRO_NATIVE_KERNELS", "").strip() == "0":
        return None
    compiler = _find_compiler()
    if compiler is None:
        return None
    flag_sets = [
        ["-O3", "-march=native", "-fPIC", "-shared"],
        ["-O3", "-fPIC", "-shared"],
    ]
    cpu = _cpu_identity()
    for flags in flag_sets:
        key = hashlib.sha256(
            ("\x00".join([_C_SOURCE, compiler, cpu, *flags])).encode()
        ).hexdigest()[:16]
        path = _cache_dir() / f"repro-kernels-{key}.so"
        try:
            if not path.exists() and not _compile(compiler, flags, path):
                continue
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name, argtypes in _SIGNATURES.items():
            getattr(lib, name).argtypes = argtypes
            getattr(lib, name).restype = _I64 if name == "repro_sis_update" else None
        if _self_check(lib):
            return lib
    return None


def _native() -> Optional[ctypes.CDLL]:
    global _lib, _lib_tried
    if not _lib_tried:
        with _build_lock:
            if not _lib_tried:
                _lib = _load_native()
                _lib_tried = True
    return _lib


def native_kernels_available() -> bool:
    """Whether the compiled tier is active (builds it on first call)."""
    return _native() is not None


def _reset_native_for_tests() -> None:
    """Drop the cached library handle so env-var gates re-evaluate."""
    global _lib, _lib_tried
    with _build_lock:
        _lib = None
        _lib_tried = False


def _contiguous_i64(*arrays: np.ndarray) -> bool:
    """Whether every operand can go to C as an ``int64*``.

    Aligned too, not just C-contiguous: a view such as
    ``np.frombuffer(buf, "<i8", offset=3)`` is contiguous but unaligned,
    and dereferencing it as ``int64*`` is undefined behaviour in C.
    """
    return all(
        a.dtype == np.int64 and a.flags.c_contiguous and a.flags.aligned
        for a in arrays
    )


# -- numpy tier ------------------------------------------------------------


def scatter_add(out: np.ndarray, indices: np.ndarray, weights) -> None:
    """``out[indices] += weights`` -- the one scatter-add primitive.

    ``weights`` may be an array or a Python-int constant.  Constants take
    the fused path: one unweighted ``np.bincount`` (int64 end to end --
    exact for any constant the table itself can hold, never a float64
    round-trip) scaled and added in whole-array ops.  Array weights use
    numpy's indexed ``np.add.at`` loops, which are exact at every int64
    mass and, on numpy >= 1.24, at least as fast as a float64-weighted
    bincount would be.  Object-dtype outputs (promoted exact tables)
    always take ``np.add.at``.  Callers remain responsible for the
    no-wrap guarantee on ``out`` itself (the sketches' absorbed-mass
    promotion), exactly as with the reference formulation.
    """
    if isinstance(weights, (int, np.integer)) and out.dtype == np.int64:
        counts = np.bincount(indices, minlength=out.size)
        if weights != 1:
            counts *= int(weights)
        out += counts
        return
    np.add.at(out, indices, weights)


# -- fused sketch entry points --------------------------------------------


def _items_in_hash_domain(items: np.ndarray, prime: int) -> bool:
    """Whether every item satisfies the ``0 <= x < prime`` hash contract.

    The C kernels index table rows with the hashed cell directly, so an
    out-of-contract item (negative, or large enough to wrap ``a*x + b``)
    must never reach them -- the reference numpy path degrades to a
    garbage-but-in-range cell for such inputs, the native path would
    write out of bounds.  One vectorized min/max pass buys the guarantee.
    """
    if items.size == 0:
        return False
    return int(items.min()) >= 0 and int(items.max()) < prime


class BatchStats(NamedTuple):
    """One update batch and what a single pass over it found.

    It carries the arrays it summarizes, so a scatter entry reads its
    item-domain gate from the very arrays it will index with.
    """

    items: np.ndarray
    deltas: np.ndarray
    items_min: int
    items_max: int
    deltas_min: int
    deltas_max: int
    #: Wraps mod 2**64 exactly like numpy's int64 sum.
    deltas_sum: int

    @property
    def max_abs_delta(self) -> int:
        """The largest ``|delta|``: ``n`` times it bounds the batch's mass."""
        return max(abs(self.deltas_min), abs(self.deltas_max))

    def delta_mass(self) -> int:
        """The batch's exact ``sum(|delta|)``, what the per-update path
        absorbs one update at a time, so state that records it does not
        depend on how a stream was cut into batches.

        Constant deltas take ``|delta| * n`` with no pass; mixed ones one
        int64 reduction while ``max|delta| * n`` fits, exact Python ints
        past that.
        """
        n = self.items.size
        if self.deltas_min == self.deltas_max:
            return abs(self.deltas_min) * n
        if self.max_abs_delta * n < 1 << 63:
            return int(np.abs(self.deltas).sum())
        return sum(abs(delta) for delta in self.deltas.tolist())

    @property
    def unit_deltas(self) -> bool:
        """Whether every delta is 1 (the kernels then skip the deltas)."""
        return self.deltas_min == self.deltas_max == 1


def batch_stats(items: np.ndarray, deltas: np.ndarray) -> BatchStats:
    """Items min/max and deltas min/max/sum of a non-empty int64 batch.

    One native pass when the compiled tier is up and both arrays can go
    to C; five numpy reductions otherwise, with identical results.
    """
    if items.size == 0:
        raise ValueError("batch_stats needs a non-empty batch")
    lib = _native()
    if lib is not None and _contiguous_i64(items, deltas):
        out = np.empty(5, dtype=np.int64)
        lib.repro_batch_stats(
            items.ctypes.data, deltas.ctypes.data, _I64(items.size),
            out.ctypes.data,
        )
        return BatchStats(items, deltas, *out.tolist())
    return BatchStats(
        items,
        deltas,
        int(items.min()),
        int(items.max()),
        int(deltas.min()),
        int(deltas.max()),
        int(deltas.sum(dtype=np.int64)),
    )


def _hash_gates(lib, prime: int, stats: BatchStats, *arrays: np.ndarray) -> bool:
    """Whether the native hash kernels may take this batch.

    Gates: aligned, contiguous int64 operands, ``prime <
    NATIVE_HASH_BOUND`` and every item inside the ``0 <= x < prime``
    hash domain.  Together these keep ``a*x + b`` under 2**53, where
    the kernels' all-double hash is exact, and every hashed cell inside
    its table row -- for an out-of-domain item the reference numpy path
    degrades to a garbage-but-in-range cell, the native path would
    write out of bounds.
    """
    return (
        lib is not None
        and prime < NATIVE_HASH_BOUND
        and _contiguous_i64(stats.items, stats.deltas, *arrays)
        and stats.items_min >= 0
        and stats.items_max < prime
    )


def count_min_scatter(
    table: np.ndarray,
    stats: BatchStats,
    row_a: np.ndarray,
    row_b: np.ndarray,
    prime: int,
) -> bool:
    """Native fused CountMin batch over ``stats``'s arrays; ``False``
    keeps the caller's path.  Gates: see :func:`_hash_gates`."""
    lib = _native()
    if not _hash_gates(lib, prime, stats, table, row_a, row_b):
        return False
    lib.repro_cm_scatter(
        table.ctypes.data,
        _I64(table.shape[0]),
        _I64(table.shape[1]),
        stats.items.ctypes.data,
        None if stats.unit_deltas else stats.deltas.ctypes.data,
        _I64(stats.items.size),
        row_a.ctypes.data,
        row_b.ctypes.data,
        _I64(prime),
    )
    return True


def count_sketch_scatter(
    table: np.ndarray,
    stats: BatchStats,
    bucket_a: np.ndarray,
    bucket_b: np.ndarray,
    sign_a: np.ndarray,
    sign_b: np.ndarray,
    prime: int,
) -> bool:
    """Native fused CountSketch batch over ``stats``'s arrays; ``False``
    keeps the caller's path.  Same gates as :func:`count_min_scatter`."""
    lib = _native()
    if not _hash_gates(lib, prime, stats, table, bucket_a, bucket_b, sign_a, sign_b):
        return False
    lib.repro_cs_scatter(
        table.ctypes.data,
        _I64(table.shape[0]),
        _I64(table.shape[1]),
        stats.items.ctypes.data,
        None if stats.unit_deltas else stats.deltas.ctypes.data,
        _I64(stats.items.size),
        bucket_a.ctypes.data,
        bucket_b.ctypes.data,
        sign_a.ctypes.data,
        sign_b.ctypes.data,
        _I64(prime),
    )
    return True


def count_min_estimate(
    table: np.ndarray,
    items: np.ndarray,
    row_a: np.ndarray,
    row_b: np.ndarray,
    prime: int,
) -> Optional[np.ndarray]:
    """Native fused CountMin batched estimate; ``None`` keeps the caller's path.

    One pass per block: hash every row, gather its cells, fold the
    running minimum -- the read-side twin of :func:`count_min_scatter`,
    with the same gates (aligned, contiguous int64 operands, ``prime <
    NATIVE_HASH_BOUND``, items inside the ``0 <= x < prime`` hash
    domain so the all-double hash stays exact and every table read
    stays in bounds).
    """
    lib = _native()
    if (
        lib is None
        or prime >= NATIVE_HASH_BOUND
        or not _contiguous_i64(table, items, row_a, row_b)
        or not _items_in_hash_domain(items, prime)
    ):
        return None
    out = np.empty(items.size, dtype=np.int64)
    lib.repro_cm_estimate(
        table.ctypes.data,
        _I64(table.shape[0]),
        _I64(table.shape[1]),
        items.ctypes.data,
        _I64(items.size),
        row_a.ctypes.data,
        row_b.ctypes.data,
        _I64(prime),
        out.ctypes.data,
    )
    return out


def ams_sign_bits(base_seed: int, items: np.ndarray) -> Optional[np.ndarray]:
    """Native AMS sign decode; ``None`` keeps the caller's scalar path.

    Returns the ``+-1`` array whose entries equal CPython's
    ``random.Random(base_seed ^ item).getrandbits(1)`` mapped to
    ``{1, -1}`` -- bit-identical to :meth:`repro.moments.ams.AMSSketch.sign`
    (the self-check pins it against the interpreter at load time).
    Gates: nonnegative int64 items and ``0 <= base_seed < 2**64`` keep
    ``base_seed ^ item`` a valid 1-or-2-word MT19937 key.
    """
    lib = _native()
    if (
        lib is None
        or not 0 <= base_seed < 1 << 64
        or not _contiguous_i64(items)
        or (items.size and int(items.min()) < 0)
    ):
        return None
    out = np.empty(items.size, dtype=np.int64)
    lib.repro_ams_signs(
        ctypes.c_uint64(base_seed),
        items.ctypes.data,
        _I64(items.size),
        out.ctypes.data,
    )
    return out


def sis_update(
    dense: np.ndarray,
    items: np.ndarray,
    deltas: np.ndarray,
    cols: np.ndarray,
    modulus: int,
    chunk_width: int,
    universe: int,
) -> bool:
    """Native SIS-L0 dense batch on raw items; ``False`` keeps the caller's path.

    One call validates every item against ``[0, universe)``, splits it
    into ``(item // chunk_width, item % chunk_width)``, reduces its
    delta mod q exactly like Python's ``%`` (any int64, negatives
    included) and accumulates ``delta * cols[offset]`` into
    ``dense[chunk]`` mod q at every step, so registers never leave
    ``[0, q)`` and no batch-limit splitting is needed.  A batch holding
    an item outside the universe is refused before anything is written:
    the caller's reference path then raises its ``ValueError``, so the
    error and the untouched table are the same on both tiers.  Gates:
    ``modulus < NATIVE_HASH_BOUND`` keeps ``reg + d*col`` under 2**52,
    ``universe < 2**52`` keeps the double-reciprocal chunk split exact,
    and the shapes keep every chunk register and column the validated
    items can name inside ``dense`` and ``cols``.
    """
    lib = _native()
    if (
        lib is None
        or modulus >= NATIVE_HASH_BOUND
        or not 0 < universe < 1 << 52
        or chunk_width <= 0
        or not _contiguous_i64(dense, items, deltas, cols)
        or dense.ndim != 2
        or cols.ndim != 2
        or cols.shape[1] != dense.shape[1]
        or cols.shape[0] < chunk_width
        or dense.shape[0] * chunk_width < universe
    ):
        return False
    return bool(
        lib.repro_sis_update(
            dense.ctypes.data,
            _I64(dense.shape[1]),
            items.ctypes.data,
            deltas.ctypes.data,
            _I64(items.size),
            cols.ctypes.data,
            _I64(modulus),
            _I64(chunk_width),
            _I64(universe),
        )
    )


def partition_scatter(
    items: np.ndarray,
    deltas: np.ndarray,
    multiplier: int,
    shard_bits: int,
    window_shift: int,
    num_shards: int,
    power_of_two: bool,
):
    """Native fused partition: hash + counting sort + stable scatter.

    Returns ``(sorted_items, sorted_deltas, counts)`` -- shard-grouped
    copies in stream order plus per-shard counts -- or ``None`` when the
    native tier is unavailable.  Bit-identical to hashing with
    ``UniversePartitioner.assign_array`` and stable-sorting by shard id.
    """
    lib = _native()
    if lib is None or not _contiguous_i64(items, deltas):
        return None
    n = items.size
    out_items = np.empty(n, dtype=np.int64)
    out_deltas = np.empty(n, dtype=np.int64)
    counts = np.empty(2 * num_shards, dtype=np.int64)
    # The two-way path keeps shard ids in registers, not in scratch.
    scratch = None if num_shards == 2 else np.empty(n, dtype=np.int64)
    lib.repro_partition(
        items.ctypes.data,
        deltas.ctypes.data,
        _I64(n),
        ctypes.c_uint64(multiplier),
        _I64(shard_bits),
        _I64(window_shift),
        _I64(num_shards),
        _I64(1 if power_of_two else 0),
        out_items.ctypes.data,
        out_deltas.ctypes.data,
        counts.ctypes.data,
        None if scratch is None else scratch.ctypes.data,
    )
    return out_items, out_deltas, counts[:num_shards]
