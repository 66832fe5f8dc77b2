"""Network monitoring: hierarchical heavy hitters for DDoS-style detection.

The scenario from Section 2.2's motivation ([ZSS+04], [SDS+06]): attack
traffic concentrates under a few *subnets* without any single host being
heavy.  A flat heavy-hitter algorithm sees nothing; a hierarchical one
flags the subnets.  We run both the deterministic [TMS12] baseline and the
white-box robust Algorithm 4 on the same traffic, and compare their space.

The twist that motivates the white-box model: the monitor's internal state
lives on shared infrastructure (a cloud dashboard, a distributed collector
-- Section 1's applications), so the traffic generator may be *adapting to
the monitor's own counters*.  Algorithm 4's guarantees survive that;
deterministic baselines survive trivially but pay log(m) per counter.

Part two scales the monitor up: per-flow packet counting over a million
flow labels, driven through a sharded fleet (universe-partitioned
CountMin replicas whose merged table is bit-identical to one collector)
with the asyncio ingestion front-end pipelining packet-chunk production
against the scatter -- the deployment shape for a collector fleet, with a
distinct-flow count from the SIS-L0 sketch riding the same pipeline.

Part three is the distributed deployment shape: the same fleet on
``backend="process"`` (per-shard worker processes, shared-memory chunk
transport, wire-format snapshot fan-in), with checkpointed ingestion --
the run is "killed" mid-stream and resumed from the checkpoint file,
finishing bit-identical to the uninterrupted collector.

Run:  python examples/network_monitoring.py
"""

import os
import tempfile

import numpy as np

from repro.core.stream import FrequencyVector
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.hhh.domain import HierarchicalDomain, Prefix, exact_hhh
from repro.hhh.hss import HierarchicalSpaceSaving
from repro.hhh.robust_hhh import RobustHHH
from repro.distributed import resume_from, tail_chunks
from repro.parallel import ShardedAlgorithm, chunk_arrays, ingest
from repro.workloads.hierarchy import planted_hhh_stream
from repro.workloads.frequency import zipf_arrays


def sharded_flow_monitor(
    flows: int = 250_000, packets: int = 200_000, shards: int = 4
) -> None:
    """Part two: a sharded collector fleet fed through the async front-end."""
    items, deltas = zipf_arrays(flows, packets, skew=1.2, seed=7)

    def make_counter() -> CountMinSketch:
        return CountMinSketch(flows, width=256, depth=4, seed=42)

    def make_distinct() -> SisL0Estimator:
        # A modest modulus keeps the SIS sketch on its int64 fast path;
        # the n^eps guarantee is unchanged (q is a free poly(n) choice).
        params = SISParams(
            rows=8, cols=512, modulus=next_prime(1 << 20), beta=float(flows) * 32
        )
        return SisL0Estimator(flows, params=params, seed=42)

    counter_fleet = ShardedAlgorithm(make_counter, num_shards=shards)
    distinct_fleet = ShardedAlgorithm(make_distinct, num_shards=shards)
    stats = ingest(
        [counter_fleet, distinct_fleet],
        chunk_arrays(items, deltas, chunk_size=8192),
        queue_depth=4,
    )

    # Single-collector reference: the merged shard state must match it.
    reference = make_counter()
    reference.feed_batch(items, deltas)
    merged = counter_fleet.merged()
    top = np.argsort(np.bincount(items))[-3:][::-1]
    z = distinct_fleet.query()
    factor = distinct_fleet.approximation_factor()

    print(f"-- sharded flow monitor ({shards} shards, async ingest) --")
    print(
        f"  ingested {stats.updates} packets in {stats.chunks} chunks "
        f"({stats.updates_per_second:,.0f} packets/s pipeline)"
    )
    print(f"  shard loads: {counter_fleet.shard_loads()}")
    for flow in top.tolist():
        print(
            f"  top talker flow {flow}: ~{merged.estimate(flow)} packets "
            f"(exact {int(np.sum(items == flow))})"
        )
    match = bool(np.array_equal(merged.table, reference.table))
    print(f"  merged table == single collector table: {match}")
    print(
        f"  distinct flows: z = {z} nonzero SIS chunks "
        f"(bounds {z} <= L0 <= {int(z * factor)})"
    )
    print()


def distributed_flow_monitor(
    flows: int = 100_000, packets: int = 120_000, shards: int = 2
) -> None:
    """Part three: process workers + checkpointed, kill-and-resume ingest."""
    items, deltas = zipf_arrays(flows, packets, skew=1.2, seed=21)
    with tempfile.TemporaryDirectory() as workdir:
        _run_distributed_monitor(
            os.path.join(workdir, "flow-monitor.ckpt"),
            flows,
            items,
            deltas,
            packets,
            shards,
        )


def _run_distributed_monitor(checkpoint, flows, items, deltas, packets, shards):
    def make_counter() -> CountMinSketch:
        return CountMinSketch(flows, width=256, depth=4, seed=42)

    # Uninterrupted single collector: the recovery target to match.
    reference = make_counter()
    reference.feed_batch(items, deltas)

    # The collector fleet: per-shard worker *processes*.  Chunk data
    # reaches workers through shared memory; merged() fans their state
    # back in as fingerprint-verified wire snapshots.  The run
    # checkpoints every ~2^14 packets and "dies" 60% through the stream.
    crash_at = int(0.6 * packets)
    with ShardedAlgorithm(make_counter, num_shards=shards, backend="process") as fleet:
        stats = ingest(
            fleet,
            chunk_arrays(items[:crash_at], deltas[:crash_at], 8192),
            checkpoint_path=checkpoint,
            checkpoint_every=1 << 14,
        )
    print(f"-- distributed flow monitor ({shards} process workers) --")
    print(
        f"  ingested {stats.updates} packets, wrote {stats.checkpoints} "
        f"checkpoints, then the collector 'died' at packet {crash_at}"
    )

    # Recovery: a fresh fleet restores the checkpointed merged state and
    # replays only the unabsorbed tail of the packet stream.
    with ShardedAlgorithm(make_counter, num_shards=shards, backend="process") as recovered:
        position = resume_from(checkpoint, recovered)
        ingest(
            recovered,
            tail_chunks(chunk_arrays(items, deltas, 8192), position),
            checkpoint_path=checkpoint,
            start_position=position,
        )
        merged = recovered.merged()
        match = bool(np.array_equal(merged.table, reference.table))
        replayed = packets - position
        print(
            f"  resumed at packet {position}, replayed only {replayed} "
            f"({100 * replayed / packets:.0f}% of the stream)"
        )
        print(f"  recovered table == uninterrupted collector table: {match}")
    print()


def main() -> None:
    # An 8-bit address space, split like IPv4 prefixes: height 8, branching 2.
    domain = HierarchicalDomain(branching=2, height=8)
    gamma, eps = 0.15, 0.05

    # Attack traffic: 30% of packets under subnet 3/4 (a /4 prefix) and
    # 20% under subnet 40/2 (a /6), spread across hosts inside.
    attack = {Prefix(4, 3): 0.30, Prefix(2, 40): 0.20}
    packets = 50_000
    stream = planted_hhh_stream(domain, packets, attack, seed=99)

    deterministic = HierarchicalSpaceSaving(
        domain, gamma=gamma, accuracy=eps, capacity_per_level=64
    )
    robust = RobustHHH(
        domain, gamma=gamma, accuracy=eps, seed=5, capacity_per_level=64
    )
    exact = FrequencyVector(domain.universe_size)
    for update in stream:
        deterministic.feed(update)
        robust.feed(update)
        exact.apply(update)

    truth = exact_hhh(domain, exact, threshold=gamma)

    def show(name, report, bits):
        print(f"-- {name} ({bits} bits) --")
        for prefix, estimate in sorted(report.items()):
            width = domain.branching**prefix.level
            low = prefix.value * width
            print(
                f"  prefix level={prefix.level} [{low}..{low + width - 1}] "
                f"~{estimate:8.0f} packets"
            )
        print()

    print(f"traffic: {packets} packets, planted subnets: "
          f"{[(p.level, p.value) for p in attack]}")
    print()
    show("exact HHH (oracle)", {p: float(v) for p, v in truth.items()},
         bits="n/a")
    show("deterministic [TMS12]", deterministic.query(), deterministic.space_bits())
    show("robust Algorithm 4", robust.query(), robust.space_bits())

    print("Space note: the deterministic counters are sized for the stream "
          "length (log m per counter);")
    print("Algorithm 4's counters are sized for its sampled mass -- stream "
          "length only enters via the")
    print("Morris clock's log log m bits (Theorem 2.14).")
    print()
    sharded_flow_monitor()
    distributed_flow_monitor()


if __name__ == "__main__":
    main()
