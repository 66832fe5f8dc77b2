"""One replay primitive: a baseline state plus the batches applied since.

Every state the fleet rebuilds -- the coordinator's record of a server,
a readmitted or migrated server, a respawned shard worker -- replays a
:class:`ReplayLog`, whose baseline plus entries equal the live state.
Replay is exact because every mergeable family's state, snapshot bytes
included, depends on the updates alone, not on how they were batched or
sharded (the batch- and shard-equivalence tests pin the bytes).  A log
owns its entries: a caller that may hand it an array it later
overwrites (a one-part split returns its input) copies first.

Every sketch copy made here is a
:meth:`~repro.core.algorithm.MergeableSketch.fork`: it shares the
source's randomness witness and hash parameters, which no update,
merge or restore ever writes, and copies the rest, so a view, replica
or twin never changes its source or another copy.  A fork restored from
snapshot bytes copies none of the tables the restore replaces.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.algorithm import MergeableSketch, StreamAlgorithm

__all__ = ["ReplayLog", "absorb", "merge_states"]


def absorb(sketch: StreamAlgorithm, entries: Sequence[tuple]) -> None:
    """Feed ``(items, deltas)`` entries into ``sketch`` as one
    ``process_batch``, advancing ``updates_processed`` as ``feed_batch``
    would; the update metrics stay with whoever acknowledged them."""
    items = np.concatenate([items for items, _ in entries])
    sketch.process_batch(items, np.concatenate([deltas for _, deltas in entries]))
    sketch.updates_processed += len(items)


class ReplayLog:
    """A baseline plus the entries applied since it.

    ``baseline`` is snapshot bytes, a live replica :meth:`fold` restored
    from them, or ``None``; ``version`` and ``position`` are the state
    version and stream position it holds, and ``words`` the size of the
    last baseline bytes in 8-byte words.  :meth:`fold`, :meth:`fits` and
    :meth:`predicted` read ``entries`` as ``(items, deltas)`` pairs.
    """

    def __init__(self, baseline: Optional[bytes] = None) -> None:
        self.baseline, self.words = None, 0
        self.rebase(baseline)

    def rebase(self, baseline=None, version=None, position: int = 0) -> None:
        """A new baseline (bytes; ``None`` keeps the current one, which
        still holds the state) at ``version``; drops the entries."""
        if baseline is not None:
            self.baseline, self.words = baseline, len(baseline) // 8
        self.version, self.position, self.entries = version, position, []

    def fold(self, template: MergeableSketch, version, position: int) -> None:
        """Make baseline plus entries the new baseline: the entries are
        absorbed into the replica, restored from the bytes into a fork
        of ``template`` on first use (the bytes are dropped)."""
        if isinstance(self.baseline, bytes):
            self.baseline = template.fork(self.baseline)
        absorb(self.baseline, self.entries)
        self.rebase(None, version, position)

    def baseline_bytes(self) -> Optional[bytes]:
        """The baseline as bytes: a replica is encoded only when a
        hand-off needs them."""
        if self.baseline is None or isinstance(self.baseline, bytes):
            return self.baseline
        return self.baseline.snapshot()

    def predicted(self) -> tuple:
        """The version of a server that applied exactly the entries since
        the baseline: it bumps its mutation count once per feed."""
        epoch, mutations = self.version
        return (epoch, mutations + len(self.entries))

    def fits(self, start: int = 0) -> bool:
        """The fold's size rule: the entries from ``start`` on hold no
        more updates than the baseline bytes have 8-byte words.  Folding
        repeats the server's work per update; a pull's hash, transfer
        and copy cost per byte (words count bytes, not cells: snapshots
        store arrays at their narrowest width)."""
        return sum(len(items) for items, _ in self.entries[start:]) <= self.words


def merge_states(
    template: MergeableSketch, states: Sequence, twin: Optional[MergeableSketch] = None
) -> MergeableSketch:
    """A new sketch merging ``states``, each snapshot bytes or a replica.

    The first is restored into a fork of ``template`` or forked; the
    rest are merged, bytes by way of ``twin`` (forked from the template
    when not given), which spares ``merge_snapshot``'s copy per call.
    ``restore`` replaces the twin's state wholesale, so one twin serves
    every call byte-identically; it is never handed out, and no merge
    keeps a reference to its argument.
    """
    first, *rest = states
    view = template.fork(first) if isinstance(first, bytes) else first.fork()
    for state in rest:
        if isinstance(state, bytes):
            if twin is None:
                twin = template.fork(state)
            else:
                twin.restore(state)
            state = twin
        view.merge(state)
    return view
