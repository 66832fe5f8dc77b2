"""The versioned public surface.

``repro.api`` pins the stable names; this file pins the pin.  It checks
that every ``__all__`` entry resolves and points at the documented
implementation, and -- run under ``-W error::DeprecationWarning`` in CI
-- that the canonical spellings stay warning-free.
"""

import warnings

import pytest

import repro.api as api
from repro.parallel.sharded import ShardedAlgorithm
from repro.workloads.frequency import uniform_arrays


def _count_min():
    from repro.heavyhitters.count_min import CountMinSketch

    return CountMinSketch(universe_size=4096, depth=4, width=256, seed=5)


class TestFacadeSurface:
    def test_every_pinned_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_api_version_and_library_version(self):
        assert api.API_VERSION == "3.0"
        import repro
        import repro.parallel
        import repro.service
        import repro.testing

        assert api.__version__ == repro.__version__
        # The wrappers 3.0 removed are exported nowhere.
        for name in ("ShardedStreamEngine", "ShardMigrationPlanner"):
            assert name not in api.__all__
            assert not hasattr(api, name)
        assert not hasattr(repro.parallel, "ShardedStreamEngine")
        assert not hasattr(repro.service, "ShardMigrationPlanner")
        assert not hasattr(repro.testing, "inject_worker_kills")

    def test_names_point_at_their_documented_homes(self):
        from repro.core.engine import StreamEngine
        from repro.distributed.checkpoint import save_checkpoint
        from repro.parallel.ingest import ingest
        from repro.service.server import SketchServer

        assert api.StreamEngine is StreamEngine
        assert api.save_checkpoint is save_checkpoint
        assert api.ingest is ingest
        assert api.SketchServer is SketchServer

    def test_dir_covers_all_and_aliases(self):
        names = dir(api)
        for name in api.__all__:
            assert name in names

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            api.definitely_not_part_of_the_api

    def test_facade_is_importable_without_warnings(self):
        # the import already happened at module load under CI's
        # -W error::DeprecationWarning; touching every name again here
        # keeps the check explicit
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in api.__all__:
                getattr(api, name)


class TestParallelFlagShim:
    """``backend=``, the keyword that replaced the removed ``parallel=``."""

    def test_backend_keyword_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            wrapper = ShardedAlgorithm(_count_min, 2, backend="serial")
            threaded = ShardedAlgorithm(_count_min, 2, backend="thread")
        wrapper.close()
        threaded.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedAlgorithm(_count_min, 2, backend="gpu")


class TestIngestSignatureUnification:
    def test_keyword_queue_depth_is_warning_free(self):
        items, deltas = uniform_arrays(4096, 3000, seed=2)
        sketch = _count_min()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stats = api.ingest([sketch], [(items, deltas)], queue_depth=2)
        assert stats.updates == len(items)

    def test_ingest_accepts_raw_arrays_like_drive_arrays(self):
        items, deltas = uniform_arrays(4096, 3000, seed=3)
        direct = _count_min()
        api.StreamEngine().drive_arrays([direct], items, deltas)
        ingested = _count_min()
        stats = api.ingest([ingested], (items, deltas), chunk_size=1024)
        assert stats.updates == len(items)
        assert ingested.snapshot() == direct.snapshot()

    def test_ingest_and_drive_share_checkpoint_conventions(self, tmp_path):
        """Both entry points speak checkpoint_path/checkpoint_every/
        start_position and land bit-identical files."""
        items, deltas = uniform_arrays(4096, 4000, seed=4)
        ingest_path = tmp_path / "ingest.ckpt"
        drive_path = tmp_path / "drive.ckpt"

        ingested = _count_min()
        api.ingest(
            [ingested],
            (items, deltas),
            chunk_size=1024,
            checkpoint_path=ingest_path,
            checkpoint_every=2048,
        )
        driven = _count_min()
        api.StreamEngine(chunk_size=1024).drive_arrays(
            [driven],
            items,
            deltas,
            checkpoint_path=drive_path,
            checkpoint_every=2048,
        )
        assert ingested.snapshot() == driven.snapshot()
        loaded_ingest = api.load_checkpoint(ingest_path)
        loaded_drive = api.load_checkpoint(drive_path)
        assert loaded_ingest.position == loaded_drive.position
        assert loaded_ingest.snapshot == loaded_drive.snapshot

    def test_drive_on_chunk_matches_ingest_positions(self):
        items, deltas = uniform_arrays(4096, 4000, seed=5)
        drive_positions = []
        api.StreamEngine(chunk_size=1024).drive_arrays(
            [_count_min()], items, deltas, on_chunk=drive_positions.append
        )
        ingest_positions = []
        api.ingest(
            [_count_min()],
            (items, deltas),
            chunk_size=1024,
            on_chunk=ingest_positions.append,
        )
        assert drive_positions == ingest_positions
        assert drive_positions[-1] == len(items)

    def test_both_return_ingest_stats(self):
        items, deltas = uniform_arrays(4096, 1000, seed=6)
        stats = api.ingest([_count_min()], (items, deltas))
        assert isinstance(stats, api.IngestStats)
        assert stats.updates == len(items)
