"""Unit tests of the sharded-execution toolkit (``repro.utils.parallel``).

The behavioral contracts the multicore layer leans on: worker-count
validation fails loudly at the API boundary, shard slices partition
deterministically, substream keys are pure functions of (seed, k, i), and
``ShardedExecutor.map`` preserves submission order whatever the completion
order.
"""

import os
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from helpers import procjobs
from repro.utils import parallel
from repro.utils.parallel import (
    ProcessShardedExecutor,
    ShardedExecutor,
    SharedNDArray,
    attach_shared_array,
    available_cores,
    blas_thread_count,
    default_executor,
    default_workers,
    resolve_executor,
    resolve_workers,
    shard_blas_threads,
    shard_seed_sequence,
    shard_slices,
)
from repro.utils.validation import ValidationError


class TestResolveWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 7, np.int64(3), np.int32(2)])
    def test_valid_counts_pass_through(self, workers):
        assert resolve_workers(workers) == int(workers)
        assert isinstance(resolve_workers(workers), int)

    @pytest.mark.parametrize("workers", [0, -1, -100, np.int64(0)])
    def test_subpositive_counts_rejected(self, workers):
        with pytest.raises(ValidationError, match=">= 1"):
            resolve_workers(workers)

    @pytest.mark.parametrize("workers", [2.0, 2.5, "2", "two", True, False, [2]])
    def test_non_int_counts_rejected_with_clear_error(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            resolve_workers(workers)

    def test_auto_resolves_to_positive_core_count(self):
        assert resolve_workers("auto") >= 1

    def test_none_defaults_to_one_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert default_workers() == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers(None) >= 1

    @pytest.mark.parametrize("raw", ["zero", "-2", "2.5"])
    def test_bad_env_values_fail_loudly(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValidationError, match="REPRO_WORKERS"):
            default_workers()


class TestShardSlices:
    @pytest.mark.parametrize(
        "n_items,workers", [(1, 1), (5, 2), (8, 4), (9, 4), (3, 7), (256, 4)]
    )
    def test_slices_partition_exactly(self, n_items, workers):
        slices = shard_slices(n_items, workers)
        assert len(slices) == min(workers, n_items)
        covered = np.concatenate([np.arange(n_items)[s] for s in slices])
        np.testing.assert_array_equal(covered, np.arange(n_items))

    def test_balanced_within_one_row(self):
        sizes = [s.stop - s.start for s in shard_slices(23, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # longer shards first

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError):
            shard_slices(0, 2)


class TestShardSeedSequence:
    def test_pure_function_of_seed_and_key(self):
        root = np.random.SeedSequence(42, spawn_key=(6,))
        a = shard_seed_sequence(root, 4, 1)
        b = shard_seed_sequence(root, 4, 1)
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        draws_a = np.random.default_rng(a).random(8)
        draws_b = np.random.default_rng(b).random(8)
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_worker_counts_never_alias(self):
        root = np.random.SeedSequence(42, spawn_key=(6,))
        keys = {
            shard_seed_sequence(root, k, i).spawn_key
            for k in (1, 2, 3, 4)
            for i in range(k)
        }
        assert len(keys) == 1 + 2 + 3 + 4


class TestShardedExecutor:
    def test_workers_one_runs_inline_on_calling_thread(self):
        idents = ShardedExecutor(1).map(lambda _: threading.get_ident(), range(3))
        assert set(idents) == {threading.get_ident()}

    def test_map_preserves_submission_order(self):
        # Reverse-staggered sleeps: later items complete first, so any
        # completion-order gather would return the list reversed.
        import time

        def job(i):
            time.sleep(0.02 * (4 - i))
            return i

        assert ShardedExecutor(4).map(job, range(4)) == [0, 1, 2, 3]

    def test_threaded_map_runs_off_the_calling_thread(self):
        import time

        def ident(_):
            time.sleep(0.01)  # force overlap so the pool fans out
            return threading.get_ident()

        idents = ShardedExecutor(4).map(ident, range(4))
        assert threading.get_ident() not in idents

    def test_single_item_runs_inline(self):
        assert ShardedExecutor(4).map(lambda _: threading.get_ident(), [0]) == [
            threading.get_ident()
        ]

    def test_invalid_workers_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ShardedExecutor(0)


class TestResolveExecutor:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_valid_names_pass_through(self, executor):
        assert resolve_executor(executor) == executor

    def test_none_defaults_to_threads_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(None) == "threads"
        assert default_executor() == "threads"

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        assert resolve_executor(None) == "processes"
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        assert resolve_executor(None) == "threads"

    @pytest.mark.parametrize("executor", ["forks", "PROCESSES", "", 2])
    def test_unknown_names_rejected_with_clear_error(self, executor):
        with pytest.raises(ValidationError, match="executor"):
            resolve_executor(executor)

    def test_bad_env_values_fail_loudly_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "forks")
        with pytest.raises(ValidationError, match="REPRO_EXECUTOR"):
            default_executor()


class TestSharedNDArray:
    def test_descriptor_round_trip_is_zero_copy_equal(self):
        payload = np.arange(24, dtype=np.float64).reshape(4, 6)
        shared = SharedNDArray(payload)
        try:
            segment, view = attach_shared_array(shared.descriptor)
            try:
                np.testing.assert_array_equal(view, payload)
                assert view.dtype == payload.dtype
                # The attached view aliases the segment, not a pickle copy.
                assert not view.flags.owndata
            finally:
                del view
                segment.close()
        finally:
            shared.close()

    def test_preserves_dtype_and_shape(self):
        payload = np.ones((3, 2), dtype=np.float32)
        shared = SharedNDArray(payload)
        try:
            name, shape, dtype_str, pid = shared.descriptor
            assert shape == (3, 2)
            assert np.dtype(dtype_str) == np.float32
            assert pid == os.getpid()
            np.testing.assert_array_equal(shared.asarray(), payload)
        finally:
            shared.close()

    def test_close_is_idempotent_and_unlinks(self):
        shared = SharedNDArray(np.zeros(4))
        descriptor = shared.descriptor
        shared.close()
        shared.close()  # second close is a no-op
        with pytest.raises(FileNotFoundError):
            attach_shared_array(descriptor)

    def test_pinned_segment_survives_a_racing_close(self):
        """A close landing while a consumer holds a pin (the substrate's
        invalidate-while-settling race) defers the unlink to the last
        release, so the descriptor stays attachable for in-flight workers."""
        shared = SharedNDArray(np.arange(6, dtype=np.float64))
        descriptor = shared.descriptor
        shared.pin()
        shared.close()  # deferred: a pin is outstanding
        segment, view = attach_shared_array(descriptor)
        np.testing.assert_array_equal(view, np.arange(6.0))
        del view
        segment.close()
        shared.release()  # last pin gone -> the deferred close runs now
        with pytest.raises(FileNotFoundError):
            attach_shared_array(descriptor)

    def test_release_without_pending_close_keeps_the_segment(self):
        shared = SharedNDArray(np.ones(3))
        shared.pin()
        shared.release()
        segment, view = attach_shared_array(shared.descriptor)
        np.testing.assert_array_equal(view, np.ones(3))
        del view
        segment.close()
        shared.close()

    def test_workers_read_the_segment_without_pickling_it(self):
        payload = np.arange(10, dtype=np.float64)
        shared = SharedNDArray(payload)
        try:
            tasks = [(shared.descriptor, scale) for scale in (1.0, 2.0, 3.0)]
            sums = ProcessShardedExecutor(2).map(procjobs.shared_sum, tasks)
        finally:
            shared.close()
        assert sums == [45.0, 90.0, 135.0]


class TestProcessShardedExecutor:
    def test_workers_one_runs_inline_in_this_process(self):
        pids = ProcessShardedExecutor(1).map(procjobs.worker_pid, range(3))
        assert set(pids) == {os.getpid()}

    def test_single_item_runs_inline(self):
        assert ProcessShardedExecutor(4).map(procjobs.worker_pid, [0]) == [
            os.getpid()
        ]

    def test_map_runs_in_other_processes(self):
        pids = ProcessShardedExecutor(2).map(procjobs.worker_pid, range(4))
        assert os.getpid() not in pids

    def test_map_preserves_submission_order(self):
        # Reverse-staggered sleeps: later items complete first, so any
        # completion-order gather would return the list reversed.
        items = [(i, 0.02 * (4 - i)) for i in range(4)]
        assert ProcessShardedExecutor(4).map(procjobs.sleepy_index, items) == [
            0, 1, 2, 3,
        ]

    def test_map_computes(self):
        assert ProcessShardedExecutor(2).map(procjobs.square, [1, 2, 3]) == [
            1, 4, 9,
        ]

    def test_invalid_workers_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ProcessShardedExecutor(0)

    def test_dead_worker_does_not_poison_later_maps(self):
        """A worker that dies breaks its pool; the pool is evicted, so the
        next map -- from a fresh executor or the same one -- still runs."""
        executor = ProcessShardedExecutor(2)
        with pytest.raises(BrokenProcessPool):
            executor.map(procjobs.exit_worker, range(2))
        assert ProcessShardedExecutor(2).map(procjobs.square, [1, 2, 3]) == [1, 4, 9]
        assert executor.map(procjobs.square, [4, 5]) == [16, 25]

    def test_one_break_is_retried_on_a_fresh_pool(self, tmp_path):
        marker = str(tmp_path / "died")
        items = [(marker, index) for index in range(4)]
        assert ProcessShardedExecutor(2).map(procjobs.exit_once, items) == [0, 1, 2, 3]
        assert os.path.exists(marker)  # the first attempt did break

    def test_a_second_break_evicts_again_and_raises(self):
        with pytest.raises(BrokenProcessPool):
            ProcessShardedExecutor(2).map(procjobs.exit_worker, range(2))
        assert 2 not in parallel._PROC_POOLS
        assert ProcessShardedExecutor(2).map(procjobs.square, [3, 3]) == [9, 9]


def _shard_counts(workers, shards):
    """The OpenBLAS count each shard of a threaded map sees."""
    return ShardedExecutor(workers).map(lambda _: blas_thread_count(), range(shards))


@pytest.fixture
def openblas(monkeypatch):
    """numpy's OpenBLAS at a known count (4) on a pretend 4-core host.

    Skips when numpy was built against another BLAS; restores the
    original count afterwards.
    """
    original = blas_thread_count()
    if original is None:
        pytest.skip("numpy's bundled OpenBLAS not found: no BLAS thread budget")
    blas = parallel._openblas()
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    blas.set(4)
    try:
        yield blas
    finally:
        blas.set(original)


class TestBlasBudget:
    def test_budget_rule(self):
        assert shard_blas_threads(4, 2, 4) == 2
        assert shard_blas_threads(4, 3, 4) == 1
        assert shard_blas_threads(4, 8, 4) == 1  # never below one
        assert shard_blas_threads(1, 2, 8) == 1  # never above the saved count
        assert shard_blas_threads(16, 2, 8) == 4

    def test_shard_threads_run_on_the_budget(self, openblas):
        assert _shard_counts(2, 2) == [2, 2]
        assert _shard_counts(4, 4) == [1, 1, 1, 1]
        assert _shard_counts(4, 2) == [2, 2]  # two items fill two shards
        assert blas_thread_count() == 4

    def test_serial_maps_leave_the_count_alone(self, openblas):
        assert _shard_counts(1, 3) == [4, 4, 4]
        assert _shard_counts(4, 1) == [4]

    def test_spawn_workers_report_the_budget(self):
        default = blas_thread_count()
        if default is None:
            pytest.skip("numpy's bundled OpenBLAS not found: no BLAS thread budget")
        counts = ProcessShardedExecutor(2).map(procjobs.blas_threads, range(2))
        assert counts == [shard_blas_threads(default, 2, available_cores())] * 2
        assert blas_thread_count() == default

    def test_count_restored_after_the_map(self, openblas):
        _shard_counts(2, 2)
        assert blas_thread_count() == 4

    def test_count_restored_when_a_shard_raises(self, openblas):
        seen = []

        def shard(index):
            if index == 0:
                raise RuntimeError("shard failed")
            time.sleep(0.05)
            seen.append(blas_thread_count())

        with pytest.raises(RuntimeError, match="shard failed"):
            ShardedExecutor(2).map(shard, range(2))
        # The sibling finished on the budget before the count came back.
        assert seen == [2]
        assert blas_thread_count() == 4

    def test_lower_preset_count_is_never_raised(self, openblas):
        openblas.set(1)
        assert _shard_counts(2, 2) == [1, 1]
        assert blas_thread_count() == 1

    def test_overlapping_maps_restore_the_original_count(self, openblas):
        """Map A (4 shards, budget 1) enters first; map B (2 shards, budget
        2) overlaps it, must not raise A's count, and outlives it.  Only
        B's exit -- the last -- restores the original count."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {"a": [], "b": []}

        def a_shard(_):
            a_in.set()
            assert b_in.wait(10)
            seen["a"].append(blas_thread_count())

        def b_shard(_):
            b_in.set()
            assert a_out.wait(10)
            seen["b"].append(blas_thread_count())

        def run_b():
            assert a_in.wait(10)
            ShardedExecutor(2).map(b_shard, range(2))

        thread_a = threading.Thread(target=ShardedExecutor(4).map, args=(a_shard, range(4)))
        thread_b = threading.Thread(target=run_b)
        thread_a.start()
        thread_b.start()
        thread_a.join(10)
        assert not thread_a.is_alive()
        assert blas_thread_count() == 1  # B still runs: not restored yet
        a_out.set()
        thread_b.join(10)
        assert not thread_b.is_alive()
        assert seen == {"a": [1] * 4, "b": [1, 1]}
        assert blas_thread_count() == 4

    def test_concurrent_maps_stress(self, openblas):
        """Many overlapping maps of widths 2-4: no shard ever sees more
        than the widest budget (2 of the 4 saved threads), and the last
        exit restores the count (a lost depth update would restore early
        or never)."""
        seen, errors = [], []
        lock = threading.Lock()

        def shard(_):
            count = blas_thread_count()
            with lock:
                seen.append(count)

        def run_maps(width):
            try:
                for _ in range(20):
                    ShardedExecutor(width).map(shard, range(width))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run_maps, args=(2 + i % 3,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert seen and max(seen) <= 2
        assert blas_thread_count() == 4
