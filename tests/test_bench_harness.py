"""Unit tests for the benchmark harness's filtering and honesty layers."""

import pytest

from repro.bench import annotate_oversubscription, run_benchmarks
from repro.bench.kernels import measure_shard_blas_threads
from repro.utils.parallel import available_cores, blas_thread_count, shard_blas_threads


def _results(cpu_count, names):
    return {
        "meta": {"cpu_count": cpu_count},
        "kernels": {name: {"speedup": 1.0} for name in names},
    }


class TestAnnotateOversubscription:
    def test_flags_worker_entries_wider_than_the_machine(self):
        results = _results(2, ["ais_logz_784x500_float32_workers4"])
        flagged = annotate_oversubscription(results)
        assert flagged == ["ais_logz_784x500_float32_workers4"]
        assert results["kernels"][flagged[0]]["oversubscribed"] is True

    def test_leaves_fitting_worker_entries_alone(self):
        results = _results(8, ["substrate_settle_batch_p256_784x500_float32_workers4"])
        assert annotate_oversubscription(results) == []
        assert "oversubscribed" not in next(iter(results["kernels"].values()))

    def test_ignores_non_worker_entries(self):
        results = _results(1, ["gs_training_epoch_784x500_sparse", "ais_logz_49x32"])
        assert annotate_oversubscription(results) == []
        for row in results["kernels"].values():
            assert "oversubscribed" not in row

    def test_exact_width_is_not_oversubscribed(self):
        results = _results(4, ["ais_logz_784x500_float32_workers4"])
        assert annotate_oversubscription(results) == []

    def test_missing_cpu_count_is_a_no_op(self):
        results = {"meta": {}, "kernels": {"x_workers8": {"speedup": 1.0}}}
        assert annotate_oversubscription(results) == []

    def test_worker_suffix_must_terminate_the_name(self):
        results = _results(1, ["substrate_workers4_variant"])
        assert annotate_oversubscription(results) == []

    def test_flags_fitting_width_whose_shards_run_blas_threads(self):
        results = _results(2, ["substrate_settle_batch_p256_784x500_float32_workers2"])
        row = next(iter(results["kernels"].values()))
        row["blas_threads_per_shard"] = 2
        assert annotate_oversubscription(results) == [
            "substrate_settle_batch_p256_784x500_float32_workers2"
        ]
        assert row["oversubscribed"] is True

    def test_budgeted_shards_fit(self):
        results = _results(4, ["ais_logz_784x500_float32_procs2"])
        next(iter(results["kernels"].values()))["blas_threads_per_shard"] = 2
        assert annotate_oversubscription(results) == []

    def test_unmeasured_blas_threads_count_as_one(self):
        results = _results(2, ["ais_logz_784x500_float32_workers2"])
        next(iter(results["kernels"].values()))["blas_threads_per_shard"] = None
        assert annotate_oversubscription(results) == []


class TestShardBlasThreads:
    @pytest.mark.parametrize("name", ["x_workers2", "x_procs2"])
    def test_measures_the_budget_inside_the_shards(self, name):
        default = blas_thread_count()
        if default is None:
            pytest.skip("numpy's bundled OpenBLAS not found: no BLAS thread budget")
        expected = shard_blas_threads(default, 2, available_cores())
        assert measure_shard_blas_threads(name, 2) == expected

    def test_meta_records_the_default_count(self):
        results = run_benchmarks(repeats=1, include_large=False, only="cd1")
        assert results["meta"]["blas_threads"] == blas_thread_count()


class TestOnlyFilter:
    def test_only_restricts_to_matching_kernels(self):
        results = run_benchmarks(repeats=1, include_large=False, only="cd1")
        assert list(results["kernels"]) == ["cd1_training_epoch_49x32"]
        row = results["kernels"]["cd1_training_epoch_49x32"]
        assert row["legacy_median_s"] > 0 and row["fast_median_s"] > 0

    def test_only_with_no_match_raises(self):
        with pytest.raises(ValueError, match="matches no benchmark entries"):
            run_benchmarks(repeats=1, include_large=False, only="no-such-kernel")
