"""Tests for the workload layer: SPEC profiles, churn engine, pgbench,
and gRPC QPS."""

from __future__ import annotations

import pytest

from repro.alloc.quarantine import QuarantinePolicy
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigError
from repro.workloads import spec
from repro.workloads.churn import ChurnProfile, ChurnWorkload, SizeMix
from repro.workloads.grpc_qps import GrpcQpsWorkload, OUTSTANDING_PER_THREAD
from repro.workloads.pgbench import PgBenchWorkload


class TestSizeMix:
    def test_mean(self):
        mix = SizeMix((100, 200), (1.0, 1.0))
        assert mix.mean() == 150

    def test_sample_respects_support(self):
        import random

        mix = SizeMix((64, 256, 1024), (0.5, 0.3, 0.2))
        rng = random.Random(1)
        samples = {mix.sample(rng) for _ in range(500)}
        assert samples <= {64, 256, 1024}
        assert len(samples) == 3

    def test_sample_deterministic(self):
        import random

        mix = SizeMix((64, 256), (0.5, 0.5))
        a = [mix.sample(random.Random(42)) for _ in range(20)]
        b = [mix.sample(random.Random(42)) for _ in range(20)]
        assert a == b

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SizeMix((1, 2), (1.0,))


class TestSpecRegistry:
    def test_all_eight_benchmarks_present(self):
        assert set(spec.BENCHMARKS) == {
            "astar", "bzip2", "gobmk", "hmmer", "libquantum", "omnetpp",
            "sjeng", "xalancbmk",
        }

    def test_revoking_subset_excludes_bzip2_sjeng(self):
        assert "bzip2" not in spec.REVOKING_BENCHMARKS
        assert "sjeng" not in spec.REVOKING_BENCHMARKS

    def test_multi_input_benchmarks(self):
        assert spec.inputs_of("astar") == ["lakes", "rivers"]
        assert spec.inputs_of("hmmer") == ["nph3", "retro"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            spec.inputs_of("gcc")
        with pytest.raises(ConfigError):
            spec.workload("gcc")

    def test_unknown_input_rejected(self):
        with pytest.raises(ConfigError):
            spec.workload("astar", "mountains")

    def test_default_input_is_first(self):
        w = spec.workload("astar")
        assert w.name == "astar.lakes"

    def test_scale_divides_bytes(self):
        w1 = spec.workload("xalancbmk", scale=64)
        w2 = spec.workload("xalancbmk", scale=128)
        assert w1.profile.heap_bytes == 2 * w2.profile.heap_bytes
        assert w1.profile.churn_bytes == 2 * w2.profile.churn_bytes

    def test_policy_floor_scales(self):
        assert spec.scaled_policy(64).min_bytes == (8 << 20) // 64

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            spec.workload("astar", scale=0)

    def test_table2_rows_registered(self):
        for bench, inp in spec.TABLE2_ROWS:
            assert spec.workload(bench, inp, scale=1024) is not None


class TestChurnEngine:
    def run_churn(self, kind=RevokerKind.RELOADED, seed=1):
        profile = ChurnProfile(
            name="t",
            heap_bytes=64 << 10,
            churn_bytes=256 << 10,
            size_mix=SizeMix((64, 512), (0.7, 0.3)),
            pointer_slots=2,
            seed=seed,
        )
        w = ChurnWorkload(profile, QuarantinePolicy(min_bytes=16 << 10))
        sim = Simulation(w, SimulationConfig(revoker=kind))
        return w, sim, sim.run()

    def test_churn_reaches_target(self):
        w, sim, result = self.run_churn()
        assert sim.alloc.total_freed_bytes >= w.profile.churn_bytes

    def test_heap_stays_near_target(self):
        w, sim, _ = self.run_churn()
        # The churn loop frees and reallocates with random sizes, so the
        # live heap drifts around the target rather than pinning it.
        assert 0.6 * w.profile.heap_bytes <= sim.alloc.allocated_bytes
        assert sim.alloc.allocated_bytes <= 2 * w.profile.heap_bytes

    def test_deterministic_iteration_count(self):
        w1, _, _ = self.run_churn(seed=9)
        w2, _, _ = self.run_churn(seed=9)
        assert w1.iterations_run == w2.iterations_run

    def test_different_seed_different_trace(self):
        w1, _, _ = self.run_churn(seed=1)
        w2, _, _ = self.run_churn(seed=2)
        assert w1.iterations_run != w2.iterations_run

    def test_revocation_engages(self):
        _, sim, result = self.run_churn()
        assert result.revocations >= 1
        assert result.caps_revoked > 0

    def test_stale_loads_seen_under_revocation(self):
        w, _, _ = self.run_churn()
        assert w.stale_loads > 0

    def test_estimated_iterations_close(self):
        w, _, _ = self.run_churn()
        estimate = w.profile.iterations()
        assert 0.5 * estimate <= w.iterations_run <= 2 * estimate


class TestBenchmarkScaledRuns:
    """Tiny-scale smoke runs of representative SPEC surrogates."""

    @pytest.mark.parametrize("bench", ["gobmk", "hmmer"])
    def test_small_bench_runs_and_revokes(self, bench):
        w = spec.workload(bench, scale=1024)
        result = Simulation(w, SimulationConfig(revoker=RevokerKind.RELOADED)).run()
        assert result.wall_cycles > 0
        assert result.revocations >= 1

    def test_two_large_first_draws_still_churn(self):
        # Seed 2's first two hmmer draws are both 32 KiB, which alone
        # reach the 64 KiB heap floor at this scale. The build phase must
        # still leave enough objects for the churn phase to run.
        w = spec.workload("hmmer", "retro", scale=1024, seed=2)
        result = Simulation(w, SimulationConfig(revoker=RevokerKind.RELOADED)).run()
        assert w.iterations_run > 0
        assert result.revocations >= 1

    def test_bzip2_never_revokes(self):
        w = spec.workload("bzip2", "chicken", scale=1024)
        result = Simulation(w, SimulationConfig(revoker=RevokerKind.RELOADED)).run()
        assert result.revocations == 0

    def test_sjeng_never_revokes(self):
        w = spec.workload("sjeng", scale=1024)
        result = Simulation(w, SimulationConfig(revoker=RevokerKind.RELOADED)).run()
        assert result.revocations == 0


class TestPgBench:
    def run_pg(self, **kw):
        kw.setdefault("transactions", 150)
        kw.setdefault("scale", 16)
        w = PgBenchWorkload(**kw)
        sim = Simulation(w, SimulationConfig(revoker=RevokerKind.RELOADED))
        return w, sim.run()

    def test_records_one_latency_per_transaction(self):
        w, result = self.run_pg()
        assert len(result.latencies) == w.transactions
        assert w.completed == w.transactions

    def test_latencies_positive_and_plausible(self):
        _, result = self.run_pg()
        ms = [s.millis for s in result.latencies]
        assert all(m > 0 for m in ms)
        assert 0.5 < sorted(ms)[len(ms) // 2] < 50

    def test_server_idles_between_transactions(self):
        _, result = self.run_pg()
        assert result.app_cpu_cycles < result.wall_cycles

    def test_rate_mode_slows_throughput(self):
        _, serial = self.run_pg(transactions=100)
        _, paced = self.run_pg(transactions=100, rate_tps=50.0)
        assert paced.wall_cycles > serial.wall_cycles

    def test_rate_mode_latency_ignores_schedule_lag(self):
        w, result = self.run_pg(transactions=100, rate_tps=50.0)
        ms = [s.millis for s in result.latencies]
        # Latency is per-transaction work, not the 20 ms schedule interval.
        assert sorted(ms)[len(ms) // 2] < 15

    def test_revocation_engages(self):
        _, result = self.run_pg(transactions=300)
        assert result.revocations >= 1


class TestGrpcQps:
    def run_grpc(self, kind=RevokerKind.RELOADED):
        w = GrpcQpsWorkload(duration_seconds=0.2, scale=256)
        cfg = SimulationConfig(revoker=kind, revoker_core=2)
        sim = Simulation(w, cfg)
        return w, sim, sim.run()

    def test_two_server_threads(self):
        w, sim, _ = self.run_grpc()
        names = [t.name for t in sim.machine.scheduler.threads]
        assert "grpc-server-0" in names and "grpc-server-1" in names

    def test_completes_requests_on_both_threads(self):
        w, _, result = self.run_grpc()
        labels = {s.label for s in result.latencies}
        assert labels == {"rpc0", "rpc1"}
        assert w.completed > 2 * OUTSTANDING_PER_THREAD

    def test_closed_loop_latency_reflects_queue(self):
        w, _, result = self.run_grpc(kind=RevokerKind.NONE)
        lat = sorted(s.cycles for s in result.latencies)
        median = lat[len(lat) // 2]
        # With C outstanding and ~service-time pacing, the median latency
        # is roughly C x the median service gap.
        assert median > OUTSTANDING_PER_THREAD * 500_000

    def test_kernel_hoards_used(self):
        w, sim, _ = self.run_grpc()
        assert sim.kernel.hoards.total_caps() > 0

    def test_throughput_property(self):
        w, _, _ = self.run_grpc()
        assert w.throughput_qps > 0
