"""Calibration profiles: persistence, fingerprint gating, model construction.

The contract: a persisted profile round-trips losslessly; a profile from a
different host or an older schema must *never* steer the cost model (warn,
fall back to the hand-set defaults); a partial profile merges over the
defaults into a complete model; the harness itself produces a usable
profile on any host; and no profile steers which lane a replay runs on.
"""

import json
import time
import warnings

import numpy as np
import pytest

from repro.calibrate import (
    KERNEL_KINDS,
    PROFILE_VERSION,
    CalibrationError,
    CalibrationProfile,
    host_fingerprint,
    kernel_microbench_circuit,
    load_calibrated_model,
    run_calibration,
)
from repro.simulator.cost_model import DEFAULT_KERNEL_COST_FACTORS, SimulationCostModel
from repro.exec.backend import LocalBackend
from repro.simulator.execution_plan import DEFAULT_CHUNK_THRESHOLD, compile_plan


def created_days_ago(days: float) -> str:
    return time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() - days * 86400.0)
    )


def make_profile(**overrides) -> CalibrationProfile:
    base = dict(
        created=created_days_ago(0),
        seconds_per_unit=2.5e-9,
        kernel_cost_factors={"single": 1.0, "diagonal": 0.3, "dense": 1.4},
        plan_step_dispatch_cost=40.0,
        seconds_per_clifford_gate=3e-6,
        measurements={"quick": True},
    )
    base.update(overrides)
    return CalibrationProfile(**base)


class TestPersistence:
    def test_round_trip_preserves_every_field(self, tmp_path):
        profile = make_profile()
        target = profile.save(tmp_path / "cal.json")
        loaded = CalibrationProfile.load(target)
        assert loaded == profile

    def test_save_creates_parent_directories(self, tmp_path):
        target = make_profile().save(tmp_path / "deep" / "nested" / "cal.json")
        assert target.exists()

    def test_stale_schema_version_is_rejected(self, tmp_path):
        target = make_profile(version=PROFILE_VERSION + 1).save(tmp_path / "cal.json")
        with pytest.raises(CalibrationError, match="schema version"):
            CalibrationProfile.load(target)

    def test_malformed_json_is_rejected_typed(self, tmp_path):
        target = tmp_path / "cal.json"
        target.write_text("{not json")
        with pytest.raises(CalibrationError, match="malformed"):
            CalibrationProfile.load(target)

    def test_unknown_keys_are_ignored_for_forward_compat(self, tmp_path):
        target = make_profile().save(tmp_path / "cal.json")
        payload = json.loads(target.read_text())
        payload["some_future_field"] = {"x": 1}
        # Lane-pricing fields older version-1 builds wrote.
        payload["chunk_threshold"] = 1 << 14
        payload["kernel_parallel_efficiency"] = {"single": 0.9}
        target.write_text(json.dumps(payload))
        loaded = CalibrationProfile.load(target)
        assert loaded.seconds_per_unit == pytest.approx(2.5e-9)


#: Lane-pricing fields version-1 profiles carried before the lane rule was
#: fixed to the plan's measured chunk threshold, with values they recorded.
RETIRED_PROFILE_FIELDS = {
    "kernel_parallel_efficiency": {"single": 0.9},
    "kernel_process_efficiency": {"dense": 0.5},
    "shm_step_barrier_cost": 75.0,
    "sharded_dispatch_cost": 1e5,
    "chunk_threshold": 1 << 14,
    "recommended_threads": 4,
    "recommended_shm_workers": 2,
}


class TestLoadCalibratedModel:
    @pytest.mark.parametrize("field", sorted(RETIRED_PROFILE_FIELDS))
    def test_retired_lane_pricing_field_loads_and_steers_nothing(self, tmp_path, field):
        current = make_profile().save(tmp_path / "current.json")
        payload = json.loads(current.read_text())
        payload[field] = RETIRED_PROFILE_FIELDS[field]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_calibrated_model(old)
        assert model == load_calibrated_model(current)
        assert model != SimulationCostModel()

    def test_matching_profile_steers_the_model(self, tmp_path):
        target = make_profile().save(tmp_path / "cal.json")
        model = load_calibrated_model(target)
        assert model.plan_step_dispatch_cost == 40.0
        assert model.seconds_per_clifford_gate == 3e-6
        assert model.kernel_cost_factors["diagonal"] == 0.3

    def test_missing_file_falls_back_silently(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_calibrated_model(tmp_path / "absent.json")
        assert model == SimulationCostModel()

    def test_fingerprint_mismatch_warns_and_keeps_defaults(self, tmp_path):
        foreign = dict(host_fingerprint())
        foreign["cpu_count"] = (foreign["cpu_count"] or 1) + 64
        target = make_profile(fingerprint=foreign).save(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning, match="different host"):
            model = load_calibrated_model(target)
        assert model == SimulationCostModel()

    def test_stale_version_warns_and_keeps_defaults(self, tmp_path):
        target = make_profile(version=PROFILE_VERSION + 3).save(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning, match="schema version"):
            model = load_calibrated_model(target)
        assert model == SimulationCostModel()

    def test_malformed_file_warns_and_keeps_defaults(self, tmp_path):
        target = tmp_path / "cal.json"
        target.write_text("not json at all")
        with pytest.warns(RuntimeWarning, match="ignoring calibration profile"):
            model = load_calibrated_model(target)
        assert model == SimulationCostModel()


class TestProfileTTL:
    def test_stale_profile_warns_with_age_and_keeps_defaults(self, tmp_path):
        target = make_profile(created=created_days_ago(45)).save(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning, match=r"45\.0 days old"):
            model = load_calibrated_model(target)
        assert model == SimulationCostModel()

    def test_fresh_profile_loads_silently(self, tmp_path):
        import warnings

        target = make_profile(created=created_days_ago(5)).save(tmp_path / "cal.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_calibrated_model(target)
        assert model.plan_step_dispatch_cost == 40.0

    def test_custom_max_age_tightens_the_ttl(self, tmp_path):
        target = make_profile(created=created_days_ago(5)).save(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning, match="max 2"):
            model = load_calibrated_model(target, max_age_days=2.0)
        assert model == SimulationCostModel()

    def test_undated_profile_skips_the_age_check(self, tmp_path):
        import warnings

        target = make_profile(created="").save(tmp_path / "cal.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_calibrated_model(target)
        assert model.plan_step_dispatch_cost == 40.0

    def test_age_days_reports_elapsed_time(self):
        assert make_profile(created=created_days_ago(10)).age_days() == pytest.approx(
            10.0, abs=0.1
        )
        assert make_profile(created="").age_days() is None
        assert make_profile(created="not-a-date").age_days() is None

    def test_cli_show_prints_age(self, tmp_path, capsys):
        from repro.calibrate.__main__ import main

        target = make_profile(created=created_days_ago(3)).save(tmp_path / "cal.json")
        assert main(["--show", "--output", str(target)]) == 0
        captured = capsys.readouterr()
        assert "profile age: 3.0 days" in captured.err
        assert json.loads(captured.out)["plan_step_dispatch_cost"] == 40.0


class TestFromProfile:
    def test_partial_profile_merges_over_defaults(self):
        profile = make_profile(
            kernel_cost_factors={"dense": 9.9},
            plan_step_dispatch_cost=None,
        )
        model = SimulationCostModel.from_profile(profile)
        # Measured constants land...
        assert model.kernel_cost_factors["dense"] == 9.9
        assert model.seconds_per_clifford_gate == 3e-6
        # ...unmeasured ones keep their hand-set defaults.
        assert model.kernel_cost_factors["reset"] == DEFAULT_KERNEL_COST_FACTORS["reset"]
        defaults = SimulationCostModel()
        assert model.plan_step_dispatch_cost == defaults.plan_step_dispatch_cost

    def test_empty_profile_is_the_default_model(self):
        model = SimulationCostModel.from_profile(CalibrationProfile())
        assert model == SimulationCostModel()


class TestHarness:
    def test_quick_calibration_measures_serial_factors(self, tmp_path):
        profile = run_calibration(quick=True, profile_path=tmp_path / "cal.json")
        assert profile.matches_host()
        assert profile.seconds_per_unit is not None and profile.seconds_per_unit > 0
        assert profile.kernel_cost_factors["single"] == 1.0
        assert set(profile.kernel_cost_factors) == set(KERNEL_KINDS)
        assert all(f > 0 for f in profile.kernel_cost_factors.values())
        # The persisted profile reconstructs an equivalent model.
        model = load_calibrated_model(tmp_path / "cal.json")
        assert model.kernel_cost_factors["dense"] == profile.kernel_cost_factors["dense"]

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_microbench_circuits_lower_to_their_own_kernel(self, kind):
        # Gate for gate (fusion_max_qubits=0): with layer fusion on, the
        # "single" circuit's RX layers would lower to contiguous-window
        # blocks — which is exactly what the "block" kind measures.
        plan = compile_plan(
            kernel_microbench_circuit(kind, 6), 6,
            optimize=False, batch_diagonals=False,
            fusion_max_qubits=2 if kind == "block" else 0,
        )
        kernels = {step.kernel for step in plan.steps}
        assert kernels == {kind}


class _StubPool:
    """Stands in for a configured shm pool; counts what routing asks it."""

    def __init__(self, replays: bool = True):
        self.replays = replays
        self.asked = 0

    def can_replay(self, plan) -> bool:
        self.asked += 1
        return self.replays


class TestLaneSelection:
    """No calibrated model picks the lane any more: one fixed rule on the
    plan's measured ``chunk_threshold`` routes every replay (serial below it;
    above it the shm pool when it can take the plan, the engine otherwise)."""

    def _plan(self, n=8, steps=6, chunk_threshold=None):
        from repro.ir.builder import CircuitBuilder

        builder = CircuitBuilder(n, name=f"lane-{n}-{steps}")
        for i in range(steps):
            builder.rx(i % n, 0.1 + 0.01 * i)  # non-cancelling: plan keeps every step
        return compile_plan(
            builder.build(), n, optimize=False, chunk_threshold=chunk_threshold
        )

    def test_serial_host_chooses_serial(self):
        from repro.simulator.parallel_engine import ParallelSimulationEngine

        # Below the crossover the replay is serial however many threads
        # the engine has.
        for threads in (1, 4):
            with ParallelSimulationEngine(num_threads=threads) as engine:
                backend = LocalBackend(engine=engine, shm_pool=_StubPool())
                assert backend._replay_pool(self._plan()) is None

    def test_lane_costs_only_lists_viable_lanes(self):
        plan = self._plan(n=4, chunk_threshold=2)
        refusing = _StubPool(replays=False)
        backend = LocalBackend(shm_pool=refusing)
        try:
            # A pool that cannot hold the plan is not a lane for it.
            assert backend._replay_pool(plan) is backend.engine
            assert refusing.asked == 1
        finally:
            backend.close()

    def test_threads_win_on_large_states(self):
        plan = self._plan(n=21, steps=2)
        assert plan.chunk_threshold == DEFAULT_CHUNK_THRESHOLD == 1 << 21
        backend = LocalBackend()
        try:
            assert backend._replay_pool(plan) is backend.engine
            assert backend._replay_pool(self._plan(n=20, steps=2)) is None
        finally:
            backend.close()

    def test_barrier_cost_keeps_shm_off_small_states(self):
        pool = _StubPool()
        backend = LocalBackend(shm_pool=pool)
        try:
            assert backend._replay_pool(self._plan(n=20, steps=2)) is None
            assert pool.asked == 0  # the pool is not even consulted
            assert backend._replay_pool(self._plan(n=21, steps=2)) is pool
        finally:
            backend.close()

    def test_choice_is_deterministic(self):
        plan = self._plan(n=10, steps=12, chunk_threshold=256)
        backend = LocalBackend(shm_pool=_StubPool())
        try:
            choices = {id(backend._replay_pool(plan)) for _ in range(20)}
        finally:
            backend.close()
        assert choices == {id(backend.shm_pool)}


class TestFingerprint:
    def test_fingerprint_identifies_this_host(self):
        fp = host_fingerprint()
        assert fp["cpu_count"] >= 1
        assert fp["numpy"] == np.__version__
        assert CalibrationProfile().matches_host()
