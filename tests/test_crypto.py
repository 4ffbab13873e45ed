import numpy as np
import pytest

from puriscope import (
    Observable,
    ServerKind,
    ServerModel,
    child_rng,
    haar_unitary,
    make_test_observables,
    run_blind_estimation,
    run_test_observable_audit,
    run_verification,
)
from puriscope.core import PAULI_X, PAULI_Z, pauli_on
from puriscope.errors import DomainError


class TestVerification:
    def test_honest_server_accepted(self):
        out = run_verification(4, ServerModel(ServerKind.HONEST_UNBOUNDED), 80, seed=1)
        assert out["acceptance"] >= 0.95

    def test_dishonest_constant_rejected(self):
        out = run_verification(4, ServerModel(ServerKind.DISHONEST_CONSTANT), 80, seed=2)
        assert out["acceptance"] <= 0.6

    def test_limited_server_below_honest_at_large_n(self):
        budget = 800
        honest = run_verification(
            8, ServerModel(ServerKind.HONEST_UNBOUNDED, budget), 60, seed=3
        )
        limited = run_verification(
            8, ServerModel(ServerKind.SINGLE_COPY_LIMITED, budget), 60, seed=3
        )
        assert limited["acceptance"] < honest["acceptance"]

    def test_reports_per_alpha(self):
        out = run_verification(3, ServerModel(ServerKind.HONEST_UNBOUNDED), 40, seed=4)
        assert len(out["acceptance_by_alpha"]) == 2

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            run_verification(1, ServerModel(ServerKind.HONEST_UNBOUNDED), 10, seed=5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_a_trial(self, trials):
        with pytest.raises(DomainError):
            run_verification(3, ServerModel(ServerKind.HONEST_UNBOUNDED), trials, seed=5)


class TestBlindEstimation:
    def test_identity_preparation(self):
        # Z on the entangled qubit: psi gives +1, the orthogonal branch -1.
        obs = Observable(pauli_on(3, 2, PAULI_Z))
        res = run_blind_estimation(np.eye(8), obs, 2000, seed=6)
        assert res.client_estimate == 1.0
        assert abs(res.all_rounds_mean) < 0.05
        assert abs(res.all_rounds_truth) < 1e-12

    def test_random_preparation(self):
        u = haar_unitary(16, child_rng(113))
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 10_000, seed=7)
        assert abs(res.client_estimate - res.truth) < 0.05
        assert abs(res.all_rounds_mean - res.all_rounds_truth) < 0.05
        assert abs(res.keep_fraction - 0.5) <= 0.02

    def test_fixed_seed_values(self):
        u = haar_unitary(8, child_rng(119))
        res = run_blind_estimation(u, Observable(pauli_on(3, 0, PAULI_Z)), 2000, seed=9)
        assert abs(res.client_estimate - 0.3745173745173745) < 1e-12
        assert abs(res.all_rounds_mean - 0.234) < 1e-12
        assert res.kept_rounds == 1036

    def test_blindness_of_server_view(self):
        u = haar_unitary(8, child_rng(114))
        obs = Observable(pauli_on(3, 1, PAULI_X))
        res = run_blind_estimation(u, obs, 500, seed=8)
        assert res.server_view_deviation < 1e-12

    def test_unbiased_over_many_runs(self):
        u = haar_unitary(4, child_rng(115))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        runs = [run_blind_estimation(u, obs, 200, seed=k) for k in range(200)]
        kept = np.array([r.client_estimate for r in runs])
        full = np.array([r.all_rounds_mean for r in runs])
        truth, all_truth = runs[0].truth, runs[0].all_rounds_truth
        assert abs(kept.mean() - truth) < 3 * kept.std(ddof=1) / np.sqrt(len(runs))
        assert abs(full.mean() - all_truth) < 3 * full.std(ddof=1) / np.sqrt(len(runs))

    def test_transcript_recording(self):
        u = haar_unitary(4, child_rng(116))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 150, seed=9, record_transcript=True)
        assert len(res.transcript) == 150
        rounds = [e.round for e in res.transcript]
        assert rounds == sorted(rounds)
        entry = res.transcript[0].to_json()
        assert set(entry) == {"round", "client_action", "server_report", "client_side_data"}

    def test_result_and_transcript_json(self):
        u = haar_unitary(4, child_rng(116))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 150, seed=9, record_transcript=True)
        scalars = (
            "client_estimate", "truth", "all_rounds_mean", "all_rounds_truth", "keep_fraction",
            "rounds", "kept_rounds", "kept_std", "server_view_deviation",
        )
        assert res.to_json() == {name: getattr(res, name) for name in scalars}
        assert res.to_json()["rounds"] == 150
        last = res.transcript[-1]
        assert last.to_json() == {
            "round": 149,
            "client_action": "transmit_state_and_measure_b",
            "server_report": last.server_report,
            "client_side_data": last.client_side_data,
        }
        assert last.server_report in (-1.0, 1.0) and last.client_side_data in (0, 1)

    def test_round_floor(self):
        obs = Observable(PAULI_Z)
        with pytest.raises(DomainError):
            run_blind_estimation(np.eye(2), obs, 50, seed=10)

    def test_transcript_jsonl(self, tmp_path):
        import json

        from puriscope.crypto import write_transcript

        u = haar_unitary(4, child_rng(118))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 120, seed=15, record_transcript=True)
        path = tmp_path / "transcript.jsonl"
        write_transcript(path, res.transcript)
        lines = path.read_text().splitlines()
        assert len(lines) == 120
        first = json.loads(lines[0])
        assert first["round"] == 0 and "server_report" in first


class TestAudit:
    def setup_method(self):
        self.u = haar_unitary(8, child_rng(117))
        self.targets = [Observable(pauli_on(3, 0, PAULI_Z))]
        # a mix of deterministic (rotated-Z) and fluctuating (rotated-X) checks
        self.tests = make_test_observables(
            self.u,
            [pauli_on(3, 0, PAULI_Z), pauli_on(3, 0, PAULI_X), pauli_on(3, 1, PAULI_X)],
        )

    def test_honest_server_passes(self):
        out = run_test_observable_audit(self.u, self.targets, self.tests, 10_000, seed=11)
        assert out["audit_pass"]

    def test_biased_server_fails(self):
        out = run_test_observable_audit(
            self.u, self.targets, self.tests, 10_000, seed=12, report_bias=0.2
        )
        assert not out["audit_pass"]

    def test_bias_detection_rate(self):
        hits = 0
        for k in range(20):
            out = run_test_observable_audit(
                self.u, self.targets, self.tests, 10_000, seed=100 + k, report_bias=0.1
            )
            hits += not out["audit_pass"]
        assert hits >= 19  # detects delta >= 0.1 with probability >= 0.95

    def test_verdict_only_covers_test_observables(self):
        # The audit is blind to target-only tampering by construction.
        out = run_test_observable_audit(self.u, self.targets, self.tests, 10_000, seed=13)
        test_rows = [r for r in out["per_observable"] if r["kind"] == "test"]
        assert out["audit_pass"] == all(r["pass"] for r in test_rows)

    def test_needs_test_observables(self):
        with pytest.raises(DomainError):
            run_test_observable_audit(self.u, self.targets, [], 10_000, seed=14)
