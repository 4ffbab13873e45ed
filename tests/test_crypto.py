import json

import numpy as np
import pytest

from puriscope import (
    Observable,
    ServerKind,
    ServerModel,
    child_rng,
    haar_unitary,
    run_blind_estimation,
    run_verification,
)
from puriscope.core import PAULI_X, PAULI_Z, pauli_on
from puriscope import crypto, measurement
from puriscope.crypto import write_transcript
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

    def test_rounds_draw_from_grid_snapped_probabilities(self, monkeypatch):
        calls = []

        def snapped(*args):
            calls.append(args)
            return measurement._born_on_grid(*args)

        monkeypatch.setattr(crypto, "_born_on_grid", snapped)
        res = run_blind_estimation(np.eye(4), Observable(pauli_on(2, 0, PAULI_Z)), 100, seed=3)
        assert len(calls) == 1 and res.client_estimate == 1.0

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
        res = run_blind_estimation(u, obs, 150, seed=9)
        assert res.reported.shape == res.b_bits.shape == (150,)
        assert set(res.reported.tolist()) <= {-1.0, 1.0} and set(res.b_bits.tolist()) <= {0, 1}
        kept = res.b_bits == 0
        assert res.kept_rounds == kept.sum() and res.keep_fraction == kept.mean()
        assert res.client_estimate == res.reported[kept].mean()
        assert res.all_rounds_mean == res.reported.mean()

    def test_result_and_transcript_json(self, tmp_path):
        u = haar_unitary(4, child_rng(116))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 150, seed=9)
        scalars = (
            "client_estimate", "truth", "all_rounds_mean", "all_rounds_truth", "keep_fraction",
            "rounds", "kept_rounds", "kept_std", "server_view_deviation",
        )
        assert res.to_json() == {name: getattr(res, name) for name in scalars}
        assert res.to_json()["rounds"] == 150
        path = tmp_path / "transcript.jsonl"
        write_transcript(path, res)
        last = path.read_text().splitlines()[-1]
        assert last == json.dumps(
            {
                "client_action": "transmit_state_and_measure_b",
                "client_side_data": int(res.b_bits[-1]),
                "round": 149,
                "server_report": float(res.reported[-1]),
            },
            sort_keys=True,
        )

    def test_round_floor(self):
        obs = Observable(PAULI_Z)
        with pytest.raises(DomainError):
            run_blind_estimation(np.eye(2), obs, 50, seed=10)

    def test_preparation_must_be_square_power_of_two(self):
        obs = Observable(PAULI_Z)
        for prep in (np.eye(1), np.eye(3), np.ones((4, 2))):
            with pytest.raises(DomainError, match="preparation unitary"):
                run_blind_estimation(prep, obs, 200, seed=10)

    def test_observable_must_match_payload(self):
        with pytest.raises(DomainError, match="does not match the payload"):
            run_blind_estimation(np.eye(4), Observable(PAULI_Z), 200, seed=10)

    def test_transcript_jsonl(self, tmp_path):
        u = haar_unitary(4, child_rng(118))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 120, seed=15)
        path = tmp_path / "transcript.jsonl"
        write_transcript(path, res)
        lines = path.read_text().splitlines()
        assert len(lines) == 120
        first = json.loads(lines[0])
        assert first["round"] == 0 and "server_report" in first

