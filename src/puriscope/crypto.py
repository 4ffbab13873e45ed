"""Simulated client/server runs of the verification and blind-estimation protocols.

The server is a strategy object, not a network peer: the protocols are
information theoretic and the artifact's job is to check their statistics.
Each round's transcript entry is recorded in order and serializes to one
JSON object, so audits can be replayed offline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import DensityMatrix, Observable, PureState, basis_state, partial_trace, trace_norm
from .ensembles import child_rng, verification_state, _haar_vector
from .errors import DomainError
from .measurement import born_probabilities, tomography
from .baselines import single_copy_purity_attack

ALPHAS = (math.sqrt(0.9), math.sqrt(0.5))
TOLERANCE = 0.1
DISHONEST_REPORT = 0.66  # the purity a dishonest constant server always reports
AUDIT_Z_THRESHOLD = 3.0


class ServerKind(str, Enum):
    HONEST_UNBOUNDED = "honest_unbounded"
    SINGLE_COPY_LIMITED = "single_copy_limited"
    DISHONEST_CONSTANT = "dishonest_constant"


@dataclass(frozen=True)
class ServerModel:
    """Which estimator family the simulated server may call."""

    kind: ServerKind
    budget: int = 10_000  # shots of the single-copy server's purity attack


@dataclass
class TranscriptEntry:
    round: int
    client_action: str
    server_report: Optional[float] = None
    client_side_data: Optional[int] = None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def run_verification(
    n: int,
    server: ServerModel,
    trials: int,
    seed: int,
    *,
    client_shots: int = 10_000,
) -> dict:
    """Purity-based capability check of a server holding only the A system.

    Per trial the client prepares the branch state for a random alpha,
    hands the mixed A marginal to the server model, estimates the purity
    itself from the single B qubit, and accepts when the two reports agree
    within the tolerance (half the gap between the two alpha branches).
    """
    if n < 2:
        raise DomainError("verification needs n >= 2 payload qubits")
    if trials < 1:
        raise DomainError(f"verification needs at least one trial, got {trials}")
    accepted = 0
    by_alpha = {round(a, 6): [0, 0] for a in ALPHAS}
    for trial in range(trials):
        rng = child_rng(seed, trial)
        alpha = float(ALPHAS[int(rng.integers(2))])
        u = _haar_vector(2 ** n, rng)
        v = _haar_vector(2 ** n, rng)
        psi = verification_state(alpha, u, v)
        rho_b = partial_trace(psi, "B")
        true_purity = rho_b.purity()

        if server.kind is ServerKind.HONEST_UNBOUNDED:
            # Unbounded joint measurements resolve the purity exactly; the
            # infinite-shot SWAP-test value is the oracle itself.
            report = true_purity
        elif server.kind is ServerKind.SINGLE_COPY_LIMITED:
            rho_a = DensityMatrix.from_columns(psi.as_matrix(), n)
            report = single_copy_purity_attack(
                rho_a, server.budget, int(rng.integers(2 ** 31))
            ).value
        else:
            report = DISHONEST_REPORT

        client = tomography(rho_b, client_shots, rng).estimate.purity()
        ok = abs(report - client) <= TOLERANCE
        accepted += ok
        stats = by_alpha[round(alpha, 6)]
        stats[0] += ok
        stats[1] += 1

    return {
        "n": n,
        "server": server.kind.value,
        "trials": trials,
        "acceptance": accepted / trials,
        "acceptance_by_alpha": {
            str(a): (s[0] / s[1] if s[1] else None) for a, s in by_alpha.items()
        },
        "tolerance": TOLERANCE,
    }


@dataclass
class BlindEstimationResult:
    client_estimate: float
    truth: float
    all_rounds_mean: float
    all_rounds_truth: float
    keep_fraction: float
    rounds: int
    kept_rounds: int
    kept_std: float
    server_view_deviation: float
    transcript: list[TranscriptEntry] = field(default_factory=list)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "transcript"}


def _blind_joint_state(prep_unitary: np.ndarray) -> tuple[PureState, np.ndarray, np.ndarray]:
    """Entangle the last payload qubit with the single B qubit, then evolve A.

    Produces (|psi>|0>_B + |psi_perp>|1>_B)/sqrt(2) with |psi> = U|0...0>
    and |psi_perp> = U|0...01>.
    """
    u = np.asarray(prep_unitary, dtype=complex)
    d = u.shape[0]
    n = int(np.log2(d))
    if 2 ** n != d or u.shape != (d, d):
        raise DomainError("preparation unitary must be square with power-of-two dimension")
    psi = u @ basis_state(n, 0)
    psi_perp = u @ basis_state(n, 1)
    amps = np.zeros(2 * d, dtype=complex)
    amps[0::2] = psi / math.sqrt(2)
    amps[1::2] = psi_perp / math.sqrt(2)
    return PureState(amps, n, 1), psi, psi_perp


def run_blind_estimation(
    prep_unitary: np.ndarray,
    observable: Observable,
    rounds: int,
    seed: int,
    *,
    report_bias: float = 0.0,
    record_transcript: bool = False,
) -> BlindEstimationResult:
    """Blind observable estimation through post-selection on the B qubit.

    The server sees only the degenerate A marginal each round and reports
    its measured eigenvalue (plus an optional dishonest bias); the client
    keeps the report when its own B-qubit outcome is 0.  Kept rounds
    average to <psi|O|psi>, all rounds to Tr(O rho_A).
    """
    if rounds < 100:
        raise DomainError("blind estimation needs at least 100 rounds")
    psi_joint, psi, psi_perp = _blind_joint_state(prep_unitary)
    d = 2 ** psi_joint.nA
    if observable.dim != d:
        raise DomainError("observable dimension does not match the payload")

    # The state object handed to the server is fixed before any client
    # measurement: its view is exactly the two-branch mixture, with no
    # dependence on the later keep/discard decision.
    server_view = partial_trace(psi_joint, "A")
    mixture = 0.5 * (np.outer(psi, psi.conj()) + np.outer(psi_perp, psi_perp.conj()))
    view_deviation = trace_norm(server_view.matrix - mixture)

    # outcome index = 2 * (observable eigen-index) + B bit
    probs = born_probabilities(psi_joint, (*observable.basis, np.eye(2)))

    rng = child_rng(seed, 0)
    draws = rng.choice(2 * d, size=rounds, p=probs)
    obs_idx, b_bits = draws // 2, draws % 2
    reported = observable.eigenvalues[obs_idx] + report_bias
    kept_mask = b_bits == 0

    kept = reported[kept_mask]
    all_mean = float(reported.mean())
    kept_mean = float(kept.mean()) if kept.size else float("nan")
    kept_std = float(kept.std(ddof=1)) if kept.size > 1 else 0.0
    truth = observable.expectation(psi[:, None], 1.0)
    all_truth = observable.expectation(np.column_stack([psi, psi_perp]), 0.5)

    transcript = []
    if record_transcript:
        for r in range(rounds):
            transcript.append(
                TranscriptEntry(
                    round=r,
                    client_action="transmit_state_and_measure_b",
                    server_report=float(reported[r]),
                    client_side_data=int(b_bits[r]),
                )
            )
    return BlindEstimationResult(
        client_estimate=kept_mean,
        truth=truth,
        all_rounds_mean=all_mean,
        all_rounds_truth=all_truth,
        keep_fraction=float(kept_mask.mean()),
        rounds=rounds,
        kept_rounds=int(kept_mask.sum()),
        kept_std=kept_std,
        server_view_deviation=view_deviation,
        transcript=transcript,
    )


def write_transcript(path, entries: Sequence[TranscriptEntry]) -> None:
    """Serialize a protocol transcript as JSON lines, one entry per round."""
    with open(path, "w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")


def make_test_observables(prep_unitary: np.ndarray, paulis: Sequence[np.ndarray]) -> list[tuple[Observable, float]]:
    """Test observables U P U^dag with client-known expectations <0...0|P|0...0>."""
    u = np.asarray(prep_unitary, dtype=complex)
    out = []
    for p in paulis:
        obs = Observable(u @ np.asarray(p, dtype=complex) @ u.conj().T)
        known = float(np.real(p[0, 0]))
        out.append((obs, known))
    return out


def run_test_observable_audit(
    prep_unitary: np.ndarray,
    target_observables: Sequence[Observable],
    test_observables: Sequence[tuple[Observable, float]],
    rounds: int,
    seed: int,
    *,
    report_bias: float = 0.0,
) -> dict:
    """Cross-check server honesty on observables with known expectations.

    Rounds split evenly across targets and tests; the audit passes when
    every test observable's kept-round mean sits within ``AUDIT_Z_THRESHOLD``
    standard errors of its known value.  Tampering limited to the target
    observables is invisible here, by design.
    """
    all_obs = list(target_observables) + [obs for obs, _ in test_observables]
    if not test_observables:
        raise DomainError("the audit needs at least one test observable")
    per = rounds // len(all_obs)
    if per < 100:
        raise DomainError("too few rounds per observable (need >= 100)")

    rows = []
    for i, (obs, known) in enumerate(test_observables):
        result = run_blind_estimation(
            prep_unitary, obs, per, seed + 1000 + i, report_bias=report_bias
        )
        kept = max(result.kept_rounds, 1)
        se = max(result.kept_std / math.sqrt(kept), 1e-6 * max(obs.spectral_norm, 1.0))
        z = abs(result.client_estimate - known) / se
        rows.append(
            {"kind": "test", "known": known, "estimate": result.client_estimate, "z": z,
             "pass": z <= AUDIT_Z_THRESHOLD}
        )
    for i, obs in enumerate(target_observables):
        result = run_blind_estimation(
            prep_unitary, obs, per, seed + 2000 + i, report_bias=report_bias
        )
        rows.append({"kind": "target", "estimate": result.client_estimate, "truth": result.truth})
    return {
        "audit_pass": all(row["pass"] for row in rows if row["kind"] == "test"),
        "per_observable": rows,
        "rounds_per_observable": per,
        "bias": report_bias,
    }
