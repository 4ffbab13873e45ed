"""Simulated client/server runs of the verification and blind-estimation protocols.

The server is a strategy object, not a network peer: the protocols are
information theoretic and the artifact's job is to check their statistics.
A blind-estimation result keeps each round's server report and client B
bit as arrays, and ``write_transcript`` writes them as one JSON object per
round, so audits can be replayed offline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .core import DensityMatrix, Observable, PureState, basis_state, partial_trace, trace_norm
from .ensembles import child_rng, verification_state, _haar_vector
from .errors import DomainError
from .measurement import _born_on_grid, tomography
from .baselines import single_copy_purity_attack

ALPHAS = (math.sqrt(0.9), math.sqrt(0.5))
TOLERANCE = 0.1
DISHONEST_REPORT = 0.66  # the purity a dishonest constant server always reports


class ServerKind(str, Enum):
    HONEST_UNBOUNDED = "honest_unbounded"
    SINGLE_COPY_LIMITED = "single_copy_limited"
    DISHONEST_CONSTANT = "dishonest_constant"


@dataclass(frozen=True)
class ServerModel:
    """Which estimator family the simulated server may call."""

    kind: ServerKind
    budget: int = 10_000  # shots of the single-copy server's purity attack


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
    reported: np.ndarray  # per round: the eigenvalue the server reports
    b_bits: np.ndarray  # per round: the client's B-qubit outcome; 0 keeps the round

    def to_json(self) -> dict:
        """The scalar fields; the per-round arrays go to ``write_transcript``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("reported", "b_bits")}


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
) -> BlindEstimationResult:
    """Blind observable estimation through post-selection on the B qubit.

    The server sees only the degenerate A marginal each round and reports
    its measured eigenvalue; the client keeps the report when its own
    B-qubit outcome is 0.  Kept rounds average to <psi|O|psi>, all rounds
    to Tr(O rho_A).
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
    probs = _born_on_grid(psi_joint, (*observable.basis, np.eye(2)))

    rng = child_rng(seed, 0)
    draws = rng.choice(2 * d, size=rounds, p=probs)
    obs_idx, b_bits = draws // 2, draws % 2
    reported = observable.eigenvalues[obs_idx]
    kept_mask = b_bits == 0

    kept = reported[kept_mask]
    all_mean = float(reported.mean())
    kept_mean = float(kept.mean()) if kept.size else float("nan")
    kept_std = float(kept.std(ddof=1)) if kept.size > 1 else 0.0
    truth = observable.expectation(psi[:, None], 1.0)
    all_truth = observable.expectation(np.column_stack([psi, psi_perp]), 0.5)
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
        reported=reported,
        b_bits=b_bits,
    )


def write_transcript(path, result: BlindEstimationResult) -> None:
    """Write a blind-estimation transcript as JSON lines, one object per round."""
    with open(path, "w") as handle:
        for r, (report, bit) in enumerate(zip(result.reported.tolist(), result.b_bits.tolist())):
            entry = {
                "client_action": "transmit_state_and_measure_b",
                "client_side_data": bit,
                "round": r,
                "server_report": report,
            }
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
