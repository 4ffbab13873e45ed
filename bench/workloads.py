"""The benchmark's workloads: what one op is, and how its result is checked.

Each workload is a fixed, interleaved cycle of op kinds.  An op kind
builds its inputs from ``(seed, key)`` only, calls the public API (or
the CLI) in ``call``, and grades the output in ``check`` against an
oracle written here, independent of the estimator's own linear algebra.
The library is always reached through the ``puriscope`` package and
module attributes at call time, so a :class:`tracing.Tracer` sees every
call.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import puriscope as ps
from puriscope.core import PAULI_X, PAULI_Z, pauli_on

ESTIMATOR_BUDGET = 20_000
ESTIMATOR_GATE = 0.1  # acceptance gate on a cell's mean |error| (CLI ERROR_GATE)
CHANNEL_GATE = 0.05  # acceptance gate for the channel estimators (criterion 7)
TRUTH_ATOL = 1e-9
RANK2_WEIGHTS = (2 / 3, 1 / 3)  # the CLI's default geometric weights at rank 2
CHANNEL_PCA_MIN_GAP = 0.2  # criterion 7 grades channel PCA only on gapped channels
DISTINGUISH_BUDGET = 1_600


@dataclass
class Outcome:
    """Checked result of one op."""

    values: tuple = ()  # the numbers a traced and an untraced run must reproduce bit for bit
    abs_error: Optional[float] = None
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OpKind:
    name: str
    make: Callable  # (seed, key) -> (call, check)
    gate: Optional[float] = None


def _trial_seed(seed: int, key: tuple) -> int:
    return int(ps.child_rng(seed, *key, 1).integers(2 ** 31))


def _finite(outcome: Outcome, **numbers: float) -> None:
    for name, number in numbers.items():
        if not math.isfinite(number):
            outcome.problems.append(f"{name} is not finite ({number})")


def _expect_close(outcome: Outcome, name: str, got: float, want: float, atol: float = TRUTH_ATOL):
    if not abs(got - want) <= atol:
        outcome.problems.append(f"{name} {got!r} differs from the oracle {want!r} by more than {atol}")


# -- purification estimators ----------------------------------------------

def _rank2_oracle(kind: str, hidden: dict, obs: np.ndarray) -> float:
    """Exact target from the sample's hidden weights and orthonormal components."""
    w = np.asarray(hidden["weights"], dtype=float)
    q = np.column_stack(hidden["components"])
    if kind == "moment":
        return float(np.sum(w ** 2))
    o = q.conj().T @ obs @ q  # o[j, k] = <q_j|O|q_k>
    if kind == "cooling":
        return float(np.sum(w ** 2 * o.diagonal().real))
    if kind == "pca":
        return float(o[int(np.argmax(w)), int(np.argmax(w))].real)
    num = (w[:, None] - w[None, :]) ** 2
    return float(2.0 * np.sum(num / (w[:, None] + w[None, :]) * np.abs(o) ** 2))


def estimator_kind(kind: str, nA: int) -> OpKind:
    """sample_ensemble (rank 2) -> purify(., 1) -> one estimator at a 2e4 budget."""
    spec = ps.EnsembleSpec(ps.EnsembleFamily.RANDOM_RANK_R, nA, rank=2, weights=RANK2_WEIGHTS)
    pauli = PAULI_X if kind == "qfi" else PAULI_Z

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            sample = ps.sample_ensemble(spec, ps.child_rng(seed, *key))
            psi = ps.purify(sample.rho, 1)
            if kind == "moment":
                budget = ps.ShotBudget(tomography_shots=ESTIMATOR_BUDGET)
                return sample, ps.estimate_moment(psi, 2, budget, trial_seed)
            obs = ps.Observable(pauli_on(nA, 0, pauli))
            budget = ps.ShotBudget.split(ESTIMATOR_BUDGET)
            if kind == "cooling":
                return sample, ps.estimate_virtual_cooling(psi, obs, 2, budget, trial_seed)
            if kind == "pca":
                return sample, ps.estimate_pca(psi, obs, budget, trial_seed)
            return sample, ps.estimate_qfi(psi, obs, budget, trial_seed)

        def check(out) -> Outcome:
            sample, report = out
            truth = _rank2_oracle(kind, sample.hidden, pauli_on(nA, 0, pauli))
            outcome = Outcome(values=(report.value, report.stderr), abs_error=abs(report.value - truth))
            _finite(outcome, value=report.value, stderr=report.stderr)
            _expect_close(outcome, "report.truth", report.truth, truth)
            return outcome

        return call, check

    return OpKind(f"{kind}/nA={nA}", make, ESTIMATOR_GATE)


# -- channel estimators ----------------------------------------------------

def _choi(kraus) -> np.ndarray:
    """Normalized Choi state sum_k vec(K) vec(K)^dag / d, rows of K vectorized."""
    d = kraus[0].shape[0]
    vecs = np.stack([np.asarray(k).reshape(-1) for k in kraus], axis=1)
    return vecs @ vecs.conj().T / d


def _apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Map with Choi state ``choi``: out[a, c] = d sum_{b,e} choi[(a,b),(c,e)] rho[b, e]."""
    d = rho.shape[0]
    return d * np.einsum("abce,be->ac", choi.reshape(d, d, d, d), rho)


def channel_kind(kind: str, n: int) -> OpKind:
    """random_channel (Choi rank 2) -> canonicalize -> one channel estimator.

    Budgets are criterion 7's: 1e4 tomography shots for unitarity, 5e4/5e4
    for distillation and 1e5/5e4 for channel PCA, which is drawn only on
    channels whose leading-weight gap is at least 0.2, the protocol's
    Theta(1)-gap precondition.
    """
    d = 2 ** n
    obs_matrix = pauli_on(n, 0, PAULI_Z)
    rho_in = np.zeros((d, d), dtype=complex)
    rho_in[0, 0] = 1.0

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            rng = ps.child_rng(seed, *key)
            for _ in range(64):
                channel = ps.random_channel(n, 2, rng)
                iso = ps.canonicalize(channel)
                if kind != "pca" or iso.weights[0] - iso.weights[1] >= CHANNEL_PCA_MIN_GAP:
                    break
            else:
                raise RuntimeError("no channel with the required weight gap in 64 draws")
            if kind == "unitarity":
                return channel, ps.unitarity_estimate(iso, ps.ShotBudget(tomography_shots=10_000), trial_seed)
            state = ps.DensityMatrix(rho_in, n)
            obs = ps.Observable(obs_matrix)
            if kind == "distill":
                budget = ps.ShotBudget(50_000, 50_000)
                return channel, ps.virtual_distillation_estimate(iso, state, obs, budget, trial_seed)
            budget = ps.ShotBudget(100_000, 50_000)
            return channel, ps.channel_pca_estimate(iso, state, obs, budget, trial_seed)

        def check(out) -> Outcome:
            channel, report = out
            choi = _choi(channel.kraus)
            if kind == "unitarity":
                truth = float(np.trace(choi @ choi).real)
            elif kind == "distill":
                truth = float(np.trace(obs_matrix @ _apply_choi(choi @ choi, rho_in)).real)
            else:
                w, v = np.linalg.eigh(choi)
                top = np.sqrt(d) * v[:, -1].reshape(d, d)
                truth = float(np.trace(obs_matrix @ top @ rho_in @ top.conj().T).real)
            outcome = Outcome(values=(report.value, report.stderr), abs_error=abs(report.value - truth))
            _finite(outcome, value=report.value, stderr=report.stderr)
            _expect_close(outcome, "report.truth", report.truth, truth)
            return outcome

        return call, check

    return OpKind(f"channel-{kind}/n={n}", make, CHANNEL_GATE)


# -- hidden-label trials and the comparison arms ---------------------------

_PAIRS = {
    "purity": ("PURITY_S1", "PURITY_S2"),
    "cooling": ("VC_PCA_S1", "VC_PCA_S2"),
    "fisher": ("FISHER_S1", "FISHER_S2"),
}


def distinguish_kind(task: str, n: int, strategy: str) -> OpKind:
    """One hidden-label trial; its success is reported, not gated."""
    fam_a, fam_b = (ps.EnsembleFamily[name] for name in _PAIRS[task])
    pair = (ps.EnsembleSpec(fam_a, n), ps.EnsembleSpec(fam_b, n))

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            return ps.distinguish_experiment(pair, strategy, DISTINGUISH_BUDGET, 1, trial_seed)

        def check(result) -> Outcome:
            outcome = Outcome(values=(result.success,), info={"success": result.success})
            if result.trials != 1 or result.success not in (0.0, 1.0):
                outcome.problems.append(f"one trial scored {result.success} over {result.trials} trials")
            return outcome

        return call, check

    return OpKind(f"distinguish-{task}/n={n}/{strategy}", make)


def swap_kind(n: int = 3, t: int = 3, shots: int = 10_000) -> OpKind:
    """Generalized SWAP test on a rank-2 state, graded against the hidden spectrum."""
    spec = ps.EnsembleSpec(ps.EnsembleFamily.RANDOM_RANK_R, n, rank=2, weights=RANK2_WEIGHTS)
    obs_matrix = pauli_on(n, 0, PAULI_Z)

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            sample = ps.sample_ensemble(spec, ps.child_rng(seed, *key))
            return sample, ps.swap_test_moment(sample.rho, ps.Observable(obs_matrix), t, shots, trial_seed)

        def check(out) -> Outcome:
            sample, report = out
            w = np.asarray(sample.hidden["weights"])
            q = np.column_stack(sample.hidden["components"])
            truth = float(np.sum(w ** t * np.einsum("ij,ik,kj->j", q.conj(), obs_matrix, q).real))
            outcome = Outcome(values=(report.value, report.stderr), abs_error=abs(report.value - truth))
            _finite(outcome, value=report.value, stderr=report.stderr)
            _expect_close(outcome, "report.truth", report.truth, truth)
            _expect_close(outcome, "exact_expectation", report.extras["exact_expectation"], truth)
            return outcome

        return call, check

    return OpKind(f"swap-test/n={n}/t={t}", make)


def verification_kind(n: int = 6) -> OpKind:
    """One verification trial against a single-copy-limited server."""
    server = ps.ServerModel(ps.ServerKind.SINGLE_COPY_LIMITED)

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            return ps.run_verification(n, server, 1, trial_seed)

        def check(result) -> Outcome:
            rate = result["acceptance"]
            outcome = Outcome(values=(rate,), info={"success": rate})
            if rate not in (0.0, 1.0):
                outcome.problems.append(f"one trial has acceptance {rate}")
            return outcome

        return call, check

    return OpKind(f"crypto-verify/n={n}", make)


def blind_kind(n: int = 4, rounds: int = 10_000) -> OpKind:
    """Blind estimation of Z on qubit 0 of U|0...0> for a Haar-random U."""
    obs_matrix = pauli_on(n, 0, PAULI_Z)

    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)

        def call():
            u = ps.haar_unitary(2 ** n, ps.child_rng(seed, *key))
            return u, ps.run_blind_estimation(u, ps.Observable(obs_matrix), rounds, trial_seed)

        def check(out) -> Outcome:
            u, result = out
            col = u[:, 0]
            truth = float((col.conj() @ obs_matrix @ col).real)
            outcome = Outcome(values=(result.client_estimate,), abs_error=abs(result.client_estimate - truth))
            _finite(outcome, client_estimate=result.client_estimate)
            _expect_close(outcome, "truth", result.truth, truth)
            if not result.server_view_deviation <= 1e-12:
                outcome.problems.append(f"server view deviates by {result.server_view_deviation}")
            return outcome

        return call, check

    return OpKind(f"crypto-blind/n={n}", make)


# -- child-process runs of the CLI -----------------------------------------

@dataclass
class CliStats:
    """Per-invocation accounting of the CLI child processes."""

    invocations: int = 0
    nonzero_exits: int = 0
    child_cpu_s: float = 0.0
    wall_s: float = 0.0
    result_bytes: int = 0
    maxrss_kb: int = 0

    def add(self, stats: "CliStats") -> None:
        self.invocations += stats.invocations
        self.nonzero_exits += stats.nonzero_exits
        self.child_cpu_s += stats.child_cpu_s
        self.wall_s += stats.wall_s
        self.result_bytes += stats.result_bytes
        self.maxrss_kb = max(self.maxrss_kb, stats.maxrss_kb)


CLI_TIMEOUT_S = 60.0


def run_cli(argv: list, workdir: Path) -> tuple[int, CliStats, str]:
    """Run ``python -m puriscope.cli`` in its own session and account for it.

    The child keeps the caller's environment, with the imported
    package's source directory on ``PYTHONPATH``, and the CLI's default
    ``--jobs`` unless ``argv`` sets it.  ``os.wait4`` returns the child's
    CPU time and peak RSS including its waited-for pool workers; on
    timeout the whole process group is killed and reaped.  Returns the
    exit code, the accounting and the last line of standard error.
    """
    env = dict(os.environ)
    source = str(Path(ps.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "puriscope.cli", *argv]
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        deadline = start + CLI_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr_tail = (err.read().decode(errors="replace").strip().splitlines() or [""])[-1]
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stats = CliStats(
        invocations=1,
        nonzero_exits=int(code != 0),
        child_cpu_s=usage.ru_utime + usage.ru_stime,
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
    )
    return code, stats, stderr_tail


def cli_kind(experiment: str, n: int, trials: int, workdir: Path, extra: tuple = ()) -> OpKind:
    def make(seed: int, key: tuple):
        trial_seed = _trial_seed(seed, key)
        out_path = workdir / f"{experiment}-{'-'.join(map(str, key))}.json"
        argv = [experiment, "--n", str(n), "--trials", str(trials), "--seed", str(trial_seed), "--out", str(out_path), *extra]

        def call():
            return run_cli(argv, workdir)

        def check(out) -> Outcome:
            code, invocation, stderr_tail = out
            outcome = Outcome(info={"cli": invocation})
            if out_path.exists():
                invocation.result_bytes = out_path.stat().st_size
                payload = json.loads(out_path.read_text())
                out_path.unlink()
            else:
                payload = {"summary": {"pass": False}, "results": []}
            rows = payload["results"]
            outcome.values = tuple(row["value"] for row in rows)
            if code != 0:
                outcome.problems.append(f"exit code {code}: {stderr_tail}")
            if not payload["summary"]["pass"]:
                outcome.problems.append("summary.pass is false")
            if len(rows) != trials:
                outcome.problems.append(f"{len(rows)} result rows for {trials} trials")
            _finite(outcome, **{f"value[{i}]": float(v) for i, v in enumerate(outcome.values)})
            return outcome

        return call, check

    return OpKind(" ".join([f"cli-{experiment}/n={n}/trials={trials}", *extra]), make)


# -- the workloads ---------------------------------------------------------

@dataclass
class Workload:
    name: str
    kinds: list
    cycle_s: float  # nominal seconds per cycle, fixes the traced pass size


def build(name: str, workdir: Path) -> Workload:
    """Workload by name.  ``workdir`` is a scratch directory inside the checkout.

    Two workloads, one each side of the dense stage-2 measurement: every
    op of ``small-payload`` bypasses it, and ``large-payload`` is
    dominated by it.  The hidden-label trials and comparison arms ride
    in ``small-payload`` and the CLI runs in ``large-payload``, so that
    each run is long enough to average over the machine's slow phases.
    """
    if name == "small-payload":
        kinds = [estimator_kind(kind, nA) for nA in (2, 3, 4) for kind in ("moment", "cooling", "pca", "qfi")]
        kinds += [channel_kind(kind, n) for n in (1, 2) for kind in ("unitarity", "distill", "pca")]
        kinds += [
            distinguish_kind(task, n, strategy)
            for task, sizes in (("purity", (4, 8)), ("cooling", (4, 5)), ("fisher", (4, 5)))
            for n in sizes
            for strategy in ("purification", "single_copy")
        ]
        kinds += [swap_kind(), verification_kind(), blind_kind()]
        return Workload(name, kinds, cycle_s=1.8)
    if name == "large-payload":
        kinds = [estimator_kind(kind, 8) for kind in ("moment", "cooling", "pca", "qfi")]
        kinds += [cli_kind("qfi", 8, 1, workdir, ("--jobs", "1")), cli_kind("moment", 3, 8, workdir)]
        return Workload(name, kinds, cycle_s=3.5)
    raise KeyError(name)
