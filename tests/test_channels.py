import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    Observable,
    QuantumChannel,
    ShotBudget,
    StinespringIsometry,
    amplitude_damping_channel,
    canonicalize,
    channel_pca_estimate,
    child_rng,
    depolarizing_channel,
    haar_unitary,
    random_channel,
    unitarity_estimate,
    unitary_channel,
    virtual_distillation_estimate,
)
from puriscope.channels import maximally_mixed
from puriscope.core import PAULI_X, PAULI_Z, pauli_on, trace_norm
from puriscope.errors import DomainError, GapError, GuardError, ValidationError
from puriscope.measurement import measure_observable_with_stderr, tomography


def hermitian_basis(d):
    """Hermitian operator basis from matrix units."""
    ops = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            if i == j:
                e[i, i] = 1
                ops.append(e)
            elif i < j:
                e[i, j] = e[j, i] = 1
                ops.append(e.copy())
                f = np.zeros((d, d), dtype=complex)
                f[i, j] = -1j
                f[j, i] = 1j
                ops.append(f)
    return ops


class TestQuantumChannel:
    def test_completeness_validation(self):
        bad = (np.array([[1, 0], [0, 0.5]], dtype=complex),)
        with pytest.raises(ValidationError):
            QuantumChannel(bad, 1)

    def test_kraus_validation(self):
        with pytest.raises(ValidationError, match="at least one Kraus operator"):
            QuantumChannel((), 1)
        with pytest.raises(ValidationError, match="Kraus shape"):
            QuantumChannel((np.eye(4, dtype=complex),), 1)

    def test_unitarity_of_unitary_channel(self):
        u = haar_unitary(4, child_rng(100))
        assert abs(unitary_channel(u).unitarity() - 1.0) < 1e-12


class TestDilationContract:
    def test_one_operator_per_weight(self):
        # two weights but one operator: its Kraus oracle read Tr(Z rho) as 0.25 where the channel gives 1
        with pytest.raises(ValidationError, match="one \\(2, 2\\) canonical Kraus operator per weight"):
            StinespringIsometry(weights=[0.5, 0.5], canonical_kraus=(np.eye(2),), n=1)
        with pytest.raises(ValidationError, match="per weight"):
            StinespringIsometry(weights=[1.0], canonical_kraus=(np.eye(4),), n=1)

    @pytest.mark.parametrize(
        "channel",
        [
            *(random_channel(n, rank, child_rng(170, n, rank)) for n in (1, 2) for rank in (1, 2, 3, 4)),
            depolarizing_channel(0.2),
            depolarizing_channel(1.0),
            depolarizing_channel(0.3, 2),
            amplitude_damping_channel(0.1),
            amplitude_damping_channel(1.0),
        ],
    )
    def test_register_and_isometry_follow_from_the_kraus_form(self, channel):
        iso = canonicalize(channel)
        d, r = channel.dim, iso.weights.size
        b = int(np.ceil(np.log2(r)))
        assert iso.b == b
        v = np.zeros((d, 2 ** b, d), dtype=complex)  # row (system, environment)
        for i in range(r):
            v[:, i, :] = np.sqrt(iso.weights[i]) * iso.canonical_kraus[i]
        np.testing.assert_array_equal(iso.matrix, v.reshape(d * 2 ** b, d))
        rebuilt = StinespringIsometry(iso.weights, iso.canonical_kraus, iso.n)
        np.testing.assert_array_equal(rebuilt.matrix, iso.matrix)
        # the joint state is V rho V^dag, and its environment marginal the diagonal weights
        rho = DensityMatrix.from_columns(haar_unitary(d, child_rng(171))[:, :2] * np.sqrt([0.7, 0.3]), channel.n)
        joint = iso.output_state(rho)
        assert joint.n == channel.n + b
        assert np.abs(joint.matrix - iso.matrix @ rho.matrix @ iso.matrix.conj().T).max() < 1e-12
        mixed = iso.env_state(maximally_mixed(channel.n)).matrix
        assert np.abs(mixed - np.diag(np.pad(iso.weights, (0, 2 ** b - r)))).max() < 1e-12


class TestCanonicalize:
    def test_unitary_channel(self):
        u = haar_unitary(2, child_rng(101))
        iso = canonicalize(unitary_channel(u))
        assert iso.b == 0
        assert len(iso.canonical_kraus) == 1
        np.testing.assert_allclose(iso.weights, [1.0], atol=1e-12)
        # single canonical Kraus acts like the unitary on states; b = 0 leaves no environment to trace out
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), 1)
        out = iso.output_state(rho).matrix
        np.testing.assert_allclose(out, u @ rho.matrix @ u.conj().T, atol=1e-10)

    def test_fully_depolarizing(self):
        iso = canonicalize(depolarizing_channel(1.0))
        np.testing.assert_allclose(iso.weights, [0.25] * 4, atol=1e-12)
        assert iso.b == 2

    def test_amplitude_damping_weights(self):
        gamma = 0.5
        iso = canonicalize(amplitude_damping_channel(gamma))
        np.testing.assert_allclose(iso.weights, [(2 - gamma) / 2, gamma / 2], atol=1e-10)
        assert iso.b == 1

    def test_round_trip_on_operator_basis(self):
        for trial in range(50):
            rng = child_rng(102, trial)
            n = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 5))
            channel = random_channel(n, rank, rng)
            iso = canonicalize(channel)
            d = 2 ** n
            for op in hermitian_basis(d):
                want = channel.apply(op)
                got = np.zeros_like(want)
                for p, k in zip(iso.weights, iso.canonical_kraus):
                    got += p * (k @ op @ k.conj().T)
                assert trace_norm(want - got) < 1e-9
            # dilation route agrees on a state
            rho = maximally_mixed(n)
            joint = iso.output_state(rho)
            from puriscope import partial_trace

            sys_out = partial_trace(joint, range(n)) if iso.b else joint
            assert trace_norm(sys_out.matrix - channel.apply(rho)) < 1e-9

    def test_env_state_is_diagonal_weights(self):
        for trial in range(20):
            rng = child_rng(103, trial)
            channel = random_channel(2, 3, rng)
            iso = canonicalize(channel)
            rho_b = iso.env_state(maximally_mixed(2))
            expected = np.zeros((2 ** iso.b, 2 ** iso.b), dtype=complex)
            for i, p in enumerate(iso.weights):
                expected[i, i] = p
            assert trace_norm(rho_b.matrix - expected) < 1e-9

    def test_unitarity_equals_choi_purity(self):
        for trial in range(20):
            rng = child_rng(104, trial)
            channel = random_channel(2, int(rng.integers(1, 5)), rng)
            iso = canonicalize(channel)
            assert abs(np.sum(iso.weights ** 2) - channel.unitarity()) < 1e-9

    def test_distilled_choi_is_squared_choi(self):
        for trial in range(10):
            rng = child_rng(105, trial)
            channel = random_channel(1, 2, rng)
            iso = canonicalize(channel)
            distilled_kraus = tuple(
                p * k for p, k in zip(iso.weights, iso.canonical_kraus)
            )
            d = channel.dim
            choi_distilled = np.zeros((d * d, d * d), dtype=complex)
            for k in distilled_kraus:
                v = k.reshape(-1)
                choi_distilled += np.outer(v, v.conj()) / d
            choi = channel.choi()
            assert trace_norm(choi_distilled - choi @ choi) < 1e-9


class TestUnitarityEstimate:
    def test_unitary_channel(self):
        iso = canonicalize(unitary_channel(haar_unitary(2, child_rng(106))))
        report = unitarity_estimate(iso, ShotBudget(tomography_shots=100), seed=1)
        assert report.value == 1.0 and report.truth == 1.0

    def test_fully_depolarizing(self):
        iso = canonicalize(depolarizing_channel(1.0))
        report = unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed=2)
        assert abs(report.truth - 0.25) < 1e-12
        assert report.abs_error < 0.05

    def test_random_rank2(self):
        for trial in range(10):
            channel = random_channel(2, 2, child_rng(107, trial))
            iso = canonicalize(channel)
            report = unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed=trial)
            assert report.abs_error < 0.05

    def test_fixed_seed_values(self):
        # Stage 1 only: the tomography stream is fixed, so the value is too.
        iso = canonicalize(random_channel(2, 2, child_rng(107, 0)))
        report = unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed=0)
        assert abs(report.value - 0.5528997308476791) < 1e-12
        iso = canonicalize(random_channel(2, 3, child_rng(114)))
        assert iso.b == 2
        report = unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed=5)
        assert abs(report.value - 0.3743886014028348) < 1e-12

    def test_env_guard(self):
        channel = random_channel(2, 16, child_rng(108))
        iso = canonicalize(channel)
        with pytest.raises(GuardError):
            unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed=3)


class TestVirtualDistillation:
    def test_unitary_channel_reduces_to_expectation(self):
        u = haar_unitary(2, child_rng(109))
        iso = canonicalize(unitary_channel(u))
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        report = virtual_distillation_estimate(iso, rho, obs, ShotBudget(100, 20_000), seed=4)
        truth = np.real(np.trace(obs.matrix @ u @ rho.matrix @ u.conj().T))
        assert abs(report.truth - truth) < 1e-10
        assert report.abs_error < 0.05

    def test_identity_observable_consistency(self):
        channel = depolarizing_channel(0.3)
        iso = canonicalize(channel)
        rho = maximally_mixed(1)
        obs = Observable(np.eye(2, dtype=complex))
        report = virtual_distillation_estimate(iso, rho, obs, ShotBudget(50_000, 50_000), seed=5)
        # with the maximally mixed input, Tr[E^(2)(rho_m)] is the unitarity
        assert abs(report.truth - np.sum(iso.weights ** 2)) < 1e-10
        assert report.abs_error < 0.05

    def test_depolarizing_on_ground_state(self):
        iso = canonicalize(depolarizing_channel(0.2))
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        report = virtual_distillation_estimate(iso, rho, obs, ShotBudget(50_000, 50_000), seed=6)
        assert report.abs_error < 0.05
        assert report.truth == pytest.approx(iso.distilled_truth(rho, obs))


def _shot_only_stderr(iso, rho, obs, budget, seed, operator):
    """Stage-2 standard error alone, rebuilt from the estimator's streams."""
    env_state = iso.env_state(maximally_mixed(iso.n))
    spec = tomography(env_state, budget.tomography_shots, child_rng(seed, 0)).estimate.spectral()
    _, se = measure_observable_with_stderr(
        iso.output_state(rho), (obs, operator(spec)), budget.observable_shots, child_rng(seed, 1)
    )
    return se, spec


class TestTwoStage:
    def test_distillation_stderr_exceeds_shot_part(self):
        iso = canonicalize(random_channel(2, 2, child_rng(115)))
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2)
        obs = Observable(np.kron(PAULI_Z, np.eye(2)))
        budget = ShotBudget(4_000, 4_000)
        report = virtual_distillation_estimate(iso, rho, obs, budget, seed=12)
        shot, _ = _shot_only_stderr(iso, rho, obs, budget, 12, lambda spec: spec.reconstruct())
        assert np.isfinite(report.stderr)
        assert report.stderr > shot

    def test_channel_pca_stderr_exceeds_shot_part(self):
        iso = canonicalize(amplitude_damping_channel(0.1))
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        budget = ShotBudget(4_000, 4_000)
        report = channel_pca_estimate(iso, rho, obs, budget, seed=13)

        def top_projector(spec):
            top = spec.eigenvectors[:, 0]
            return np.outer(top, top.conj())

        shot, spec = _shot_only_stderr(iso, rho, obs, budget, 13, top_projector)
        assert np.isfinite(report.stderr)
        assert report.stderr > shot / spec.eigenvalues[0]

    def test_unitary_channel_values_fixed(self):
        # b = 0: the environment is a number, so no shot is drawn for it.
        u = haar_unitary(2, child_rng(109))
        iso = canonicalize(unitary_channel(u))
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        for estimator in (virtual_distillation_estimate, channel_pca_estimate):
            report = estimator(iso, rho, obs, ShotBudget(100, 20_000), seed=4)
            assert abs(report.value - 0.9101) < 1e-12
            assert abs(report.stderr - 0.0029301705581757523) < 1e-12
            assert report.shots_used == {"tomography": 0, "observable": 20_000}


class TestChannelPca:
    def test_unitary_channel(self):
        u = haar_unitary(2, child_rng(110))
        iso = canonicalize(unitary_channel(u))
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), 1)
        obs = Observable(PAULI_X)
        report = channel_pca_estimate(iso, rho, obs, ShotBudget(100, 20_000), seed=7)
        truth = np.real(np.trace(obs.matrix @ u @ rho.matrix @ u.conj().T))
        assert abs(report.truth - truth) < 1e-10
        assert report.abs_error < 0.05

    def test_depolarizing_leading_component(self):
        iso = canonicalize(depolarizing_channel(0.2))
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        report = channel_pca_estimate(iso, rho, obs, ShotBudget(100_000, 100_000), seed=8)
        # leading canonical Kraus of mild depolarizing is the identity
        assert abs(report.truth - np.trace(obs.matrix @ rho.matrix).real) < 1e-10
        assert report.abs_error < 0.05

    def test_amplitude_damping_excited_state(self):
        iso = canonicalize(amplitude_damping_channel(0.1))
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
        obs = Observable(PAULI_Z)
        report = channel_pca_estimate(iso, rho, obs, ShotBudget(100_000, 100_000), seed=9)
        assert report.abs_error < 0.05

    def test_gap_error(self):
        iso = canonicalize(depolarizing_channel(1.0))  # flat weights
        rho = maximally_mixed(1)
        with pytest.raises(GapError):
            channel_pca_estimate(iso, rho, Observable(PAULI_Z), ShotBudget(1000, 1000), seed=10)


@pytest.mark.parametrize("estimator", [virtual_distillation_estimate, channel_pca_estimate])
def test_channel_estimators_guard_the_observable(estimator):
    # the state estimators' guard: the dimension, then the spectral norm
    iso = canonicalize(amplitude_damping_channel(0.1))
    rho = maximally_mixed(1)
    with pytest.raises(GuardError):
        estimator(iso, rho, Observable(20 * PAULI_Z), ShotBudget(1000, 1000), seed=11)
    with pytest.raises(DomainError):
        estimator(iso, rho, Observable(pauli_on(2, 0, PAULI_Z)), ShotBudget(1000, 1000), seed=11)


# (estimator, n, value, stderr) for a Choi-rank-2 random channel on |0><0|,
# observable Z on qubit 0, at a 2e4/2e4 budget.
STAGE_TWO_PINS = [
    ("distill", 1, 0.31512372914021164, 0.0065415259876467876),
    ("pca", 1, 0.5336876004969638, 0.01279609760041317),
    ("distill", 2, 0.25665127484563866, 0.003616040863327322),
    ("pca", 2, 0.33565063680038376, 0.01282015560588915),
]


class TestStageTwoFixedSeedValues:
    @pytest.mark.parametrize("kind,n,value,stderr", STAGE_TWO_PINS)
    def test_value_and_stderr(self, kind, n, value, stderr):
        iso = canonicalize(random_channel(n, 2, child_rng(161, n)))
        d = 2 ** n
        rho = DensityMatrix(np.diag([1.0] + [0.0] * (d - 1)).astype(complex), n)
        obs = Observable(pauli_on(n, 0, PAULI_Z))
        estimator = virtual_distillation_estimate if kind == "distill" else channel_pca_estimate
        report = estimator(iso, rho, obs, ShotBudget(20_000, 20_000), seed=20 + n)
        assert abs(report.value - value) < 1e-12
        assert abs(report.stderr - stderr) < 1e-12


class TestStandardChannels:
    def test_depolarizing_rate_domain(self):
        with pytest.raises(DomainError):
            depolarizing_channel(1.5)

    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_damping_strength_domain(self, gamma):
        with pytest.raises(DomainError):
            amplitude_damping_channel(gamma)

    def test_random_channel_rank(self):
        channel = random_channel(2, 3, child_rng(111))
        assert len(channel.kraus) == 3
        with pytest.raises(DomainError):
            random_channel(1, 5, child_rng(112))
