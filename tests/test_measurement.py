import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    Observable,
    PureState,
    ShotBudget,
    child_rng,
    haar_unitary,
    measure_in_basis,
    single_copy_purity_attack,
    tomography,
    trace_norm,
)
from puriscope.core import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, kron_all
from puriscope.errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    ValidationError,
)
from puriscope import measurement
from puriscope.measurement import (
    _PAULI_BASES,
    _rm_purity_estimates,
    _shadow_inverse,
    born_probabilities,
    _mean_stderr,
    bootstrap_stderr,
    measure_observable_with_stderr,
)


def mixed_state(n, rank, rng, weights=None):
    d = 2 ** n
    u = haar_unitary(d, rng)
    w = np.asarray(weights, float) if weights is not None else rng.dirichlet(np.ones(rank))
    return DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, n)


def per_setting_probabilities(state, m):
    """Reference table: one dense Kronecker basis per product-Pauli setting.

    Rows follow ``itertools.product("XYZ", repeat=m)``, qubit 0 most
    significant.
    """
    return np.stack(
        [
            born_probabilities(state, (kron_all(*(_PAULI_BASES["XYZ".index(p)] for p in setting)),))
            for setting in itertools.product("XYZ", repeat=m)
        ]
    )


def measure_one(state, observable, shots, rng):
    """Mean and stderr of one Observable on the whole register, a 1 x 1 factor in the stack."""
    means, stderrs, _ = measure_observable_with_stderr(state, (observable, [np.eye(1)]), shots, rng)
    return means[0], stderrs[0]


class TestShotBudget:
    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            ShotBudget()

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ShotBudget(tomography_shots=-1, observable_shots=2)

    def test_split(self):
        b = ShotBudget.split(10_000)
        assert b.tomography_shots == b.observable_shots == 5000
        # odd totals round half to even, as round(total * 0.5) did
        for total, tomo in [(2, 1), (3, 2), (5, 2), (7, 4), (20_001, 10_000)]:
            b = ShotBudget.split(total)
            assert (b.tomography_shots, b.total) == (tomo, total)


class TestMeasureObservable:
    def test_identity_is_exact(self):
        state = PureState(np.array([1, 1j]) / np.sqrt(2), 1)
        for shots in (1, 7, 100):
            val = measure_one(state, Observable(np.eye(2, dtype=complex)), shots, child_rng(1))[0]
            assert val == 1.0

    def test_deterministic_outcome(self):
        state = PureState(np.array([1.0, 0]), 1)
        assert measure_one(state, Observable(PAULI_Z), 50, child_rng(2))[0] == 1.0

    def test_plus_state_centered(self):
        state = PureState(np.array([1, 1]) / np.sqrt(2), 1)
        val = measure_one(state, Observable(PAULI_Z), 100_000, child_rng(3))[0]
        assert abs(val) < 0.02

    def test_unbiased_against_oracle(self):
        rng = child_rng(4)
        rho = mixed_state(2, 2, rng)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable((z + z.conj().T) / 2)
        truth = np.trace(obs.matrix @ rho.matrix).real
        runs = np.array(
            [measure_one(rho, obs, 500, child_rng(4, k))[0] for k in range(200)]
        )
        se = runs.std(ddof=1) / np.sqrt(200)
        assert abs(runs.mean() - truth) < 3 * se
        # variance of the mean obeys the spectral-norm bound
        assert runs.var(ddof=1) <= obs.spectral_norm ** 2 / 500 * 1.5

    def test_dimension_mismatch(self):
        state = PureState(np.array([1.0, 0]), 1)
        for head, g in ((np.eye(4, dtype=complex), np.eye(1)), (PAULI_Z, PAULI_Z)):
            with pytest.raises(DimensionError):
                measure_observable_with_stderr(state, (Observable(head), [g]), 10, child_rng(5))
        with pytest.raises(DimensionError):
            measure_in_basis(state, (np.eye(2), np.eye(2)), 10, child_rng(5))

    def test_product_outcomes_are_eigenvalue_products(self):
        # |0>|+> is an eigenstate of Z (x) X with eigenvalue +1, of Z (x) Z with mean 0.
        state = PureState(np.array([1, 1, 0, 0]) / np.sqrt(2), 2)
        z = Observable(PAULI_Z)
        means, stderrs, _ = measure_observable_with_stderr(state, (z, [PAULI_X]), 50, child_rng(39))
        assert (means, stderrs) == ([1.0], [0.0])
        [mean], _, _ = measure_observable_with_stderr(state, (z, [PAULI_Z]), 20_000, child_rng(40))
        assert abs(mean) < 0.03

    def test_product_matches_dense_expectation(self):
        rng = child_rng(41)
        rho = mixed_state(3, 2, rng)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (a + a.conj().T) / 2
        truth = np.trace(np.kron(a, PAULI_Y) @ rho.matrix).real
        [mean], [se], _ = measure_observable_with_stderr(
            rho, (Observable(a), [PAULI_Y]), 40_000, child_rng(42)
        )
        assert abs(mean - truth) < 4 * se

    def test_zero_shots(self):
        state = PureState(np.array([1.0, 0]), 1)
        with pytest.raises(DomainError):
            measure_one(state, Observable(PAULI_Z), 0, child_rng(6))

    def test_stack_of_one_equals_unstacked_call(self):
        rng = child_rng(43)
        rho = mixed_state(3, 2, rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g = (g + g.conj().T) / 2
        obs = Observable.from_factors([PAULI_X, PAULI_Z])
        means, stderrs, shots = measure_observable_with_stderr(rho, (obs, [g]), 999, child_rng(44))
        g = Observable(g)
        counts = measure_in_basis(rho, (*obs.basis, *g.basis), 999, child_rng(44))
        single = _mean_stderr(counts, np.multiply.outer(obs.eigenvalues, g.eigenvalues).ravel())
        assert (means, stderrs, shots) == ([single[0]], [single[1]], [999])

    def test_stack_splits_shots_evenly_over_members(self):
        state = PureState(np.array([1, 1, 0, 0]) / np.sqrt(2), 2)
        means, stderrs, shots = measure_observable_with_stderr(
            state, (Observable(PAULI_Z), [PAULI_X, PAULI_Z, np.eye(2)]), 100, child_rng(45)
        )
        # |0>|+>: Z (x) X and Z (x) I are sharp at +1; Z (x) Z has mean 0
        assert shots == [34, 33, 33]
        assert (means[0], stderrs[0], means[2], stderrs[2]) == (1.0, 0.0, 1.0, 0.0)
        assert abs(means[1]) < 0.5

    def test_stack_members_must_share_dimension(self):
        state = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 0]), 3)
        with pytest.raises(DimensionError):
            measure_observable_with_stderr(
                state, (Observable(PAULI_Z), [np.eye(4), PAULI_X]), 10, child_rng(46)
            )


class TestMeasureInBasis:
    def test_lone_matrix_basis_is_a_dimension_error(self):
        # The basis is a tuple of factors; a bare matrix is not one, whatever its size.
        state = PureState(np.array([1.0, 0, 0, 0]), 2)
        for basis in (np.eye(4, dtype=complex), HADAMARD):
            with pytest.raises(DimensionError):
                born_probabilities(state, basis)
            with pytest.raises(DimensionError):
                measure_in_basis(state, basis, 10, child_rng(7))

    def test_computational_on_ground(self):
        state = PureState(np.array([1.0, 0, 0, 0]), 2)
        counts = measure_in_basis(state, (np.eye(4, dtype=complex),), 100, child_rng(7))
        assert counts[0] == 100

    def test_hadamard_on_plus(self):
        state = PureState(np.array([1, 1]) / np.sqrt(2), 1)
        counts = measure_in_basis(state, (HADAMARD,), 100, child_rng(8))
        assert counts[0] == 100

    def test_total_variation_concentrates(self):
        rng = child_rng(9)
        state = PureState(
            (lambda z: z / np.linalg.norm(z))(
                rng.standard_normal(8) + 1j * rng.standard_normal(8)
            ),
            3,
        )
        basis = haar_unitary(8, rng)
        counts = measure_in_basis(state, (basis,), 100_000, child_rng(10))
        born = np.abs(basis.conj().T @ state.amplitudes) ** 2
        tv = 0.5 * np.abs(counts / 100_000 - born).sum()
        assert tv < 0.05

    def test_factor_tuple_matches_dense_product_basis(self):
        rng = child_rng(37)
        for dims in ((8,), (2, 4), (4, 2), (2, 2, 2), (2, 8, 2)):
            n = int(np.log2(np.prod(dims)))
            factors = tuple(haar_unitary(d, rng) for d in dims)
            dense = kron_all(*factors)
            z = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            for state in (PureState(z / np.linalg.norm(z), n), mixed_state(n, 3, rng)):
                pure = isinstance(state, PureState)
                rho = np.outer(state.amplitudes, state.amplitudes.conj()) if pure else state.matrix
                reference = np.real(np.einsum("ik,ij,jk->k", dense.conj(), rho, dense))
                probs = born_probabilities(state, factors)
                assert np.abs(probs - reference).max() < 1e-12

    def test_stacked_factors_match_per_setting_bases(self):
        # Each (3, 2, 2) stack adds a setting axis, qubit 0 most significant.
        rng = child_rng(43)
        for m in range(1, 6):
            d = 2 ** m
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            states = (
                PureState(z / np.linalg.norm(z), m),
                mixed_state(m, d, rng),
                mixed_state(m, min(3, d - 1), rng),
            )
            for state in states:
                stacked = born_probabilities(state, (_PAULI_BASES,) * m)
                assert stacked.shape == (3,) * m + (d,)
                reference = per_setting_probabilities(state, m)
                assert np.abs(stacked.reshape(3 ** m, d) - reference).max() < 1e-15

    def test_stacked_shots_split_evenly_over_settings(self):
        rho = mixed_state(2, 3, child_rng(44))
        basis = (_PAULI_BASES, haar_unitary(2, child_rng(45)))
        for shots in (1, 2, 3, 10, 1001):
            counts = measure_in_basis(rho, basis, shots, child_rng(46, shots))
            assert counts.shape == (3, 4)
            per, extra = divmod(shots, 3)
            np.testing.assert_array_equal(counts.sum(axis=1), [per + (k < extra) for k in range(3)])


class TestTomography:
    def test_pure_state_recovery(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        result = tomography(rho, 10_000, child_rng(11))
        assert trace_norm(result.estimate.matrix - rho.matrix) <= 0.1
        assert len(result.setting_counts) == 3
        assert int(result.setting_counts.sum()) == 10_000

    def test_maximally_mixed_recovery(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        result = tomography(rho, 10_000, child_rng(12))
        assert trace_norm(result.estimate.matrix - rho.matrix) <= 0.1

    def test_deterministic_under_seed(self):
        rho = mixed_state(2, 2, child_rng(13))
        a = tomography(rho, 1000, child_rng(14)).estimate.matrix
        b = tomography(rho, 1000, child_rng(14)).estimate.matrix
        np.testing.assert_array_equal(a, b)

    def test_budget_floor(self):
        rho = DensityMatrix(np.eye(4) / 4, 2)
        with pytest.raises(InsufficientDataError):
            tomography(rho, 15, child_rng(15))

    def test_dimension_guard(self):
        from puriscope.errors import GuardError

        rho = DensityMatrix(np.eye(128) / 128, 7)
        with pytest.raises(GuardError):
            tomography(rho, 10 ** 6, child_rng(16))

    def test_reconstruction_from_exact_probabilities(self):
        # Born probabilities in place of counts: linear inversion is exact.
        for m in (1, 2, 3, 4):
            rho = mixed_state(m, 2 ** m, child_rng(39, m))
            table = born_probabilities(rho, (_PAULI_BASES,) * m).reshape(3 ** m, 2 ** m)
            assert np.abs(_shadow_inverse(table) - rho.matrix).max() < 1e-12

    def test_one_draw_for_all_settings(self, monkeypatch):
        calls = []
        real = measurement.measure_in_basis

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(measurement, "measure_in_basis", counted)
        result = tomography(mixed_state(3, 2, child_rng(47)), 1000, child_rng(48))
        assert calls == [1000]
        assert result.setting_counts.shape == (27, 8)

    def test_counts_are_per_setting_multinomials(self):
        # One broadcast draw consumes the generator as a per-setting loop would.
        for m, shots in ((1, 10), (2, 1000), (3, 2000)):
            rho = mixed_state(m, 2, child_rng(49, m))
            counts = tomography(rho, shots, child_rng(50, m)).setting_counts
            probs = born_probabilities(rho, (_PAULI_BASES,) * m).reshape(3 ** m, -1)
            per, extra = divmod(shots, 3 ** m)
            rng = child_rng(50, m)
            loop = [rng.multinomial(per + (k < extra), p) for k, p in enumerate(probs)]
            np.testing.assert_array_equal(counts, loop)

    def test_zero_qubit_register_reconstructs_to_one(self):
        np.testing.assert_array_equal(_shadow_inverse(np.zeros((1, 1))), [[1.0]])
        result = tomography(DensityMatrix(np.ones((1, 1)), 0), 100, child_rng(40))
        np.testing.assert_array_equal(result.estimate.matrix, [[1.0]])
        assert int(result.setting_counts.sum()) == 0

    def test_one_qubit_counts_give_bloch_vector(self):
        counts = np.array([[70, 30], [45, 55], [90, 10]])  # X, Y, Z settings
        rx, ry, rz = (counts[:, 0] - counts[:, 1]) / counts.sum(axis=1)
        bloch = (np.eye(2) + rx * PAULI_X + ry * PAULI_Y + rz * PAULI_Z) / 2
        assert np.abs(_shadow_inverse(counts) - bloch).max() < 1e-15

    def test_error_shrinks_with_shots(self):
        rho = mixed_state(2, 3, child_rng(17))

        def err(shots):
            runs = [
                trace_norm(tomography(rho, shots, child_rng(18, shots, k)).estimate.matrix - rho.matrix)
                for k in range(10)
            ]
            return np.mean(runs)

        assert err(40_000) < err(400)

    def test_linear_inversion_unbiased(self):
        rho = mixed_state(1, 2, child_rng(37), weights=[0.7, 0.3])
        raws = np.stack(
            [_shadow_inverse(tomography(rho, 400, child_rng(38, k)).setting_counts) for k in range(200)]
        )
        mean = raws.mean(axis=0)
        se = np.abs(raws - mean).std(axis=(0,)) / np.sqrt(200) + 1e-12
        assert np.all(np.abs(mean - rho.matrix) <= 4 * se)

    def test_projection_overhead_bounded(self):
        # PSD projection at most doubles the trace-norm error of the raw
        # linear inversion.
        for trial in range(50):
            rng = child_rng(19, trial)
            n = int(rng.integers(1, 3))
            rho = mixed_state(n, 2 ** n, rng)
            result = tomography(rho, 2000, child_rng(20, trial))
            raw_err = trace_norm(_shadow_inverse(result.setting_counts) - rho.matrix)
            proj_err = trace_norm(result.estimate.matrix - rho.matrix)
            assert proj_err <= 2 * raw_err + 1e-12

    def test_moment_bound_on_estimates(self):
        # |Tr(est^t) - Tr(rho^t)| <= 2 t eps whenever eps < 1/t.
        for trial in range(50):
            rng = child_rng(21, trial)
            rho = mixed_state(2, 3, rng)
            est = tomography(rho, 8000, child_rng(22, trial)).estimate
            eps = trace_norm(est.matrix - rho.matrix)
            for t in (2, 3, 4):
                if eps < 1.0 / t:
                    gap = abs(
                        np.trace(np.linalg.matrix_power(est.matrix, t)).real
                        - np.trace(np.linalg.matrix_power(rho.matrix, t)).real
                    )
                    assert gap <= 2 * eps * t + 1e-12


class TestRandomizedMeasurementPurity:
    def test_pure_state(self):
        rng = child_rng(23)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = PureState(z / np.linalg.norm(z), 1)
        val = _rm_purity_estimates(state, 200, 60, child_rng(24)).mean()
        assert abs(val - 1.0) < 0.05

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        val = _rm_purity_estimates(rho, 200, 60, child_rng(25)).mean()
        assert abs(val - 0.5) < 0.05

    def test_unbiased(self):
        rho = mixed_state(2, 2, child_rng(26), weights=[0.8, 0.2])
        runs = np.array(
            [_rm_purity_estimates(rho, 50, 20, child_rng(27, k)).mean() for k in range(200)]
        )
        se = runs.std(ddof=1) / np.sqrt(200)
        assert abs(runs.mean() - rho.purity()) < 3 * se

    def test_rmse_grows_with_qubits(self):
        # Fixed total budget: the sqrt(d) cost shows as monotone RMSE growth.
        def rmse(n):
            errs = []
            for k in range(40):
                rng = child_rng(28, n, k)
                rho = mixed_state(n, 2, rng, weights=[0.9, 0.1])
                est = _rm_purity_estimates(rho, 250, 8, child_rng(29, n, k)).mean()
                errs.append(est - rho.purity())
            return float(np.sqrt(np.mean(np.square(errs))))

        values = [rmse(n) for n in (2, 4, 6)]
        assert values[0] < values[1] < values[2]

    def test_insufficient_shots(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        with pytest.raises(InsufficientDataError):
            _rm_purity_estimates(rho, 10, 1, child_rng(30))

    def test_memory_bounded_at_full_rank(self):
        # A full-rank state needs a d x d frame per random basis.  Drawing all
        # 500 frames of n = 6 at once peaked near 130 MB; sampling a block of
        # frames at a time stays well below that, and n = 7 runs one frame
        # per block.
        for n, unitaries in ((6, 500), (7, 300)):
            d = 2 ** n
            rho = DensityMatrix(np.eye(d) / d, n)
            tracemalloc.start()
            try:
                value = _rm_purity_estimates(rho, unitaries, 8, child_rng(31, n)).mean()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64e6, (n, peak / 1e6)
            assert abs(value - 1 / d) < 0.3

    @staticmethod
    def rank2_state(seed):
        u = haar_unitary(64, child_rng(seed))
        return DensityMatrix.from_columns(u[:, :2] * np.sqrt([0.7, 0.3]), 6)

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("rank-2", "5186ba9d5b8691146f2f00c8cecacc7d8636932c334b614cacc1e6de1b8692a5"),
            ("full-rank", "c5e03c7dade404a46f29c8ea42d79877407aaaee237f3a5c4deb750236e3c812"),
        ],
    )
    def test_estimates_pinned(self, case, digest):
        # The exact per-unitary estimates: the single-copy server's shape
        # (n = 6, rank 2, 1250 unitaries of 8 shots) and a full-rank call
        # of 250 blocks.  Any change to how the sampler consumes the
        # generator moves these bytes.
        if case == "rank-2":
            estimates = _rm_purity_estimates(self.rank2_state(40), 1250, 8, child_rng(41))
        else:
            estimates = _rm_purity_estimates(DensityMatrix(np.eye(64) / 64, 6), 500, 8, child_rng(42))
        assert hashlib.sha256(estimates.tobytes()).hexdigest() == digest

    def test_memory_bounded_at_the_server_shape(self):
        # The single-copy server's attack (rank 2, n = 6, budget 1e4) samples
        # its 1250 frames and their shots one block at a time, each block
        # reduced to its collision counts before the next: about 0.65 MiB.
        rho = self.rank2_state(43)
        rho.purity()
        tracemalloc.start()
        try:
            single_copy_purity_attack(rho, 10_000, 44)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak / 2 ** 20


class TestBootstrap:
    def test_bootstrap_tracks_replication_spread(self):
        rho = mixed_state(1, 2, child_rng(31), weights=[0.8, 0.2])
        result = tomography(rho, 3000, child_rng(32))

        def purity(spectra):
            return np.sum(spectra.eigenvalues ** 2, axis=-1)

        boot = bootstrap_stderr(result, purity, child_rng(33))
        replicate = np.array(
            [
                tomography(rho, 3000, child_rng(34, k)).estimate.purity()
                for k in range(60)
            ]
        ).std(ddof=1)
        assert boot > 0
        assert 0.3 * replicate < boot < 3 * replicate

    def test_stderr_reports_spread(self):
        state = PureState(np.array([1, 1]) / np.sqrt(2), 1)
        mean, se = measure_one(state, Observable(PAULI_Z), 10_000, child_rng(35))
        assert abs(mean) < 0.05
        assert 0.005 < se < 0.015
