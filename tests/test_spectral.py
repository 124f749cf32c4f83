import numpy as np
import pytest

from reduction_lab import (
    ToleranceSet,
    luders_state,
    moments,
    offdiag_norms,
    spectral_decompose,
    validate_density,
)
from reduction_lab.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    NotTraceOne,
    ZeroProbabilitySubspace,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2, dtype=complex) / 2)
        assert np.allclose(np.linalg.eigvalsh(rho), [0.5, 0.5])

    def test_trace_renormalized_within_tolerance(self):
        rho = validate_density(np.diag([0.6, 0.4 + 1e-12]).astype(complex))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive) as info:
            validate_density(np.diag([1.2, -0.2]).astype(complex))
        assert info.value.min_eigenvalue == pytest.approx(-0.2)

    def test_trace_violation_rejected(self):
        with pytest.raises(NotTraceOne):
            validate_density(np.diag([0.5, 0.4]).astype(complex))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian) as info:
            validate_density(m)
        assert info.value.deviation == pytest.approx(0.2)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros((2, 3), dtype=complex))


class TestSpectralDecompose:
    def test_exact_degeneracy_grouped(self):
        spec = spectral_decompose(np.diag([1.0, 1.0, 3.0]).astype(complex),
                                  tols=ToleranceSet(degeneracy_tol=1e-9))
        assert spec.d == 2
        assert spec.multiplicities == (2, 1)
        assert np.allclose(spec.energies, [1.0, 3.0])

    def test_near_degeneracy_merged_to_weighted_mean(self):
        spec = spectral_decompose(np.diag([0.0, 1e-12, 1.0]).astype(complex),
                                  tols=ToleranceSet(degeneracy_tol=1e-9))
        assert spec.d == 2
        assert spec.energies[0] == pytest.approx(0.5e-12, abs=1e-15)

    def test_pauli_x_analytic(self):
        # analytic 2x2 eigenproblem: levels -1, +1 with projectors
        # (I -+ X)/2
        spec = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(spec.energies, [-1.0, 1.0])
        minus = 0.5 * np.array([[1, -1], [-1, 1]])
        plus = 0.5 * np.array([[1, 1], [1, 1]])
        assert np.allclose(spec.projectors[0], minus, atol=1e-12)
        assert np.allclose(spec.projectors[1], plus, atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_projector_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        h = random_hermitian(rng, n)
        spec = spectral_decompose(h)
        tol = 1e-9
        total = np.zeros((n, n), dtype=complex)
        for r, p in enumerate(spec.projectors):
            assert np.max(np.abs(p - p.conj().T)) <= tol
            assert np.max(np.abs(p @ p - p)) <= tol
            for s in range(r + 1, spec.d):
                assert np.max(np.abs(p @ spec.projectors[s])) <= tol
            total += p
        assert np.max(np.abs(total - np.eye(n))) <= tol
        scale = max(1.0, float(np.max(np.abs(spec.energies))))
        reconstructed = sum(e * p for e, p in zip(spec.energies, spec.projectors))
        assert np.max(np.abs(reconstructed - h)) <= 1e-8 * scale
        assert np.all(np.diff(spec.energies) > 0)

    def test_strictly_increasing_after_merge(self):
        rng = np.random.default_rng(7)
        # repeated eigenvalues under a random unitary conjugation
        levels = np.array([-1.0, -1.0, 0.5, 0.5, 2.0])
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        spec = spectral_decompose(q @ np.diag(levels) @ q.conj().T)
        assert spec.d == 3
        assert spec.multiplicities == (2, 2, 1)


class TestLudersState:
    def test_fixed_point_on_subspace_mix(self):
        h = np.diag([0.0, 0.0, 1.0]).astype(complex)
        spec = spectral_decompose(h)
        rho0 = spec.projectors[0] / 2.0
        out = luders_state(rho0, spec, 0)
        assert np.allclose(out, rho0, atol=1e-14)

    def test_nondegenerate_level_gives_rank_one_projector(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        spec = spectral_decompose(h)
        rho0 = random_density(rng, 4)
        out = luders_state(rho0, spec, 2)
        assert np.allclose(out, spec.projectors[2], atol=1e-10)

    def test_fully_degenerate_hamiltonian_returns_state(self):
        spec = spectral_decompose(np.zeros((2, 2), dtype=complex))
        assert spec.d == 1
        out = luders_state(np.eye(2, dtype=complex) / 2, spec, 0)
        assert np.allclose(out, np.eye(2) / 2)

    def test_zero_probability_subspace_rejected(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        spec = spectral_decompose(h)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ZeroProbabilitySubspace):
            luders_state(rho0, spec, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_output_is_energy_eigenstate(self, seed):
        # H L_r = E_r L_r on every populated level
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        h = random_hermitian(rng, n)
        spec = spectral_decompose(h)
        rho0 = random_density(rng, n)
        for r in range(spec.d):
            out = luders_state(rho0, spec, r)
            validate_density(out)
            assert np.max(np.abs(h @ out - spec.energies[r] * out)) \
                <= 1e-9 * max(1.0, abs(spec.energies[r]))


class TestMoments:
    def test_eigenstate_has_no_spread(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        m = moments(rho, h)
        assert (m.H, m.V, m.beta) == (1.0, 0.0, 0.0)

    def test_symmetric_two_level(self):
        m = moments(np.eye(2, dtype=complex) / 2, np.diag([0.0, 1.0]).astype(complex))
        assert m.H == pytest.approx(0.5)
        assert m.V == pytest.approx(0.25)
        assert m.beta == pytest.approx(0.0, abs=1e-15)

    def test_three_outcome_direct_sum(self):
        # brute-force oracle: scalar sums over the outcome distribution
        p = np.array([0.25, 0.25, 0.5])
        e = np.array([0.0, 1.0, 2.0])
        mean = float(p @ e)
        var = float(p @ e**2 - mean**2)
        skew = float(p @ (e - mean) ** 3)
        m = moments(np.diag(p).astype(complex), np.diag(e).astype(complex))
        assert m.H == pytest.approx(mean)        # 1.25
        assert m.V == pytest.approx(var)         # 0.6875
        assert m.beta == pytest.approx(skew)     # -0.28125
        assert (mean, var, skew) == (1.25, 0.6875, -0.28125)

    @pytest.mark.parametrize("seed", range(10))
    def test_variance_matches_level_distribution(self, seed):
        # V = sum_r p_r E_r^2 - (sum_r p_r E_r)^2 with p_r = tr(rho P_r)
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 7))
        h = random_hermitian(rng, n)
        rho = random_density(rng, n)
        spec = spectral_decompose(h)
        p = spec.level_probabilities(rho)
        expected = float(p @ spec.energies**2 - (p @ spec.energies) ** 2)
        assert moments(rho, h).V == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            moments(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex))


class TestOffdiagNorms:
    def test_energy_diagonal_state_has_no_coherences(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        spec = spectral_decompose(h)
        norms = offdiag_norms(np.diag([0.2, 0.3, 0.5]).astype(complex), spec)
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in norms.values())

    def test_plus_state_coherence_is_half(self):
        # |+><+| with H = diag(0, 1): P_1 rho P_2 = [[0, 1/2], [0, 0]]
        h = np.diag([0.0, 1.0]).astype(complex)
        spec = spectral_decompose(h)
        plus = np.full((2, 2), 0.5, dtype=complex)
        norms = offdiag_norms(plus, spec)
        assert norms[(0, 1)] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_hermitian_symmetry(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        spec = spectral_decompose(random_hermitian(rng, n))
        norms = offdiag_norms(random_density(rng, n), spec)
        for n_, m_ in spec.pairs():
            assert norms[(n_, m_)] == pytest.approx(norms[(m_, n_)], rel=1e-12)
