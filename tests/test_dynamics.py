import numpy as np
import pytest

import projector_oracle as oracle
import sme_oracle
from reduction_lab import (
    FilterModel,
    SmeConstants,
    TimeGrid,
    dynamics,
    integrate_lindblad,
    lindblad_rhs,
    sample_noise,
    simulate_sme,
    sme_euler_raw,
    sme_step,
    sse_step,
    validate_density,
    variance_bound,
)
from reduction_lab.acceptance import random_instance
from reduction_lab.errors import DimensionMismatch, NonFiniteInput, StepDivergence
from reduction_lab.instances import INSTANCES, three_level
from reduction_lab.spectral import DEFAULT_TOLS, moments, offdiag_norms, spectral_decompose

H2 = np.diag([0.0, 1.0]).astype(complex)
E2 = np.array([0.0, 1.0])     # eigenvalues of H2, which is diagonal in the standard basis
H3 = np.diag([0.0, 1.0, 2.0]).astype(complex)


def coherent_qubit():
    return np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


class TestTimeGrid:
    def test_from_duration_snaps(self):
        grid = TimeGrid.from_duration(1.0, 1e-3)
        assert grid.n_steps == 1000
        assert grid.times()[0] == 0.0
        assert grid.times()[-1] == pytest.approx(1.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid.from_duration(1.0, 0.0)


class TestSmeStep:
    def test_eigenprojector_is_fixed_point(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        out, _ = sme_step(rho, SmeConstants.build(E2, sigma=1.0, hbar=1.0, dt=1e-3), dw=0.04)
        assert np.allclose(out, rho, atol=1e-14)

    def test_sigma_zero_is_unitary_euler(self):
        rho = coherent_qubit()
        dt = 1e-4
        out, _ = sme_step(rho, SmeConstants.build(E2, sigma=0.0, hbar=1.0, dt=dt), dw=0.3)
        # noise and dissipator off; purity drift of the Euler rotation is O(dt^2)
        before = float(np.vdot(rho, rho).real)
        after = float(np.vdot(out, out).real)
        assert abs(after - before) < 10 * dt**2

    def test_two_level_scalar_recursion_oracle(self):
        # diagonal rho stays diagonal: p' = p - sigma p (1 - p) dW
        rho = np.eye(2, dtype=complex) / 2
        out, _ = sme_step(rho, SmeConstants.build(E2, sigma=1.0, hbar=1.0, dt=1e-3), dw=0.02)
        assert out[0, 0].real == pytest.approx(0.495, abs=1e-12)
        assert out[1, 1].real == pytest.approx(0.505, abs=1e-12)
        assert abs(out[0, 1]) < 1e-15

    def test_many_step_scalar_recursion_oracle(self):
        rng = np.random.default_rng(11)
        dt = 1e-3
        increments = rng.standard_normal(400) * np.sqrt(dt)
        p = 0.5
        rho = np.eye(2, dtype=complex) / 2
        step = SmeConstants.build(E2, sigma=1.0, hbar=1.0, dt=dt)
        for dw in increments:
            p = p - p * (1 - p) * dw
            rho, _ = sme_step(rho, step, dw=dw)
        assert rho[0, 0].real == pytest.approx(p, abs=1e-12)

    def test_trace_exact_after_step(self):
        rng = np.random.default_rng(2)
        rho = coherent_qubit()
        step = SmeConstants.build(E2, sigma=1.0, hbar=1.0, dt=1e-3)
        for dw in rng.standard_normal(50) * np.sqrt(1e-3):
            rho, _ = sme_step(rho, step, dw=dw)
            assert abs(np.trace(rho).real - 1.0) <= 1e-14

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
    def test_pre_renormalization_trace_error_within_linear_envelope(self, dt):
        # the generators preserve the trace identically, so the raw error is
        # float residue, far inside the O(dt) envelope
        rho = coherent_qubit()
        h_t = np.trace(rho @ H2).real
        centered = H2 - h_t * np.eye(2)
        raw = (
            rho
            + (-1j * (H2 @ rho - rho @ H2) + 0.125 * (2 * H2 @ rho @ H2 - H2 @ H2 @ rho - rho @ H2 @ H2)) * dt
            + 0.5 * (centered @ rho + rho @ centered) * 0.03
        )
        assert abs(np.trace(raw).real - 1.0) <= 0.01 * dt

    def test_wild_step_rejected(self):
        # a pure state kicked with a huge increment leaves the PSD cone
        # beyond the clamp tolerance and must be refused, not repaired
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.raises(StepDivergence):
            sme_step(rho, SmeConstants.build(E2, sigma=1.0, hbar=1.0, dt=1e-2), dw=0.8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sme_step(np.eye(3, dtype=complex) / 3, SmeConstants.build(E2, 1.0, 1.0, 1e-3), 0.0)

    def test_wrong_length_eigenvalues_rejected(self):
        with pytest.raises(DimensionMismatch):
            sme_step(coherent_qubit(), SmeConstants.build(np.array([0.0, 1.0, 2.0]), 1.0, 1.0, 1e-3),
                     0.0)
        with pytest.raises(DimensionMismatch):
            sme_step(coherent_qubit(), SmeConstants.build(H2, 1.0, 1.0, 1e-3), 0.0)


class TestSimulateSme:
    def test_closed_system_conserves_moments(self):
        grid = TimeGrid.from_duration(1.0, 1e-3)
        traj = simulate_sme(coherent_qubit(), spectral_decompose(H2), sigma=0.0, hbar=1.0,
                            grid=grid, dw=np.zeros(grid.n_steps))
        assert np.max(np.abs(traj.H - traj.H[0])) < 10 * grid.dt
        assert np.max(np.abs(traj.V - traj.V[0])) < 10 * grid.dt
        assert np.max(np.abs(traj.purity - traj.purity[0])) < 10 * grid.dt

    def test_energy_stays_in_spectrum_range(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid.from_duration(2.0, 1e-3)
        traj = simulate_sme(coherent_qubit(), spectral_decompose(H2), sigma=1.0, hbar=1.0,
                            grid=grid, dw=sample_noise(grid, rng))
        assert np.all(traj.H >= -1e-12)
        assert np.all(traj.H <= 1.0 + 1e-12)

    def test_fixed_seed_bitwise_reproducible(self):
        grid = TimeGrid.from_duration(0.5, 1e-3)
        runs = []
        for _ in range(2):
            noise = sample_noise(grid, np.random.default_rng(123))
            runs.append(simulate_sme(coherent_qubit(), spectral_decompose(H2), 1.0, 1.0, grid, noise))
        a, b = runs
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.states, b.states)

    def test_states_stay_valid_and_records_line_up(self):
        rng = np.random.default_rng(8)
        grid = TimeGrid.from_duration(1.0, 1e-3)
        traj = simulate_sme(coherent_qubit(), spectral_decompose(H2), 1.0, 1.0, grid,
                            sample_noise(grid, rng))
        assert len(traj.states) == grid.n_steps + 1
        assert traj.w[0] == 0.0 and traj.xi[0] == 0.0
        for state in traj.states[:: grid.n_steps // 10]:
            validate_density(state)

    def test_eigenstate_absorption(self):
        # once the spread is tiny the trajectory must stay pinned to one
        # eigenprojector; sigma = 3 makes the collapse fast enough to cross
        # the absorption threshold well before the horizon
        rng = np.random.default_rng(21)
        sigma = 3.0
        grid = TimeGrid.from_duration(14.0, 1e-3)
        traj = simulate_sme(coherent_qubit(), spectral_decompose(H2), sigma, 1.0, grid,
                            sample_noise(grid, rng))
        span = 1.0
        eig_eps = 1e-18 * span**2
        below = np.nonzero(traj.V < eig_eps)[0]
        assert below.size > 0, "trajectory never reached the absorption region"
        k0 = int(below[0])
        projectors = oracle.projectors(spectral_decompose(H2))
        target = min(projectors, key=lambda p: np.max(np.abs(traj.states[k0] - p)))
        worst = max(
            float(np.max(np.abs(s - target))) for s in traj.states[k0:]
        )
        assert worst <= 1e-9

    def test_noise_grid_mismatch_rejected(self):
        grid = TimeGrid.from_duration(1.0, 1e-2)
        for dw in (np.zeros(5), np.zeros((grid.n_steps, 1)), np.zeros((1, grid.n_steps))):
            with pytest.raises(DimensionMismatch):
                simulate_sme(coherent_qubit(), spectral_decompose(H2), 1.0, 1.0, grid, dw)

    def test_non_finite_increment_rejected(self):
        grid = TimeGrid.from_duration(1.0, 1e-2)
        for bad in (np.nan, np.inf):
            dw = np.zeros(grid.n_steps)
            dw[17] = bad
            with pytest.raises(NonFiniteInput):
                simulate_sme(coherent_qubit(), spectral_decompose(H2), 1.0, 1.0, grid, dw)


def matrix_form_step(rho, h, sigma, hbar, dt, dw, tols=DEFAULT_TOLS):
    """Reference Euler-Maruyama step with dense matrix products and the
    same repair policy: returns (state, whether the clamp ran)."""
    h_t = np.trace(rho @ h).real
    commutator = h @ rho - rho @ h
    dissipator = 2.0 * h @ rho @ h - h @ h @ rho - rho @ h @ h
    centered = h - h_t * np.eye(len(h))
    raw = (
        rho
        + (-1j / hbar * commutator + sigma**2 / 8.0 * dissipator) * dt
        + sigma / 2.0 * (centered @ rho + rho @ centered) * dw
    )
    a = (raw + raw.conj().T) / 2.0
    a = a / np.trace(a).real
    lowest = np.linalg.eigvalsh(a)[0]
    if lowest < -tols.clamp_tol:
        raise StepDivergence(f"eigenvalue {lowest:.3e}")
    if lowest >= -tols.psd_tol:
        return a, False
    values, vectors = np.linalg.eigh(a)
    a = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
    a = a / np.trace(a).real
    return (a + a.conj().T) / 2.0, True


def matrix_form_path(rho0, h, sigma, hbar, grid, noise):
    """States of the reference step along the Brownian increments noise, and
    its clamp count."""
    states = [np.asarray(rho0, dtype=complex)]
    clamps = 0
    for k, dw in enumerate(noise):
        try:
            state, clamped = matrix_form_step(states[-1], h, sigma, hbar, grid.dt, dw)
        except StepDivergence as exc:
            raise StepDivergence(str(exc), step=k) from exc
        states.append(state)
        clamps += clamped
    return np.stack(states), clamps


class TestEigenbasisKernel:
    @pytest.mark.parametrize("dt", [1e-3, 1e-4])
    def test_matches_matrix_form_oracle(self, dt):
        # random H, some with forced degeneracies; at dt = 1e-3 some paths
        # need the clamp and some diverge, and both must happen at the
        # same steps as in the reference
        rng = np.random.default_rng(2001)
        degenerate = compared = 0
        for draw in range(6):
            h, rho0, spec, sigma, hbar, _, _ = random_instance(rng)
            degenerate += spec.d < h.shape[0]
            grid = TimeGrid.from_duration(1000 * dt, dt)
            noise = sample_noise(grid, np.random.default_rng(draw))
            try:
                expected, clamps = matrix_form_path(rho0, h, sigma, hbar, grid, noise)
            except StepDivergence as exc:
                with pytest.raises(StepDivergence) as caught:
                    simulate_sme(rho0, spec, sigma, hbar, grid, noise)
                assert caught.value.step == exc.step
                continue
            traj = simulate_sme(rho0, spec, sigma, hbar, grid, noise)
            assert np.max(np.abs(traj.states - expected)) <= 1e-12
            assert traj.repairs == clamps
            for k in range(0, grid.n_steps + 1, 100):
                m = moments(expected[k], h)
                assert traj.H[k] == pytest.approx(m.H, abs=1e-12)
                assert traj.V[k] == pytest.approx(m.V, abs=1e-12)
                assert traj.purity[k] == pytest.approx(np.vdot(expected[k], expected[k]).real, abs=1e-12)
                assert np.max(np.abs(traj.pi[k] - spec.level_probabilities(expected[k]))) <= 1e-12
                norms = offdiag_norms(expected[k], spec)
                for slot, pair in enumerate(spec.pairs()):
                    assert traj.offdiag[k, slot] == pytest.approx(norms[pair], abs=1e-12)
            compared += 1
        assert degenerate > 0 and compared >= 3

    def test_unitary_change_of_basis(self):
        h, rho0 = three_level()
        rng = np.random.default_rng(12)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        grid = TimeGrid.from_duration(1.0, 1e-3)
        noise = sample_noise(grid, np.random.default_rng(13))
        base = simulate_sme(rho0, spectral_decompose(h), 1.0, 1.0, grid, noise)
        turned = simulate_sme(u @ rho0 @ u.conj().T, spectral_decompose(u @ h @ u.conj().T),
                              1.0, 1.0, grid, noise)
        expected = u @ base.states @ u.conj().T
        assert np.max(np.abs(turned.states - expected)) <= 1e-12
        assert np.max(np.abs(turned.H - base.H)) <= 1e-12
        assert np.max(np.abs(turned.xi - base.xi)) <= 1e-12

    def test_divergence_names_failing_step(self):
        # a pure state kicked hard at step 6 leaves the PSD cone there
        grid = TimeGrid.from_duration(0.1, 1e-2)
        increments = np.zeros(grid.n_steps)
        increments[6] = 0.8
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.raises(StepDivergence) as caught:
            simulate_sme(rho, spectral_decompose(H2), 1.0, 1.0, grid, increments)
        assert caught.value.step == 6
        assert str(caught.value).startswith("step 6: ")
        # and says what to change
        assert str(caught.value).endswith("needs a smaller grid.dt, or --mode closed-form")

    def test_repair_counter(self):
        h, rho0 = three_level()
        grid = TimeGrid.from_duration(2.0, 2e-3)
        noise = sample_noise(grid, np.random.default_rng(0))
        assert simulate_sme(rho0, spectral_decompose(h), 0.0, 1.0, grid, noise).repairs == 0
        clamped = simulate_sme(rho0, spectral_decompose(h), 4.0, 1.0, grid, noise)
        expected, clamps = matrix_form_path(rho0, h, 4.0, 1.0, grid, noise)
        assert clamped.repairs == clamps > 0


RECORD_FIELDS = ("xi", "w", "pi", "H", "V", "purity", "offdiag", "states")


def bits(a):
    """The raw 64-bit words of a float or complex array."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestStepOracle:
    """simulate_sme against the per-call step of tests/sme_oracle.py, bit
    for bit: the oracle's states are replayed through simulate_sme's own
    record derivation and every field must match the real run's."""

    def assert_bitwise_equal_to_oracle(self, monkeypatch, rho0, spec, sigma, hbar, grid, noise):
        try:
            stack, clamped = sme_oracle.path(rho0, spec, sigma, hbar, grid, noise)
        except StepDivergence as exc:
            with pytest.raises(StepDivergence) as caught:
                simulate_sme(rho0, spec, sigma, hbar, grid, noise)
            assert caught.value.step == exc.step
            assert str(caught.value).startswith(str(exc))
            return None
        got = simulate_sme(rho0, spec, sigma, hbar, grid, noise)
        replay = iter(zip(stack[1:], clamped))
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "sme_step", lambda r, step, dw: next(replay))
            expected = simulate_sme(rho0, spec, sigma, hbar, grid, noise)
        for name in RECORD_FIELDS:
            assert np.array_equal(bits(getattr(got, name)), bits(getattr(expected, name))), name
        assert got.repairs == expected.repairs == sum(clamped)
        return got

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_builtin_instances(self, monkeypatch, name):
        h, rho0 = INSTANCES[name]()
        grid = TimeGrid.from_duration(2.0, 1e-3)
        noise = sample_noise(grid, np.random.default_rng(5))
        assert self.assert_bitwise_equal_to_oracle(
            monkeypatch, rho0, spectral_decompose(h), 1.0, 1.0, grid, noise) is not None

    def test_random_instances(self, monkeypatch):
        rng = np.random.default_rng(2003)
        grid = TimeGrid.from_duration(0.5, 1e-3)
        compared = 0
        for draw in range(8):
            _, rho0, spec, sigma, hbar, _, _ = random_instance(rng)
            noise = sample_noise(grid, np.random.default_rng(draw))
            compared += self.assert_bitwise_equal_to_oracle(
                monkeypatch, rho0, spec, sigma, hbar, grid, noise) is not None
        assert compared >= 4

    def test_clamping_run(self, monkeypatch):
        # the sigma = 4 run of test_repair_counter, which the clamp repairs
        h, rho0 = three_level()
        grid = TimeGrid.from_duration(2.0, 2e-3)
        noise = sample_noise(grid, np.random.default_rng(0))
        traj = self.assert_bitwise_equal_to_oracle(
            monkeypatch, rho0, spectral_decompose(h), 4.0, 1.0, grid, noise)
        assert traj.repairs > 0

    def test_diverging_run(self, monkeypatch):
        # a pure start leaves the PSD cone within a few steps at dt = 1e-3
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        grid = TimeGrid.from_duration(1.0, 1e-3)
        noise = sample_noise(grid, np.random.default_rng(2))
        with pytest.raises(StepDivergence) as caught:
            sme_oracle.path(rho, spectral_decompose(H2), 1.0, 1.0, grid, noise)
        assert caught.value.step == 3
        assert self.assert_bitwise_equal_to_oracle(
            monkeypatch, rho, spectral_decompose(H2), 1.0, 1.0, grid, noise) is None


def matrix_form_sse_step(psi, h, sigma, hbar, dt, dw):
    """Reference Euler-Maruyama step of the state vector with dense matrix
    products, renormalized to unit norm."""
    psi = np.asarray(psi, dtype=complex)
    norm2 = np.vdot(psi, psi).real
    if norm2 <= 0:
        raise StepDivergence("state vector has zero norm")
    h_t = np.vdot(psi, h @ psi).real / norm2
    centered = h - h_t * np.eye(h.shape[0])
    out = (
        psi
        + (-1j / hbar * (h @ psi) - 0.125 * sigma**2 * (centered @ (centered @ psi))) * dt
        + 0.5 * sigma * (centered @ psi) * dw
    )
    return out / np.linalg.norm(out)


class TestSseStep:
    def test_eigenvector_direction_unchanged(self):
        psi = np.array([0.0, 1.0], dtype=complex)
        out = sse_step(psi, E2, sigma=1.0, hbar=1.0, dt=1e-3, dw=0.1)
        assert abs(np.vdot(out, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_zero_norm_drift_second_order(self):
        # with sigma = 0 the noise drops out and the renormalized Euler step
        # follows the unitary evolution to second order in dt
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        for dt in (1e-2, 1e-3):
            out = sse_step(psi, E2, 0.0, 1.0, dt, 0.0)
            assert np.array_equal(out, sse_step(psi, E2, 0.0, 1.0, dt, 0.3))
            assert np.max(np.abs(out - np.exp(-1j * E2 * dt) * psi)) < dt**2

    @pytest.mark.parametrize("dt_pair", [(4e-3, 2e-3), (2e-3, 1e-3)])
    def test_projected_step_matches_master_equation_on_average(self, dt_pair):
        # the pathwise one-step gap carries a mean-zero (dW^2 - dt) term, so
        # the second-order agreement is measured on the noise average,
        # computed here by Gauss-Hermite quadrature
        rng = np.random.default_rng(3)
        n = 3
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        sigma, hbar = 0.8, 1.3
        nodes, weights = np.polynomial.hermite_e.hermegauss(15)
        weights = weights / weights.sum()
        # both steps run in h's eigenbasis; each result is rotated back
        e, u = np.linalg.eigh(h)
        c, r = u.conj().T @ psi, u.conj().T @ rho @ u

        def mean_defect(dt):
            acc = np.zeros((n, n), dtype=complex)
            for z, w in zip(nodes, weights):
                dw = np.sqrt(dt) * z
                p1 = u @ sse_step(c, e, sigma, hbar, dt, dw)
                raw = u @ sme_euler_raw(r, SmeConstants.build(e, sigma, hbar, dt), dw) @ u.conj().T
                acc += w * (np.outer(p1, p1.conj()) - raw)
            return float(np.max(np.abs(acc)))

        coarse, fine = dt_pair
        d_coarse = mean_defect(coarse)
        d_fine = mean_defect(fine)
        assert d_coarse < 5.0 * coarse**2
        assert 0.15 <= d_fine / d_coarse <= 0.40   # one dt halving of an O(dt^2) defect

    def test_zero_vector_rejected(self):
        with pytest.raises(StepDivergence):
            sse_step(np.zeros(2, dtype=complex), E2, 1.0, 1.0, 1e-3, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sse_step(np.ones(3, dtype=complex) / np.sqrt(3), E2, 1.0, 1.0, 1e-3, 0.0)
        with pytest.raises(DimensionMismatch):
            sse_step(np.ones(2, dtype=complex) / np.sqrt(2), H2, 1.0, 1.0, 1e-3, 0.0)

    def test_matches_matrix_form_oracle(self):
        # random H, some with forced degeneracies, and unnormalized psi: the
        # eigenbasis step rotated back agrees with the dense reference step
        rng = np.random.default_rng(2002)
        degenerate = 0
        for _ in range(40):
            h, _, spec, sigma, hbar, _, _ = random_instance(rng)
            degenerate += spec.d < h.shape[0]
            u, e = spec.basis, spec.eigenvalues
            psi = rng.standard_normal(len(e)) + 1j * rng.standard_normal(len(e))
            for dt in (1e-3, 1e-2):
                dw = float(rng.standard_normal()) * np.sqrt(dt)
                expected = matrix_form_sse_step(psi, h, sigma, hbar, dt, dw)
                got = u @ sse_step(u.conj().T @ psi, e, sigma, hbar, dt, dw)
                assert np.max(np.abs(got - expected)) <= 1e-12
        assert degenerate > 0


class TestLindblad:
    def test_energy_diagonal_state_is_stationary(self):
        rhs = lindblad_rhs(np.diag([0.25, 0.25, 0.5]).astype(complex), H3, 1.0, 1.0)
        assert np.max(np.abs(rhs)) < 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_rhs_is_traceless(self, seed):
        rng = np.random.default_rng(40 + seed)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        rhs = lindblad_rhs(rho, H3, 0.7, 1.1)
        assert abs(np.trace(rhs)) < 1e-14

    def test_coherence_decay_scalar_oracle(self):
        # the (upper, lower) coherence obeys r' = (-i dE/hbar - sigma^2 dE^2/8) r
        sigma, hbar = 1.3, 0.7
        rho0 = coherent_qubit()
        grid = TimeGrid.from_duration(2.0, 1e-3)
        path = integrate_lindblad(rho0, H2, sigma, hbar, grid)
        rate = -1j / hbar - 0.125 * sigma**2
        for k in (500, 1000, 2000):
            t = grid.times()[k]
            expected = 0.25 * np.exp(rate * t)
            assert abs(path[k][1, 0] - expected) < 1e-9

    def test_sigma_zero_matches_unitary_propagator(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (g + g.conj().T) / 2
        rho0 = np.eye(3, dtype=complex) / 3 + 0.1 * np.diag([1, 0, -1]).astype(complex)
        rho0 = rho0 + 0.05 * (np.eye(3, k=1) + np.eye(3, k=-1)).astype(complex)
        rho0 = validate_density(rho0)
        spec = spectral_decompose(h)
        grid = TimeGrid.from_duration(1.0, 1e-3)
        path = integrate_lindblad(rho0, h, 0.0, 1.0, grid)
        # exp(-i H t / hbar) at t = hbar = 1, assembled from the eigensystem
        u = (spec.basis * np.exp(-1j * spec.eigenvalues)) @ spec.basis.conj().T
        exact = u @ rho0 @ u.conj().T
        assert np.max(np.abs(path[-1] - exact)) < 1e-10

    def test_diagonal_initial_state_constant_path(self):
        rho0 = np.diag([0.25, 0.25, 0.5]).astype(complex)
        grid = TimeGrid.from_duration(1.0, 1e-2)
        path = integrate_lindblad(rho0, H3, 1.0, 1.0, grid)
        assert np.max(np.abs(path[-1] - rho0)) < 1e-13

    def test_long_time_decoherence_keeps_diagonal(self):
        rho0 = coherent_qubit()
        grid = TimeGrid.from_duration(200.0, 1e-2)
        path = integrate_lindblad(rho0, H2, 1.0, 1.0, grid)
        final = path[-1]
        assert abs(final[0, 1]) < 1e-10
        assert final[0, 0].real == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_rk4_matches_the_exact_mean_state(self, name):
        # the mean-state equation is diagonal in the level blocks: the
        # populations stay put and each coherence block decays at
        # sigma^2 (E_n - E_m)^2 / 8, which FilterModel.mean_state writes out
        # (for one time, as check_variance_decay asks, and for the whole
        # grid, as the lindblad command asks)
        h, rho0 = INSTANCES[name]()
        sigma, hbar = 1.3, 0.8
        grid = TimeGrid.from_duration(2.0, 1e-3)
        path = integrate_lindblad(rho0, h, sigma, hbar, grid)
        model = FilterModel(rho0, spectral_decompose(h), sigma, hbar)
        assert np.max(np.abs(path[-1] - model.mean_state(2.0))) < 1e-10
        assert np.max(np.abs(path - model.mean_state(grid.times()))) < 1e-10


class TestIntegratorEnsemble:
    def test_discrete_ensemble_matches_analytic_structure(self):
        # the integrator itself (not the closed form) must show the energy
        # martingale, the variance envelope, and the mean-state equation
        rng = np.random.default_rng(77)
        rho0 = coherent_qubit()
        sigma = 1.0
        grid = TimeGrid.from_duration(1.5, 5e-3)
        n = 300
        h_paths = np.empty((n, grid.n_steps + 1))
        v_paths = np.empty((n, grid.n_steps + 1))
        states = np.empty((n, grid.n_steps + 1, 2, 2), dtype=complex)
        for i in range(n):
            traj = simulate_sme(rho0, spectral_decompose(H2), sigma, 1.0, grid, sample_noise(grid, rng))
            h_paths[i] = traj.H
            v_paths[i] = traj.V
            states[i] = traj.states

        h0 = 0.5
        se_h = h_paths.std(axis=0, ddof=1) / np.sqrt(n)
        dev_h = np.abs(h_paths.mean(axis=0) - h0)
        assert np.all(dev_h[1:] <= 3.5 * se_h[1:] + 5e-3 * grid.dt)

        # the Euler scheme carries a first-order weak bias (measured ~0.7 dt
        # on this instance), so the envelope and mean-state comparisons get
        # an O(dt) allowance on top of the confidence band
        v_mean = v_paths.mean(axis=0)
        se_v = v_paths.std(axis=0, ddof=1) / np.sqrt(n)
        envelope = variance_bound(0.25, sigma, grid.times())
        assert np.all(v_mean <= envelope + 3 * se_v + 1.0 * grid.dt)

        lind = integrate_lindblad(rho0, H2, sigma, 1.0, grid)
        for k in (100, 200, 300):
            target = lind[k]
            mean_state = states[:, k].mean(axis=0)
            se_re = states[:, k].real.std(axis=0, ddof=1) / np.sqrt(n)
            se_im = states[:, k].imag.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(mean_state.real - target.real) <= 3.5 * se_re + 1.0 * grid.dt)
            assert np.all(np.abs(mean_state.imag - target.imag) <= 3.5 * se_im + 1.0 * grid.dt)


class TestVarianceBound:
    def test_zero_initial_variance(self):
        assert variance_bound(0.0, 1.0, 5.0) == 0.0

    def test_direct_arithmetic(self):
        assert variance_bound(0.25, 1.0, 12.0) == pytest.approx(0.0625)

    def test_time_zero(self):
        assert variance_bound(0.25, 2.0, 0.0) == pytest.approx(0.25)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            variance_bound(-0.1, 1.0, 1.0)
