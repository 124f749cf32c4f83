import numpy as np
import pytest
import sme_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import (
    DEFAULT_TOLS,
    FilterModel,
    TimeGrid,
    ToleranceSet,
    closed_form_state,
    closed_form_trajectory,
    default_horizon,
    luders_state,
    moments,
    recovered_brownian,
    sample_noise,
    sde_gap,
    spectral_decompose,
    state_decomposition,
    validate_density,
)
from reduction_lab.acceptance import random_instance
from reduction_lab.dynamics import ROW_BLOCK
from reduction_lab.errors import DimensionMismatch, NonFiniteInput, ValidationError
from reduction_lab.filtering import _normalize_log, level_cdf
from reduction_lab.instances import INSTANCES, three_level, two_level

H2, RHO_A = two_level()
SPEC2 = spectral_decompose(H2)
H3, RHO_B = three_level()
SPEC3 = spectral_decompose(H3)
HALF = np.eye(2, dtype=complex) / 2


def draw_terminal_xi(model, rng, t, n):
    """n exact samples of (level, xi_t) under the signal-plus-noise law."""
    levels = np.searchsorted(np.cumsum(model.p), rng.random(n), side="right")
    xi = model.sigma * model.energies[levels] * t + rng.standard_normal(n) * np.sqrt(t)
    return levels, xi


class TestSampleTerminalEnergy:
    def test_eigenprojector_always_hits_its_level(self):
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        rng = np.random.default_rng(0)
        model = FilterModel(rho0, SPEC3, 1.0)
        assert all(model.draw_level(rng.random()) == 1 for _ in range(200))
        assert np.all(model.draw_level(rng.random(200)) == 1)

    def test_weightless_state_rejected(self):
        from reduction_lab.errors import DegenerateDistribution

        with pytest.raises(DegenerateDistribution):
            FilterModel(np.zeros((3, 3), dtype=complex), SPEC3, 1.0).draw_level(0.5)

    def test_symmetric_two_level_frequencies(self):
        rng = np.random.default_rng(1)
        n = 10_000
        model = FilterModel(HALF, SPEC2, 1.0)
        hits = sum(model.draw_level(rng.random()) for _ in range(n))
        assert abs(hits / n - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_largest_draw_lands_on_the_last_weighted_level(self):
        # the weights (1, 4, 1, 1) / 7 sum to 0.9999999999999998, so an
        # unclamped CDF sends the largest draw below 1 past the last level
        largest = np.nextafter(1.0, 0.0)
        spec = spectral_decompose(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex))
        model = FilterModel(np.diag([1.0, 4.0, 1.0, 1.0]).astype(complex) / 7, spec, 1.0)
        assert model.draw_level(largest) == 3
        assert model.draw_level(largest, level_cdf((1, 4, 1, 1))) == 3
        assert model.draw_level(largest, level_cdf((1, 4, 1, 1, 0))) == 3
        assert level_cdf((1, 4, 1, 1))[-1] == 1.0

    def test_three_level_frequencies_match_traces(self):
        rng = np.random.default_rng(2)
        n = 10_000
        p = SPEC3.level_probabilities(RHO_B)      # (0.25, 0.25, 0.5) by trace
        model = FilterModel(RHO_B, SPEC3, 1.0)
        counts = np.bincount(model.draw_level(rng.random(n)), minlength=3)
        for r in range(3):
            assert abs(counts[r] / n - p[r]) <= 3 * np.sqrt(p[r] * (1 - p[r]) / n)


class TestInformationProcess:
    def test_zero_noise_is_pure_drift(self):
        grid = TimeGrid.from_duration(1.0, 0.1)
        model = FilterModel(HALF, SPEC2, sigma=2.0)
        xi = closed_form_trajectory(model, grid, 1, np.zeros(grid.n_steps)).xi
        assert np.allclose(xi, 2.0 * grid.times())
        assert np.array_equal(xi, 2.0 * SPEC2.energies[1] * grid.times())

    def test_increment_statistics(self):
        grid = TimeGrid.from_duration(1.0, 0.05)
        rng = np.random.default_rng(3)
        model = FilterModel(HALF, SPEC2, 1.0)
        increments = []
        for _ in range(400):
            xi = closed_form_trajectory(model, grid, 1, sample_noise(grid, rng)).xi
            increments.append(np.diff(xi))
        increments = np.concatenate(increments)
        drift = 1.0 * SPEC2.energies[1] * grid.dt
        n = increments.size
        assert abs(increments.mean() - drift) <= 3 * np.sqrt(grid.dt / n)
        assert abs(increments.var() - grid.dt) <= 4 * grid.dt * np.sqrt(2.0 / n)

    def test_fixed_seed_reproducible(self):
        grid = TimeGrid.from_duration(1.0, 0.1)
        model = FilterModel(HALF, SPEC2, 1.0)
        a = closed_form_trajectory(model, grid, 0, sample_noise(grid, np.random.default_rng(7)))
        b = closed_form_trajectory(model, grid, 0, sample_noise(grid, np.random.default_rng(7)))
        assert np.array_equal(a.xi, b.xi)


class TestFilterWeights:
    # the filter weights are the posterior of FilterModel at one (t, xi)
    def test_time_zero_returns_priors(self):
        pi, _ = FilterModel(RHO_B, SPEC3, sigma=1.0).posterior(0.0, 0.0)
        assert np.allclose(pi, SPEC3.level_probabilities(RHO_B), atol=1e-14)

    def test_two_level_scalar_oracle(self):
        # direct evaluation: pi_2 = e^{1/2} / (1 + e^{1/2})
        pi, _ = FilterModel(HALF, SPEC2, sigma=1.0).posterior(1.0, 1.0)
        expected = np.exp(0.5) / (1.0 + np.exp(0.5))
        assert pi[1] == pytest.approx(expected, abs=1e-12)
        assert pi[1] == pytest.approx(0.62246, abs=5e-6)

    def test_large_observation_selects_top_level(self):
        pi, log_z = FilterModel(RHO_B, SPEC3, sigma=1.0).posterior(2.0, 500.0)
        assert pi[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(pi)) and np.isfinite(log_z)

    def test_probabilities_normalized(self):
        model = FilterModel(RHO_B, SPEC3, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(25):
            xi = float(rng.normal(scale=30.0))
            t = float(rng.uniform(0, 40))
            pi, _ = model.posterior(t, xi)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            state_decomposition(HALF, SPEC2, 1.0, 1.0, np.inf, 0.0)


class TestNormalizeLog:
    @pytest.mark.parametrize("d", [2, 3, 7, 8, 9])
    def test_matches_a_trailing_axis_reduction_bit_for_bit(self, d):
        # the level loops must give exactly the bits of np.max / np.sum over
        # a contiguous trailing level axis, for short and long level axes
        rng = np.random.default_rng(d)
        logw = rng.standard_normal((d, 40, 30)) * 50.0
        logw[1, :5] = -np.inf                       # an unpopulated level
        pi, log_z = _normalize_log(logw)
        trailing = np.ascontiguousarray(np.moveaxis(logw, 0, -1))
        top = np.max(trailing, axis=-1, keepdims=True)
        w = np.exp(trailing - top)
        z = np.sum(w, axis=-1, keepdims=True)
        assert np.array_equal(np.moveaxis(pi, 0, -1), w / z)
        assert np.array_equal(log_z, (top + np.log(z))[..., 0])


class TestClosedFormState:
    def test_time_zero_identity(self):
        out = closed_form_state(RHO_B, SPEC3, 1.0, 1.0, 0.0, 0.0)
        assert np.max(np.abs(out - RHO_B)) < 1e-14

    def test_energy_diagonal_initial_state_follows_weights(self):
        rho0 = np.diag([0.25, 0.25, 0.5]).astype(complex)
        out = closed_form_state(rho0, SPEC3, 1.0, 1.0, 0.7, 1.3)
        pi, _ = FilterModel(rho0, SPEC3, 1.0).posterior(0.7, 1.3)
        assert np.allclose(np.diag(out).real, pi, atol=1e-12)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-15

    def test_pure_state_stays_pure(self):
        psi = np.array([1.0, 1.0j, -1.0], dtype=complex) / np.sqrt(3)
        rho0 = np.outer(psi, psi.conj())
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = float(rng.uniform(0, 30))
            xi = float(rng.normal(scale=10.0))
            out = closed_form_state(rho0, SPEC3, 1.0, 1.0, t, xi)
            assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-10)

    def test_strong_convergence_toward_integrated_sde(self):
        # the integrator driven by the reconstructed increments closes in on
        # the exact states as the step shrinks
        from reduction_lab import simulate_sme

        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        t_max, dt = 1.0, 4e-3
        rng = np.random.default_rng(2)
        level = int(np.searchsorted(np.cumsum(model.p), rng.random(), side="right"))
        n_fine = 4 * round(t_max / dt)
        dw_fine = rng.standard_normal(n_fine) * np.sqrt(dt / 4)

        def run(b_incr, d):
            grid = TimeGrid.from_duration(t_max, d)
            times = grid.times()
            xi = closed_form_trajectory(model, grid, level, b_incr).xi
            w = recovered_brownian(model, grid, level, b_incr)
            traj = simulate_sme(RHO_B, SPEC3, 1.0, 1.0, grid, np.diff(w))
            pi, log_z = model.posterior(times, xi)
            exact = model.assemble(times, pi, model.phi(times, xi, pi))
            return float(np.max(np.abs(traj.states - exact)))

        err_coarse = run(dw_fine.reshape(-1, 4).sum(axis=1), dt)
        err_fine = run(dw_fine, dt / 4)
        assert err_coarse < 5e-2
        assert err_fine < err_coarse

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            closed_form_state(RHO_B, SPEC3, 1.0, 1.0, 1.0, np.nan)


def energy_estimate(rho0, spec, sigma, t, xi):
    """Conditional energy sum_r pi_r(t) E_r at one observation."""
    model = FilterModel(rho0, spec, sigma)
    return float(model.energy(model.posterior(t, xi)[0]))


class TestEnergyEstimate:
    def test_time_zero(self):
        assert energy_estimate(RHO_B, SPEC3, 1.0, 0.0, 0.0) == pytest.approx(1.25)

    def test_matches_filter_oracle(self):
        est = energy_estimate(HALF, SPEC2, 1.0, 1.0, 1.0)
        assert est == pytest.approx(np.exp(0.5) / (1 + np.exp(0.5)), abs=1e-12)

    def test_agrees_with_state_moments(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            t = float(rng.uniform(0, 10))
            xi = float(rng.normal(scale=5.0))
            est = energy_estimate(RHO_B, SPEC3, 1.0, t, xi)
            state = closed_form_state(RHO_B, SPEC3, 1.0, 1.0, t, xi)
            assert est == pytest.approx(moments(state, H3).H, abs=1e-9)

    def test_long_drifting_observation_converges(self):
        grid = TimeGrid.from_duration(60.0, 0.1)
        model = FilterModel(RHO_B, SPEC3, 1.0)
        xi = closed_form_trajectory(model, grid, 1, sample_noise(grid, np.random.default_rng(8))).xi
        est = energy_estimate(RHO_B, SPEC3, 1.0, grid.t_max, float(xi[-1]))
        assert est == pytest.approx(SPEC3.energies[1], abs=1e-6)


class TestRecoveredBrownian:
    def test_sigma_zero_returns_observation(self):
        grid = TimeGrid.from_duration(1.0, 0.01)
        model = FilterModel(HALF, SPEC2, 0.0)
        path = closed_form_trajectory(model, grid, 0, sample_noise(grid, np.random.default_rng(9)))
        assert np.array_equal(path.w, path.xi)

    def test_reconstructed_noise_is_standard(self):
        # terminal mean ~ 0, terminal variance ~ T, increments uncorrelated
        t_max, dt, n = 4.0, 0.05, 3000
        grid = TimeGrid.from_duration(t_max, dt)
        rng = np.random.default_rng(10)
        model = FilterModel(HALF, SPEC2, 1.0)
        terminals = np.empty(n)
        lag_products = []
        for i in range(n):
            level = model.draw_level(rng.random())
            w = recovered_brownian(model, grid, level, sample_noise(grid, rng))
            terminals[i] = w[-1]
            dw = np.diff(w)
            lag_products.append(np.mean(dw[1:] * dw[:-1]))
        assert abs(terminals.mean()) <= 3 * np.sqrt(t_max / n)
        assert abs(terminals.var() - t_max) <= 4 * t_max * np.sqrt(2.0 / n)
        # E[dW_k dW_{k+1}] = 0; averaged over paths and lags
        lag = float(np.mean(lag_products))
        assert abs(lag) <= 3 * dt / np.sqrt(n * (grid.n_steps - 1))

    def test_starts_at_zero(self):
        grid = TimeGrid.from_duration(1.0, 0.1)
        noise = sample_noise(grid, np.random.default_rng(11))
        assert recovered_brownian(FilterModel(HALF, SPEC2, 1.0), grid, 1, noise)[0] == 0.0


class TestPhiProcess:
    # Phi_nm and the phase exp[-i (E_n - E_m) t / hbar] of the block
    # P_n rho_t P_m, from FilterModel.phi and .pair_phases (pairs n < m)
    def test_time_zero_unity(self):
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        assert model.phi(0.0, 0.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert model.pair_phases(0.0)[0] == pytest.approx(1.0 + 0.0j)

    def test_phase_carries_level_gap(self):
        model = FilterModel(RHO_B, SPEC3, 1.0, hbar=2.0)
        phase = model.pair_phases(0.25)[model.pairs.index((0, 2))]
        assert phase == pytest.approx(np.exp(-1j * (0.0 - 2.0) * 0.25 / 2.0))

    def test_scalar_matches_vectorized_model(self):
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        t, xi = 3.0, 1.7
        batch = model.phi(np.array([0.5, t]), np.array([-1.0, xi]))[1]
        for slot in range(len(model.pairs)):
            phi = model.phi(t, xi)[slot]
            assert phi == pytest.approx(float(batch[slot]), rel=1e-12)

    def test_mean_decay_rate(self):
        # E[Phi_nm(t)] = exp(-sigma^2 (E_n - E_m)^2 t / 8); at t = 8 with a
        # unit gap that is e^{-1}
        model = FilterModel(HALF, SPEC2, 1.0, 1.0)
        rng = np.random.default_rng(12)
        t, n = 8.0, 20_000
        _, xi = draw_terminal_xi(model, rng, t, n)
        phi = model.phi(np.full(n, t), xi)[:, 0]
        se = phi.std(ddof=1) / np.sqrt(n)
        assert abs(phi.mean() - np.exp(-1.0)) <= 3 * se
        assert phi.mean() == pytest.approx(0.3679, abs=3.5 * se + 1e-4)

    def test_compensated_process_is_martingale(self):
        # Pi = Phi * exp(+ sigma^2 (E_n - E_m)^2 t / 8) has constant mean 1
        model = FilterModel(HALF, SPEC2, 1.0, 1.0)
        rng = np.random.default_rng(13)
        n = 20_000
        for t in (0.5, 2.0, 6.0):
            _, xi = draw_terminal_xi(model, rng, t, n)
            pi_nm = model.phi(np.full(n, t), xi)[:, 0] * np.exp(t / 8.0)
            se = pi_nm.std(ddof=1) / np.sqrt(n)
            assert abs(pi_nm.mean() - 1.0) <= 3 * se


class TestPhiFromPosterior:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_log_domain_formula(self, seed):
        # Phi_nm = exp[sigma (E_n + E_m) xi / 2 - sigma^2 (E_n^2 + E_m^2) t / 4 - log Z]
        rng = np.random.default_rng(seed)
        _, rho0, spec, sigma, hbar, t, xi = random_instance(rng)
        model = FilterModel(rho0, spec, sigma, hbar)
        ts = np.array([0.0, t, 2.0 * t + 0.5])
        xis = np.array([0.0, xi, -0.5 * xi + 1.0])
        e = model.energies
        log_w = np.log(model.p) + sigma * np.outer(xis, e) - 0.5 * sigma**2 * np.outer(ts, e**2)
        top = log_w.max(axis=1, keepdims=True)
        log_z = top[:, 0] + np.log(np.exp(log_w - top).sum(axis=1))
        # Phi from pi is exact to rounding while pi_n and pi_m are normal
        # floats; a posterior below ~1e-308 has lost its digits
        normal = log_w - log_z[:, None] > np.log(np.finfo(float).tiny)
        phi = model.phi(ts, xis)
        for slot, (n, m) in enumerate(model.pairs):
            ref = np.exp(0.5 * sigma * (e[n] + e[m]) * xis
                         - 0.25 * sigma**2 * (e[n] ** 2 + e[m] ** 2) * ts - log_z)
            rows = normal[:, n] & normal[:, m]
            assert np.all(np.abs(phi[rows, slot] - ref[rows]) <= 1e-12 * ref[rows]), (n, m)

    def test_weightless_level_gives_zero(self):
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[:2, :2] = [[0.5, 0.2], [0.2, 0.5]]
        model = FilterModel(rho0, SPEC3, 1.0, 1.0)
        phi = model.phi(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert np.array_equal(phi[:, 1:], np.zeros((2, 2)))
        assert phi[0, 0] == 1.0


class TestStateDecomposition:
    def test_time_zero_recombines_initial_state(self):
        out = state_decomposition(RHO_B, SPEC3, 1.0, 1.0, 0.0, 0.0)
        assert np.max(np.abs(out - RHO_B)) < 1e-14

    def test_long_horizon_lands_on_luders_state(self):
        from reduction_lab.instances import degenerate

        grid = TimeGrid.from_duration(150.0, 0.5)
        h, rho0 = degenerate()
        spec = spectral_decompose(h)
        model = FilterModel(rho0, spec, 1.0)
        xi = closed_form_trajectory(model, grid, 0, sample_noise(grid, np.random.default_rng(16))).xi
        out = state_decomposition(rho0, spec, 1.0, 1.0, grid.t_max, float(xi[-1]))
        target = luders_state(rho0, spec, 0)
        assert np.max(np.abs(out - target)) < 1e-6
        assert np.vdot(out, out).real == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_propagator_route(self, seed):
        from reduction_lab.acceptance import random_instance

        rng = np.random.default_rng(500 + seed)
        h, rho0, spec, sigma, hbar, t, xi = random_instance(rng)
        direct = closed_form_state(rho0, spec, sigma, hbar, t, xi)
        assembled = state_decomposition(rho0, spec, sigma, hbar, t, xi)
        assert np.max(np.abs(direct - assembled)) < 1e-12

    def test_propagator_route_sees_a_split_the_grouping_merges(self):
        # the default tolerance merges E = 1 and 1 + 5e-9 into one level;
        # only the decomposition route reads the grouping
        spec = spectral_decompose(np.diag([0.0, 1.0, 1.0 + 5e-9]).astype(complex))
        assert spec.d == 2
        direct = closed_form_state(RHO_B, spec, 1.0, 1.0, 2.0, 1.0)
        assembled = state_decomposition(RHO_B, spec, 1.0, 1.0, 2.0, 1.0)
        assert np.max(np.abs(direct - assembled)) > 1e-10

    def test_luders_floor_is_the_one_luders_state_checks(self):
        # level 2 weighs 1e-13, under luders_state's floor: the model keeps a
        # zero Lueders state for it whatever tolerance set it is given
        rho0 = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
        for tols in (DEFAULT_TOLS, ToleranceSet(luders_floor=1e-14)):
            model = FilterModel(rho0, SPEC2, 1.0, 1.0, tols)
            assert model.p[1] == pytest.approx(1e-13, rel=1e-6)
            assert not model.luders_stack[1].any()
            assert model.luders_purity[1] == 0.0


class TestCollapseStatistics:
    def test_posterior_concentrates_on_all_paths(self):
        # by t_max = 150 / (sigma min-gap)^2 every sampled path has locked on
        model = FilterModel(RHO_A, SPEC2, 1.0, 1.0)
        rng = np.random.default_rng(17)
        n, t = 2000, 150.0
        levels, xi = draw_terminal_xi(model, rng, t, n)
        pi, _ = model.posterior(np.full(n, t), xi)
        assert np.all(pi.max(axis=1) > 1.0 - 1e-6)

    def test_born_frequencies_and_terminal_moments(self):
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        rng = np.random.default_rng(18)
        n, t = 3000, 60.0
        levels, xi = draw_terminal_xi(model, rng, t, n)
        pi, _ = model.posterior(np.full(n, t), xi)
        outcome = np.argmax(pi, axis=1)
        for r in range(3):
            p = model.p[r]
            assert abs(np.mean(outcome == r) - p) <= 3 * np.sqrt(p * (1 - p) / n)
        h_t = pi @ model.energies
        m = moments(RHO_B, H3)
        assert abs(h_t.mean() - m.H) <= 3 * h_t.std(ddof=1) / np.sqrt(n)

    def test_martingale_of_posterior_weights(self):
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        rng = np.random.default_rng(19)
        n = 5000
        for t in (0.5, 3.0, 10.0):
            _, xi = draw_terminal_xi(model, rng, t, n)
            pi, _ = model.posterior(np.full(n, t), xi)
            for r in range(3):
                se = pi[:, r].std(ddof=1) / np.sqrt(n)
                assert abs(pi[:, r].mean() - model.p[r]) <= 3.5 * se


class TestDefaultHorizon:
    def test_two_level_reference_value(self):
        # max(50 / (sigma gap)^2, 10 / (sigma^2 V0)) = max(50, 40)
        assert default_horizon(FilterModel(RHO_A, SPEC2, 1.0)) == pytest.approx(50.0)

    def test_degenerate_spectrum_falls_back(self):
        spec = spectral_decompose(np.zeros((2, 2), dtype=complex))
        assert default_horizon(FilterModel(HALF, spec, 1.0)) == 1.0


class TestClosedFormTrajectory:
    def test_columns_consistent_with_pointwise_ops(self):
        grid = TimeGrid.from_duration(2.0, 0.1)
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        noise = sample_noise(grid, np.random.default_rng(20))
        traj = closed_form_trajectory(model, grid, 2, noise)
        k = 7
        t, xi = grid.times()[k], float(traj.xi[k])
        pi, _ = model.posterior(t, xi)
        assert np.allclose(traj.pi[k], pi, atol=1e-12)
        state = closed_form_state(RHO_B, SPEC3, 1.0, 1.0, t, xi)
        assert traj.purity[k] == pytest.approx(np.vdot(state, state).real, abs=1e-10)
        assert traj.H[k] == pytest.approx(moments(state, H3).H, abs=1e-10)
        assert traj.V[k] == pytest.approx(moments(state, H3).V, abs=1e-10)
        w = recovered_brownian(model, grid, 2, noise)
        assert np.array_equal(traj.w, w)
        for slot, phi in enumerate(model.phi(t, xi)):
            assert traj.offdiag[k, slot] == pytest.approx(phi * model.r0_norm[slot], rel=1e-12)

    def test_states_assembled_from_columns_are_valid(self):
        grid = TimeGrid.from_duration(5.0, 0.05)
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        traj = closed_form_trajectory(model, grid, 0, sample_noise(grid, np.random.default_rng(21)))
        times = grid.times()
        states = model.assemble(times, traj.pi, model.phi(times, traj.xi, traj.pi))
        for k in range(0, grid.n_steps + 1, 25):
            validate_density(states[k])

    def test_non_finite_increment_rejected(self):
        grid = TimeGrid.from_duration(1.0, 0.1)
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        for bad in (np.nan, np.inf):
            b = np.zeros(grid.n_steps)
            b[3] = bad
            with pytest.raises(NonFiniteInput):
                closed_form_trajectory(model, grid, 0, b)

    @pytest.mark.parametrize("shape", [(12,), (10, 1), (1, 10)])
    def test_increments_off_the_grid_rejected(self, shape):
        grid = TimeGrid.from_duration(1.0, 0.1)
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            closed_form_trajectory(model, grid, 0, np.zeros(shape))

    @pytest.mark.parametrize("level", [7, 3, -1])
    def test_level_outside_the_spectrum_rejected(self, level):
        grid = TimeGrid.from_duration(1.0, 0.1)
        model = FilterModel(RHO_B, SPEC3, 1.0, 1.0)
        with pytest.raises(ValidationError, match="level"):
            closed_form_trajectory(model, grid, level, np.zeros(grid.n_steps))
        with pytest.raises(ValidationError, match="level"):
            recovered_brownian(model, grid, level, np.zeros(grid.n_steps))


class TestSdeGap:
    """sde_gap assembles the exact states ROW_BLOCK grid times at a time;
    its gap must be the whole-grid one of tests/sme_oracle.py bit for bit,
    across several blocks and a partial last one."""

    @pytest.mark.parametrize("name, sigma, dt, n_steps", [
        ("three_level", 1.0, 1e-3, 3000),
        ("degenerate", 1.0, 1e-3, 2 * ROW_BLOCK),    # a last block of one row
        ("three_level", 4.0, 2e-3, 2500),            # a run the clamp repairs
    ])
    def test_blocks_give_the_whole_grid_gap(self, name, sigma, dt, n_steps):
        h, rho0 = INSTANCES[name]()
        model = FilterModel(rho0, spectral_decompose(h), sigma, 1.0)
        grid = TimeGrid(dt=dt, n_steps=n_steps)
        noise = sample_noise(grid, np.random.default_rng(0))
        closed = closed_form_trajectory(model, grid, model.spec.d - 1, noise)
        sde, gap = sde_gap(model, closed)
        expected = sme_oracle.gap(model, closed, sde.states)
        assert np.array_equal(gap.view(np.uint64), expected.view(np.uint64))
        assert sigma < 4.0 or sde.repairs > 0
