import dataclasses
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from reduction_lab import RunConfig, TimeGrid, harness, run_ensemble
from reduction_lab.errors import ValidationError
from reduction_lab.harness import CHECK_NAMES, CHECKS, path_rngs, thread_count
from reduction_lab.reporting import summary_columns, summary_report
from reduction_lab.instances import degenerate, three_level, two_level

H2, RHO_A = two_level()
H3, RHO_B = three_level()


def small_config(**overrides):
    base = dict(
        hamiltonian=H2,
        rho0=RHO_A,
        t_max=20.0, dt=0.2,
        n_paths=2000,
        seed=42,
        checks=("born", "martingales", "decoherence"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestConfigValidation:
    def test_ci_checks_need_enough_paths(self):
        with pytest.raises(ValidationError):
            small_config(n_paths=50)

    def test_single_path_without_checks_allowed(self):
        cfg = small_config(n_paths=1, checks=())
        assert cfg.n_paths == 1

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError):
            small_config(checks=("born", "bogus"))

    def test_check_times_must_be_on_grid(self):
        cfg = small_config(checks=(), check_times=(0.33,))
        with pytest.raises(ValidationError):
            run_ensemble(cfg)

    def test_oversized_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid.t_max / grid.dt"):
            small_config(t_max=1e4, dt=1e-3)

    def test_all_zero_sampler_bias_rejected(self):
        with pytest.raises(ValidationError, match="sampler_bias"):
            small_config(checks=("born",), sampler_bias=(0.0, 0.0))

    def test_path_count_fits_one_spawn_key_word(self):
        # path i is seeded from the one 32-bit word i, so 2**32 paths fit
        assert small_config(checks=(), n_paths=2**32).n_paths == 2**32
        with pytest.raises(ValidationError, match="n_paths"):
            small_config(checks=(), n_paths=2**32 + 1)

    @pytest.mark.parametrize("field, value, named", [
        ("seed", -1, "seed"),
        ("seed", True, "seed"),
        ("n_paths", True, "n_paths"),
        ("output_dir", "", "output.dir"),
        ("check_times", (float("nan"),), "check_times"),
        ("sampler_bias", (-1.0, 2.0), "sampler_bias"),
        ("rho0", 2.0 * RHO_A, "rho0"),
        ("rho0", RHO_A + np.array([[0.0, 0.1], [0.0, 0.0]]), "rho0"),
        ("rho0", np.diag([1.5, -0.5]).astype(complex), "rho0"),
        ("rho0", RHO_B, "rho0"),
        ("sigma", float("nan"), "sigma"),
        ("sigma", -1.0, "sigma"),
        ("hbar", 0.0, "hbar"),
        ("drift_multiplier", float("inf"), "drift_multiplier"),
    ])
    def test_library_inputs_pass_the_config_validators(self, field, value, named):
        # a seed of -1 used to die inside numpy, NaN values were accepted, a
        # rho0 of trace 2 or one that is not Hermitian passed every check, and
        # a 3x3 rho0 with the 2x2 H died in a bare numpy matmul error
        with pytest.raises(ValidationError, match=named):
            small_config(checks=(), **{field: value})


class TestSummaryShape:
    def test_single_path_summary_flags_undefined_stderr(self):
        cfg = small_config(n_paths=1, checks=())
        summary = run_ensemble(cfg)
        assert not summary.stderr_defined
        assert np.all(np.isnan(summary.h_series.se))
        # a single path is its own ensemble mean
        assert summary.born_freqs.sum() == 1.0
        assert summary.terminal["h_mean"] == summary.h_series.mean[-1]

    def test_eigenprojector_start_is_trivially_clean(self):
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        cfg = small_config(rho0=rho0, n_paths=500,
                           checks=("born", "martingales", "variance_decay", "luders"))
        # an eigenprojector start has V identically zero, any horizon works
        summary = run_ensemble(cfg)
        assert np.all(summary.v_series.mean == 0.0)
        assert summary.born_freqs[1] == 1.0
        assert all(v.passed for v in summary.checks.values())

    def test_frequencies_sum_to_one_and_verdicts_present(self):
        summary = run_ensemble(small_config())
        assert summary.born_freqs.sum() == pytest.approx(1.0, abs=1e-15)
        assert set(summary.checks) == {"born", "martingales", "decoherence"}
        for verdict in summary.checks.values():
            assert np.isfinite(verdict.statistic)
            assert verdict.threshold >= 0.0

    def test_requested_checks_only(self):
        summary = run_ensemble(small_config(checks=("born",)))
        assert list(summary.checks) == ["born"]


class TestCleanInstancesPass:
    def test_two_level_reference(self):
        # the terminal-variance gate needs the full collapse horizon
        summary = run_ensemble(small_config(t_max=150.0, dt=0.25,
                                            n_paths=4000))
        for name, verdict in summary.checks.items():
            assert verdict.passed, (name, verdict.statistic, verdict.details)

    def test_three_level_with_mean_state_comparison(self):
        cfg = RunConfig(
            hamiltonian=H3,
            rho0=RHO_B,
            t_max=150.0, dt=0.25,
            n_paths=4000,
            seed=7,
            checks=("born", "martingales", "variance_decay"),
            check_times=(0.5, 1.0, 2.0),
        )
        summary = run_ensemble(cfg)
        assert summary.checks["variance_decay"].passed
        assert summary.checks["variance_decay"].details["z_mean_state"] <= 3.0
        assert set(summary.mean_states) == {0.5, 1.0, 2.0}

    def test_degenerate_instance_luders(self):
        h, rho0 = degenerate()
        cfg = RunConfig(
            hamiltonian=h,
            rho0=rho0,
            t_max=150.0, dt=0.5,
            n_paths=1500,
            seed=3,
            checks=("luders",),
        )
        summary = run_ensemble(cfg)
        assert summary.checks["luders"].passed
        assert summary.luders[0]["target_purity"] == pytest.approx(0.5)
        assert summary.luders[1]["target_purity"] == pytest.approx(1.0)


class TestFrozenDynamics:
    def test_sigma_zero_martingales_are_exact(self):
        # no coupling: the posterior never moves, every conserved mean is
        # exact and the check passes with zero slack consumed
        summary = run_ensemble(small_config(sigma=0.0,
                                            checks=("martingales", "decoherence")))
        verdict = summary.checks["martingales"]
        assert verdict.passed
        assert verdict.statistic == 0.0
        assert np.all(summary.pi_series.mean == summary.model.p)
        assert summary.checks["decoherence"].passed


class TestNegativeControls:
    def test_doubled_drift_breaks_martingales(self):
        summary = run_ensemble(small_config(drift_multiplier=2.0,
                                            checks=("martingales",)))
        verdict = summary.checks["martingales"]
        assert not verdict.passed
        assert verdict.statistic > 5.0

    def test_biased_sampler_breaks_born(self):
        cfg = RunConfig(
            hamiltonian=H3,
            rho0=RHO_B,
            t_max=30.0, dt=0.5,
            n_paths=2000,
            seed=11,
            checks=("born",),
            sampler_bias=(0.5, 0.25, 0.25),
        )
        summary = run_ensemble(cfg)
        assert not summary.checks["born"].passed

    def test_verdicts_are_python_bools(self):
        # drift x 1.2 misses the decay slope by more than 10 %: that verdict
        # once came back as np.False_
        summary = run_ensemble(small_config(t_max=20.0, dt=0.05,
                                            seed=1, drift_multiplier=1.2,
                                            checks=CHECK_NAMES))
        assert not summary.checks["decoherence"].passed
        assert all(type(v.passed) is bool for v in summary.checks.values())

    def test_every_check_returns_python_scalars(self):
        # check_decoherence once returned its statistic as np.float64
        summary = run_ensemble(small_config(checks=CHECK_NAMES))
        assert set(summary.checks) == set(CHECKS)
        for name, verdict in summary.checks.items():
            assert type(verdict.statistic) is float, name
            assert type(verdict.passed) is bool, name

    def test_biased_sampler_still_normalizes_frequencies(self):
        cfg = small_config(checks=("born",), sampler_bias=(0.9, 0.1))
        summary = run_ensemble(cfg)
        assert summary.born_freqs.sum() == pytest.approx(1.0)


def _summaries_equal(a, b):
    return (
        np.array_equal(a.h_series.mean, b.h_series.mean)
        and np.array_equal(a.v_series.mean, b.v_series.mean)
        and np.array_equal(a.pi_series.mean, b.pi_series.mean)
        and np.array_equal(a.phi_series.mean, b.phi_series.mean)
        and np.array_equal(a.purity_series.se, b.purity_series.se)
        and np.array_equal(a.born_counts, b.born_counts)
        and a.terminal == b.terminal
    )


class TestDeterminism:
    def test_rerun_bitwise_identical(self):
        a = run_ensemble(small_config())
        b = run_ensemble(small_config())
        assert _summaries_equal(a, b)

    def test_thread_count_does_not_change_results(self):
        # chunk partials are reduced in fixed order whatever computes them
        cfg = small_config(n_paths=1600)   # several chunks
        serial = run_ensemble(cfg)
        with mock.patch.dict(os.environ, {"REDUCTION_LAB_THREADS": "4"}):
            assert thread_count() == 4
            threaded = run_ensemble(cfg)
        assert _summaries_equal(serial, threaded)

    def test_seed_changes_results(self):
        a = run_ensemble(small_config())
        b = run_ensemble(small_config(seed=43))
        assert not np.array_equal(a.h_series.mean, b.h_series.mean)

    def test_thread_env_parsing(self):
        with mock.patch.dict(os.environ, {"REDUCTION_LAB_THREADS": "junk"}):
            assert thread_count() == 1

    def test_non_integer_thread_env_warns(self, capsys):
        # 0 and -3 used to run one thread without a word
        for raw in ("abc", "0", "-3"):
            with mock.patch.dict(os.environ, {"REDUCTION_LAB_THREADS": raw}):
                assert thread_count() == 1
            assert "REDUCTION_LAB_THREADS" in capsys.readouterr().err, raw


def _reference_rngs(seed, lo, hi):
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            for i in range(lo, hi)]


def _assert_identical(a, b, where="summary"):
    """Every array, number and string of a and b, walked through their
    dataclass fields, dicts and lists, is equal bit for bit."""
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.name not in ("config", "model"):
                _assert_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_identical(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for item_a, item_b in zip(a, b):
            _assert_identical(item_a, item_b, where)
    elif isinstance(a, (str, bool)):
        assert a == b, where
    else:
        assert np.array_equal(a, b, equal_nan=True), where


class TestPathSeeding:
    """path_rngs seeds a chunk's generators in one vectorized pass; each is
    numpy's default_rng(SeedSequence(seed, spawn_key=(i,))) bit for bit."""

    SEEDS = (0, 1, 6, 777, 90210, 2**32 - 1, 2**32, 2**63 + 5, 2**100 + 3, 2**127,
             2**200 + 17)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lo, hi", [(0, 600), (511, 515), (2**32 - 3, 2**32)])
    def test_streams_match_numpy(self, seed, lo, hi):
        states = harness._seed_states(seed, lo, hi)
        for j, i in enumerate(range(lo, hi)):
            expected = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            assert np.array_equal(states[j], expected), i
        picks = sorted({lo, lo + 1, hi - 2, hi - 1})
        ours = path_rngs(seed, lo, hi)
        for i in picks:
            ref = _reference_rngs(seed, i, i + 1)[0]
            rng = ours[i - lo]
            assert rng.bit_generator.state == ref.bit_generator.state, i
            assert rng.random() == ref.random(), i
            assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7)), i

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("bias", [None, (0.7, 0.2, 0.1)])
    def test_ensemble_matches_per_path_seeding(self, monkeypatch, threads, bias):
        # 1100 paths are three chunks, the last one short
        cfg = RunConfig(hamiltonian=H3, rho0=RHO_B, t_max=3.2, dt=0.1, n_paths=1100,
                        seed=6, checks=CHECK_NAMES, check_times=(0.5, 3.2),
                        sampler_bias=bias)
        assert -(-cfg.n_paths // harness.CHUNK) == 3
        monkeypatch.setenv("REDUCTION_LAB_THREADS", threads)
        ours = run_ensemble(cfg)
        monkeypatch.setattr(harness, "path_rngs", _reference_rngs)
        _assert_identical(ours, run_ensemble(cfg))


def _summary_bytes(summary):
    columns = summary_columns(summary)
    return (
        b"".join(name.encode() + np.asarray(values).tobytes()
                 for name, values in columns.items()),
        json.dumps(summary_report(summary)),
    )


def _path_rows(cfg, model, grid, lo, hi):
    """Each path's (k, T) rows H, V, purity, pi_1..D, Phi per pair, evaluated
    on the whole grid with the same FilterModel calls, path by path."""
    times = grid.times()
    for rng in path_rngs(cfg.seed, lo, hi):
        level = model.draw_level(rng.random())
        b = np.zeros(len(times))
        b[1:] = rng.standard_normal(grid.n_steps) * np.sqrt(cfg.dt)
        xi = cfg.sigma * model.energies[level] * times + np.cumsum(b)
        pi, _ = model.posterior(times, xi)
        phi = model.phi(times, xi, pi)
        h_path = model.energy(pi)
        yield np.vstack([h_path, model.variance(pi, h_path), model.purity(pi, phi), pi.T, phi.T])


class TestTimeBlocks:
    """The chunk sweep through time in blocks of harness.BLOCK points must
    not change a bit of the output, wherever the block edges fall."""

    @pytest.mark.parametrize("instance, n_paths", [
        (three_level, 513),   # the last chunk is a single path
        (two_level, 600),     # one level pair; chunks of 512 and 88 paths
    ])
    def test_block_size_does_not_change_results(self, instance, n_paths):
        h, rho0 = instance()
        grid = TimeGrid.from_duration(3.2, 0.1)          # 33 points
        assert len(grid.times()) % 7 != 0
        cfg = RunConfig(
            hamiltonian=h, rho0=rho0, t_max=3.2, dt=0.1, n_paths=n_paths, seed=5,
            checks=CHECK_NAMES,
            # t = 0, both sides of the first block edge at BLOCK = 7, and t_max
            check_times=(0.0, 0.6, 0.7, 1.4, 3.2),
        )
        reference = _summary_bytes(run_ensemble(cfg))
        for block in (1, 7, len(grid.times()) + 5):
            with mock.patch.object(harness, "BLOCK", block):
                assert _summary_bytes(run_ensemble(cfg)) == reference, block

    @pytest.mark.parametrize("block, tile", [
        (7, 1), (7, 5), (7, 7), (7, 40), (40, 1), (40, 5), (1, 5),
    ])
    def test_tile_size_does_not_change_results(self, block, tile):
        # tiles of one point, tiles that straddle nothing, and tiles at least
        # as wide as the block (each block is then a single tile)
        cfg = RunConfig(
            hamiltonian=H3, rho0=RHO_B, t_max=3.2, dt=0.1,
            n_paths=513, seed=5, checks=CHECK_NAMES,
            check_times=(0.0, 0.4, 0.5, 1.4, 3.2),
        )
        reference = _summary_bytes(run_ensemble(cfg))
        with mock.patch.object(harness, "BLOCK", block), \
                mock.patch.object(harness, "TILE", tile):
            assert _summary_bytes(run_ensemble(cfg)) == reference
            with mock.patch.dict(os.environ, {"REDUCTION_LAB_THREADS": "2"}):
                assert _summary_bytes(run_ensemble(cfg)) == reference

    @pytest.mark.parametrize("instance", [two_level, three_level])
    @pytest.mark.parametrize("tile", [1, 5, 64])
    def test_paths_are_summed_in_index_order(self, instance, tile):
        # every path's rows are evaluated on the whole grid with the same
        # FilterModel calls and added one path after another; the kernel's
        # sums must match that to the bit, the 1-path chunk included
        h, rho0 = instance()
        cfg = RunConfig(hamiltonian=h, rho0=rho0, t_max=3.2, dt=0.1, n_paths=513,
                        seed=5, checks=(), check_times=(1.0,))
        model, grid = cfg.resolve()
        times = grid.times()
        k = 3 + model.spec.d + len(model.pairs)
        for lo, hi in ((0, 512), (512, 513)):
            with mock.patch.object(harness, "TILE", tile):
                sums = harness._run_chunk(cfg, model, times, np.array([10]), lo, hi)["sums"]
            acc, acc_sq, acc_x = np.zeros((k, len(times))), np.zeros((k, len(times))), 0.0
            for row in _path_rows(cfg, model, grid, lo, hi):
                acc += row
                acc_sq += row * row
                acc_x += row[1, :-1] * row[1, 1:]
            assert np.array_equal(sums[:k], acc)
            assert np.array_equal(sums[k:2 * k], acc_sq)
            assert np.array_equal(sums[2 * k, 1:], acc_x)

    def test_chunk_parts_hold_no_per_path_array(self):
        # every part is a path sum, so a 512-path chunk and a 1-path chunk
        # return arrays of the same shapes
        cfg = RunConfig(hamiltonian=H3, rho0=RHO_B, t_max=3.2, dt=0.1, n_paths=513,
                        seed=5, checks=(), check_times=(1.0,))
        model, grid = cfg.resolve()
        shapes = [
            {name: np.shape(a) for name, a in
             harness._run_chunk(cfg, model, grid.times(), np.array([10]), lo, hi).items()}
            for lo, hi in ((0, 512), (512, 513))
        ]
        assert shapes[0] == shapes[1]

    @pytest.mark.parametrize("instance", [two_level, three_level])
    def test_terminal_stats_match_the_two_pass_formulas(self, instance):
        # the terminal moments come from chunk sums of (H_T - h0)^j; the
        # reference takes them from the per-path H_T and V_T
        h, rho0 = instance()
        cfg = RunConfig(hamiltonian=h, rho0=rho0, t_max=3.2, dt=0.1, n_paths=1100,
                        seed=5, checks=())
        summary = run_ensemble(cfg)
        model, grid = cfg.resolve()
        rows = list(_path_rows(cfg, model, grid, 0, cfg.n_paths))
        h_t = np.array([row[0, -1] for row in rows])
        v_t = np.array([row[1, -1] for row in rows])
        n = len(h_t)
        centered = h_t - np.mean(h_t)
        m2, m4 = np.mean(centered**2), np.mean(centered**4)
        term = summary.terminal
        assert term["h_var"] == pytest.approx(np.var(h_t, ddof=1), rel=1e-12, abs=0)
        finite_n_se = np.sqrt(m4 / n - m2**2 * (n - 3) / (n * (n - 1)))
        assert abs(term["h_var_se"] - finite_n_se) <= 1e-12
        assert term["h_mean"] == pytest.approx(np.mean(h_t), rel=1e-12)
        assert term["h_se"] == pytest.approx(np.std(h_t, ddof=1) / np.sqrt(n), rel=1e-12)
        assert term["v_mean"] == pytest.approx(np.mean(v_t), rel=1e-12)
        assert term["v_se"] == pytest.approx(np.std(v_t, ddof=1) / np.sqrt(n), rel=1e-12)
        # the means and SEs are the series' last entries, bit for bit
        assert term["h_mean"] == summary.h_series.mean[-1]
        assert term["h_se"] == summary.h_series.se[-1]
        assert term["v_mean"] == summary.v_series.mean[-1]
        assert term["v_se"] == summary.v_series.se[-1]

    @pytest.mark.parametrize("n", [2, 40960])
    def test_a_symmetric_two_point_terminal_energy_has_a_nonzero_var_se(self, n):
        # H_T = h0 -+ 1/2 on exactly n/2 paths each: m4 = m2^2 = 1/16, where
        # the asymptotic sqrt((m4 - m2^2) / n) is 0; the finite-n SE of the
        # sample variance is 1 / sqrt(8 n (n - 1))
        half = np.where(np.arange(n) % 2 == 0, -0.5, 0.5)
        h_pow = np.array([np.sum(half**j) for j in range(1, 5)])
        ends = harness.SeriesStats(np.zeros(1), np.zeros(1))
        term = harness._terminal_stats(ends, ends, h_pow, n)
        assert term["h_var_se"] == pytest.approx(1.0 / np.sqrt(8.0 * n * (n - 1)), rel=1e-12)

    def test_chunk_memory_gate(self):
        # one full chunk on the ensemble_wide grid: the (k + 1, 512, 64) tile,
        # the (512, 601) noise block and the (2k + 1, 601) sums
        cfg = RunConfig(hamiltonian=H2, rho0=RHO_A, t_max=150.0, dt=0.25, n_paths=512,
                        seed=1, checks=CHECK_NAMES, check_times=(0.5, 1.0, 2.0))
        model, grid = cfg.resolve()
        times = grid.times()
        check_idx = np.searchsorted(times, cfg.check_times)
        tracemalloc.start()
        try:
            harness._run_chunk(cfg, model, times, check_idx, 0, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6, peak

    def test_memory_does_not_grow_with_the_grid(self):
        # one (128, T, 3) float64 array on this grid is 307 MB
        cfg = RunConfig(
            hamiltonian=H3, rho0=RHO_B, t_max=100.0, dt=1e-3,
            n_paths=128, seed=1, checks=(),
        )
        assert len(cfg.resolve()[1].times()) == 100_001
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6, peak


class TestZeroWeightPairs:
    """A level with p_r = 0 carries no coherence: its pairs have
    R_nm(0) = 0, Phi = 0, and nothing for decoherence to fit."""

    @staticmethod
    def config(rho0, seed):
        return RunConfig(
            hamiltonian=H3, rho0=rho0, t_max=20.0, dt=0.05,
            n_paths=2000, seed=seed, checks=("martingales", "decoherence"),
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pairs_with_a_weightless_level_are_skipped(self, seed):
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[:2, :2] = [[0.5, 0.2], [0.2, 0.5]]          # p_3 = 0
        summary = run_ensemble(self.config(rho0, seed))
        columns = summary_columns(summary)
        for label in ("Phi_13", "Phi_23"):
            assert not np.any(columns[f"{label}_mean"]), label
        verdict = summary.checks["decoherence"]
        assert verdict.passed, verdict.details
        slopes = verdict.details["slopes"]
        assert "skipped" in slopes["1-3"] and "skipped" in slopes["2-3"]
        assert "slope" in slopes["1-2"]

    def test_eigenstate_start_still_fails(self):
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        verdict = run_ensemble(self.config(rho0, 1)).checks["decoherence"]
        assert not verdict.passed
        assert all("skipped" in entry for entry in verdict.details["slopes"].values())


class TestCheckNames:
    def test_registry_is_stable(self):
        assert CHECK_NAMES == ("born", "martingales", "variance_decay",
                               "decoherence", "luders")
