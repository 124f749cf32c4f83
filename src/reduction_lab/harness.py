"""Monte Carlo ensemble runner and statistical verdicts.

Paths are simulated with the closed-form filtering solution, which is exact
at every grid time, so the output grid spacing controls reporting
resolution only, not accuracy. Path i draws from its own PCG64 stream,
numpy's default_rng(SeedSequence(seed, spawn_key=(i,))) bit for bit, and
path_rngs seeds a whole chunk of them in one vectorized pass; path 0 is
also the one trajectory of `simulate`. Paths are processed in fixed-size
chunks whose partial sums are reduced in chunk order, so the summary is
bitwise identical for a fixed seed regardless of how many worker threads
are used (REDUCTION_LAB_THREADS caps the pool).

Each chunk draws its noise in blocks of BLOCK time points and evaluates
the filter on tiles of TILE points: one (k + 1, CHUNK, TILE) buffer holds
H, V, purity, pi_1..D and Phi per pair (k = 3 + D + P rows) and one spare
row, for xi and then V_{k-1}, every row a contiguous slab for elementwise
work. Three einsum reductions over the path axis give the per-time sums,
sums of squares and V_{k-1} V_k sums of the tile, so the squares and cross
products are never stored. A worker thus holds (k + 1) x CHUNK x TILE plus
CHUNK x min(BLOCK, T) floats at a time; on top of that a run keeps
(2k + 1) x T per-time sums, one set per chunk in flight plus the total.
A chunk returns path sums only, so no per-path array outlives its chunk:
memory grows with neither n_paths nor n_paths x T, and neither BLOCK,
TILE nor the thread count changes a bit of the output.

Every analytic claim about the dynamics gets a named check with a
pass/fail verdict at CI_MULTIPLIER standard errors. The config carries two
deliberate corruption fixtures (drift_multiplier, sampler_bias) so the
test suite can prove the checks fail when the dynamics are wrong.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import CHECK_NAMES, RunConfig  # noqa: F401  (harness.CHECK_NAMES stays public)
from .dynamics import variance_bound
from .errors import ReductionLabError
from .filtering import FilterModel, level_cdf
from .spectral import hermitian_part

# BLOCK and TILE timed on the ensemble_fine grid (three_level, 4 096 x 10 001 points,
# 2 threads, 2-core x86 VM): BLOCK 512 ran 9 % slower, TILE 32 29 % and TILE 128 5 %
CHUNK = 512          # fixed so that chunking never depends on thread count
BLOCK = 1024         # time points per noise block: one generator call per path
TILE = 64            # time points per filter tile
CI_MULTIPLIER = 3.0  # a check passes within this many standard errors


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    statistic: float
    threshold: float
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesStats:
    """Per-time-point sample mean and standard error of the mean."""

    mean: np.ndarray
    se: np.ndarray


@dataclass
class EnsembleSummary:
    config: RunConfig
    model: FilterModel
    times: np.ndarray
    n_paths: int
    stderr_defined: bool
    h_series: SeriesStats
    v_series: SeriesStats
    purity_series: SeriesStats
    pi_series: SeriesStats            # (T, D)
    phi_series: SeriesStats           # (T, n_pairs)
    v_step: SeriesStats               # paired increments V_{k+1} - V_k, (T-1,)
    born_counts: np.ndarray
    born_freqs: np.ndarray
    terminal: dict
    luders: dict                      # level -> conditional terminal stats
    mean_states: dict                 # time -> {mean, se_real, se_imag}
    checks: dict = field(default_factory=dict)


def _se_from_sums(total, total_sq, n):
    """Standard error of the mean from accumulated sum and sum of squares."""
    if n < 2:
        return np.full_like(np.asarray(total, dtype=float), np.nan)
    mean = total / n
    var = np.clip((total_sq - n * mean**2) / (n - 1), 0.0, None)
    return np.sqrt(var / n)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# numpy's stream-compatibility policy covers
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint64: row j is SeedSequence(entropy=seed,
    spawn_key=(lo + j,)).generate_state(4, np.uint64).

    The hash constants evolve the same way for every path, so each hash
    step is one elementwise uint32 op over the whole range. The path index
    is the last entropy word and the only one that differs, which holds for
    indices below 2**32 (one spawn-key word).
    """
    # the seed's 32-bit words, low first (0 is one word), zero-padded to the
    # pool size as numpy pads run entropy that comes with a spawn key
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    # (1,) arrays, not numpy scalars: array arithmetic wraps mod 2**32
    # without an overflow warning, and broadcasts against the path indices
    entropy = [np.full(1, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((hi - lo, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def path_rngs(seed: int, lo: int, hi: int) -> list:
    """The generators of paths [lo, hi), path i's being
    default_rng(SeedSequence(seed, spawn_key=(i,))) bit for bit. A
    simulated trajectory is path 0."""
    # imported here, so that importing the CLI does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """Hands PCG64 one precomputed generate_state(4, np.uint64) row."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return [np.random.Generator(np.random.PCG64(SeedState(row)))
            for row in _seed_states(seed, lo, hi)]


def _fold(parts) -> dict:
    """Add the chunk parts, dicts of path sums, onto zeros in chunk order."""
    total = {}
    for part in parts:
        for name, a in part.items():
            if name not in total:
                total[name] = np.zeros_like(a)
            total[name] += a
    return total


def _trace_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * sum |eig(a - b)| over the last two axes."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(hermitian_part(a - b))), axis=-1)


def _run_chunk(cfg: RunConfig, model: FilterModel, times, check_idx, lo, hi):
    """Simulate paths [lo, hi) and return their partial sums.

    Noise is drawn in blocks of BLOCK points: each path keeps its generator
    across blocks and B_t is carried from one block to the next, so every
    value matches a single pass over the whole grid. Each block is then
    evaluated in tiles of TILE points, levels and pairs first.
    """
    c = hi - lo
    n_times = len(times)
    d, n_pairs = model.spec.d, len(model.pairs)
    k = 3 + d + n_pairs
    sqrt_dt = np.sqrt(cfg.dt)
    cdf = None if cfg.sampler_bias is None else level_cdf(cfg.sampler_bias)

    rngs = path_rngs(cfg.seed, lo, hi)
    levels = model.draw_level(np.array([rng.random() for rng in rngs]), cdf)
    drift = cfg.drift_multiplier * cfg.sigma * model.energies[levels]

    # sums: H, V, purity, pi_1..D, Phi per pair, their k squares, V_{i-1} V_i;
    # tile rows: the k values, then xi and, once xi is spent, V_{i-1}
    sums = np.zeros((2 * k + 1, n_times))
    tile_buf = np.empty((k + 1) * c * TILE)
    check_pi = np.empty((c, len(check_idx), d))
    check_phi = np.empty((c, len(check_idx), n_pairs))

    noise = np.empty((c, min(BLOCK, n_times)))
    b_last = np.zeros(c)
    v_last = np.zeros(c)      # its product lands in column 0, which is never read
    for start in range(0, n_times, BLOCK):
        stop = min(start + BLOCK, n_times)
        # B_0 = 0 takes the first slot of the first block; every later block
        # adds its first increment to the carried B_t, as one cumsum would
        first = 1 if start == 0 else 0
        noise[:, 0] = 0.0
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=noise[j, first:stop - start])
        b = noise[:, :stop - start]
        b *= sqrt_dt
        b[:, 0] += b_last
        np.cumsum(b, axis=1, out=b)
        b_last = b[:, -1].copy()

        for lead in range(start, stop, TILE):
            tail = min(lead + TILE, stop)
            rows = tile_buf[:(k + 1) * c * (tail - lead)].reshape(k + 1, c, tail - lead)
            t = times[lead:tail]
            xi = np.multiply(drift[:, None], t, out=rows[k])      # rows[k] is V_{i-1} below
            xi += b[:, lead - start:tail - start]
            pi, _ = model.posterior(t, xi, out=rows[3:3 + d])     # (c, tile, D) view
            phi = model.phi(t, xi, pi, out=rows[3 + d:k])         # (c, tile, P) view
            h_path = model.energy(pi, out=rows[0])
            v_path = model.variance(pi, h_path, out=rows[1])
            purity = model.purity(pi, phi, out=rows[2])
            values, prev = rows[:k], rows[k]
            prev[:, 0] = v_last
            prev[:, 1:] = v_path[:, :-1]
            v_last = v_path[:, -1].copy()
            # each sum adds the paths in index order; einsum would add a lone
            # time column pairwise, so that one is accumulated explicitly
            if tail - lead == 1:
                terms = np.concatenate([values, values * values, (prev * v_path)[None]])
                sums[:, lead:tail] = np.add.accumulate(terms, axis=1)[:, -1]
            else:
                np.einsum("rct->rt", values, out=sums[:k, lead:tail])
                np.einsum("rct,rct->rt", values, values, out=sums[k:2 * k, lead:tail])
                np.einsum("ct,ct->t", prev, v_path, out=sums[2 * k, lead:tail])

            inside = (check_idx >= lead) & (check_idx < tail)
            check_pi[:, inside] = pi[:, check_idx[inside] - lead]
            check_phi[:, inside] = phi[:, check_idx[inside] - lead]

    # pi, phi and the series now hold the last tile, which ends at t_max
    terminal_states = model.assemble(times[-1], pi[:, -1, :], phi[:, -1, :])
    targets = model.luders_stack[levels]
    dist = _trace_distance_batch(terminal_states, targets)
    pur_t = purity[:, -1]

    # one assemble over all check times, in the shapes a single pass over
    # the grid used, so the matrix products round the same way
    states = model.assemble(times[check_idx], check_pi, check_phi)
    return {
        "sums": sums,
        "born": np.bincount(np.argmax(pi[:, -1, :], axis=1), minlength=d),
        "luders_count": np.bincount(levels, minlength=d),
        "luders_dist": np.bincount(levels, weights=dist, minlength=d),
        "luders_dist_sq": np.bincount(levels, weights=dist**2, minlength=d),
        "luders_pur": np.bincount(levels, weights=pur_t, minlength=d),
        "luders_pur_sq": np.bincount(levels, weights=pur_t**2, minlength=d),
        # powers 1..4 of H_T - h0: centered on the exact mean, they do not cancel
        "h_pow": ((h_path[:, -1] - model.h0) ** np.arange(1, 5)[:, None]).sum(axis=1),
        "state_sum": states.sum(axis=0),
        "state_sq_re": (states.real**2).sum(axis=0),
        "state_sq_im": (states.imag**2).sum(axis=0),
    }


def thread_count() -> int:
    raw = os.environ.get("REDUCTION_LAB_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        print(f"warning: REDUCTION_LAB_THREADS={raw!r} is not a positive integer; "
              "using 1 thread", file=sys.stderr)
        return 1
    return count


def run_ensemble(cfg: RunConfig) -> EnsembleSummary:
    """Run n_paths independent trajectories and aggregate every verified
    statistic, then attach verdicts for the enabled checks."""
    model, grid = cfg.resolve()
    spec = model.spec
    times = grid.times()
    n = cfg.n_paths
    # resolve() has checked that every check time is on the grid
    check_idx = np.array(
        [int(np.argmin(np.abs(times - t))) for t in cfg.check_times], dtype=int
    )

    def chunk(bounds):
        lo, hi = bounds
        try:
            return _run_chunk(cfg, model, times, check_idx, lo, hi)
        except ReductionLabError as exc:
            raise type(exc)(f"paths [{lo}, {hi}): {exc}") from exc

    ranges = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    workers = min(thread_count(), len(ranges))
    # parts are folded in chunk order as they arrive; that order fixes the
    # reduction order whatever the thread count
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = _fold(pool.map(chunk, ranges))
    else:
        total = _fold(map(chunk, ranges))

    k = 3 + spec.d + len(model.pairs)
    sums, squares = total["sums"][:k], total["sums"][k:2 * k]

    def series(rows):
        """Mean and SE per time of a row (T,) or a row range (T, width)."""
        return SeriesStats(sums[rows].T / n, _se_from_sums(sums[rows], squares[rows], n).T)

    h_series, v_series = series(0), series(1)
    summary = EnsembleSummary(
        config=cfg,
        model=model,
        times=times,
        n_paths=n,
        stderr_defined=n > 1,
        h_series=h_series,
        v_series=v_series,
        purity_series=series(2),
        pi_series=series(slice(3, 3 + spec.d)),
        phi_series=series(slice(3 + spec.d, k)),
        v_step=_paired_step_stats(sums[1], squares[1], total["sums"][2 * k, 1:], n),
        born_counts=total["born"],
        born_freqs=total["born"] / n,
        terminal=_terminal_stats(h_series, v_series, total["h_pow"], n),
        luders=_luders_stats(total, model),
        mean_states=_mean_state_stats(total, times, check_idx, n),
    )
    for name in cfg.checks:
        summary.checks[name] = CHECKS[name](summary)
    return summary


def _paired_step_stats(v, v_sq, v_cross, n: int) -> SeriesStats:
    """Mean and SE of the per-path increments D = V_{k+1} - V_k, from the
    path sums of V, of V^2 and of V_k V_{k+1}: sum D^2 is
    sum V_{k+1}^2 + sum V_k^2 - 2 sum V_k V_{k+1}, so no path's series is
    stored."""
    total = v[1:] - v[:-1]
    total_sq = v_sq[1:] + v_sq[:-1] - 2.0 * v_cross
    return SeriesStats(total / n, _se_from_sums(total, total_sq, n))


def _terminal_stats(h_series, v_series, h_pow, n: int) -> dict:
    """Terminal energy and variance: the means and SEs are the series' last
    entries; the sample variance of H_T and its SE, sqrt((m4 - m2^2) / n),
    come from the path sums of (H_T - h0)^j, j = 1..4."""
    var = var_se = float("nan")
    if n > 1:
        shift = h_pow[0] / n                    # sample mean of H_T - h0
        s2, s3, s4 = h_pow[1:] / n
        m2 = s2 - shift**2
        m4 = s4 - 4.0 * shift * s3 + 6.0 * shift**2 * s2 - 3.0 * shift**4
        var = float(m2 * n / (n - 1))
        var_se = float(np.sqrt(max(m4 - m2**2, 0.0) / n))
    return {
        "h_mean": float(h_series.mean[-1]),
        "h_se": float(h_series.se[-1]),
        "h_var": var,
        "h_var_se": var_se,
        "v_mean": float(v_series.mean[-1]),
        "v_se": float(v_series.se[-1]),
    }


def _luders_stats(total: dict, model: FilterModel) -> dict:
    out = {}
    dist, dist_sq = total["luders_dist"], total["luders_dist_sq"]
    pur, pur_sq = total["luders_pur"], total["luders_pur_sq"]
    for r in range(model.spec.d):
        count = int(total["luders_count"][r])
        if count == 0:
            continue
        out[r] = {
            "count": count,
            "dist_mean": float(dist[r] / count),
            "dist_se": float(_se_from_sums(dist[r], dist_sq[r], count)),
            "purity_mean": float(pur[r] / count),
            "purity_se": float(_se_from_sums(pur[r], pur_sq[r], count)),
            "target_purity": float(model.luders_purity[r]),
        }
    return out


def _mean_state_stats(total: dict, times, check_idx, n: int) -> dict:
    out = {}
    state_sum = total["state_sum"]
    for slot, idx in enumerate(check_idx):
        mean = state_sum[slot] / n
        se_re = _se_from_sums(state_sum[slot].real, total["state_sq_re"][slot], n)
        se_im = _se_from_sums(state_sum[slot].imag, total["state_sq_im"][slot], n)
        out[float(times[idx])] = {"mean": mean, "se_real": se_re, "se_imag": se_im}
    return out


# ---------------------------------------------------------------------------
# checks


def _z(dev, se):
    """dev / se elementwise; where se == 0 the deviation must be exact:
    z is 0 for dev <= 1e-12 and inf above."""
    return np.where(se > 0, dev / np.where(se > 0, se, 1.0), np.where(dev <= 1e-12, 0.0, np.inf))


def _z_exceedance(mean, se, target):
    """Worst |mean - target| / se."""
    return float(np.max(_z(np.abs(mean - target), se)))


def check_born(summary: EnsembleSummary) -> Verdict:
    """Terminal-level frequencies against p_r = tr(rho_0 P_r), within
    CI_MULTIPLIER binomial standard errors per level."""
    n = summary.n_paths
    p = summary.model.p
    freq = summary.born_freqs
    binom_se = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)
    z = _z_exceedance(freq, binom_se, p)
    return Verdict(
        name="born",
        passed=z <= CI_MULTIPLIER,
        statistic=z,
        threshold=CI_MULTIPLIER,
        details={
            "frequencies": freq.tolist(),
            "expected": p.tolist(),
            "counts": summary.born_counts.tolist(),
        },
    )


def _phi_window(summary: EnsembleSummary, pair_slot: int) -> np.ndarray:
    """Grid mask where the Phi sample mean is resolved above its noise:
    mean > 10 * stderr. Keeps log fits and martingale z-scores away from
    the regime where the heavy-tailed Phi estimator is pure noise."""
    mean = summary.phi_series.mean[:, pair_slot]
    se = summary.phi_series.se[:, pair_slot]
    return (mean > 10.0 * se) & (mean > 0)


def check_martingales(summary: EnsembleSummary) -> Verdict:
    """Constancy of the conserved means: E[H_t] = H_0, E[pi_r(t)] = p_r,
    E[Pi_nm(t)] = 1; plus the one-sided supermartingale step test on V."""
    ci = CI_MULTIPLIER
    model = summary.model
    z_h = _z_exceedance(summary.h_series.mean, summary.h_series.se, model.h0)
    z_pi = _z_exceedance(summary.pi_series.mean, summary.pi_series.se, model.p)

    z_pi_nm = 0.0
    for slot in range(len(model.pairs)):
        window = _phi_window(summary, slot)
        window[0] = False          # se == 0 at t = 0 where Phi == 1 exactly
        if not np.any(window):
            continue
        growth = np.exp(model.decay_rate[slot] * summary.times[window])
        mean_pi_nm = summary.phi_series.mean[window, slot] * growth
        se_pi_nm = summary.phi_series.se[window, slot] * growth
        z_pi_nm = max(z_pi_nm, _z_exceedance(mean_pi_nm, se_pi_nm, 1.0))

    # supermartingale: paired increments of V must not be significantly positive
    z_super = float(np.max(_z(summary.v_step.mean, summary.v_step.se)))

    statistic = max(z_h, z_pi, z_pi_nm, z_super)
    return Verdict(
        name="martingales",
        passed=statistic <= ci,
        statistic=statistic,
        threshold=ci,
        details={
            "z_energy": z_h,
            "z_level_weights": z_pi,
            "z_offdiag_martingale": z_pi_nm,
            "z_variance_supermartingale": z_super,
        },
    )


def check_variance_decay(summary: EnsembleSummary) -> Verdict:
    """Mean V_t under the envelope V_0/(1 + V_0 sigma^2 t) at every grid
    point, terminal mean V below 1e-6 * (E_D - E_1)^2, and (when check
    times were recorded) entrywise agreement of the mean state with the
    exact mean state, sum_n p_n L_n + sum_{n != m} R_nm(0) phase decay."""
    ci = CI_MULTIPLIER
    model = summary.model
    bound = variance_bound(model.v0, model.sigma, summary.times)
    margin = summary.v_series.mean - (bound + ci * np.where(np.isnan(summary.v_series.se), 0.0, summary.v_series.se))
    worst_margin = float(np.max(margin))

    span = float(model.energies[-1] - model.energies[0]) if model.spec.d > 1 else 0.0
    terminal_tol = 1e-6 * span**2
    terminal_v = float(summary.v_series.mean[-1])

    z_state = 0.0
    for t, stats in summary.mean_states.items():
        target = model.mean_state(t)
        z_re = _z_exceedance(stats["mean"].real, stats["se_real"], target.real)
        z_im = _z_exceedance(stats["mean"].imag, stats["se_imag"], target.imag)
        z_state = max(z_state, z_re, z_im)

    terminal_ok = terminal_v < terminal_tol or (span == 0.0 and terminal_v == 0.0)
    passed = worst_margin <= 0 and terminal_ok and z_state <= ci
    return Verdict(
        name="variance_decay",
        passed=bool(passed),
        statistic=max(worst_margin, z_state - ci, terminal_v - terminal_tol),
        threshold=0.0,
        details={
            "v0": model.v0,
            "worst_bound_margin": worst_margin,
            "terminal_v_mean": terminal_v,
            "terminal_tolerance": terminal_tol,
            "z_mean_state": z_state,
        },
    )


def check_decoherence(summary: EnsembleSummary) -> Verdict:
    """Fitted decay rate of log E[Phi_nm] against -sigma^2 (E_n - E_m)^2 / 8,
    within 10% relative error per level pair. Pairs with a weightless level
    carry no coherence and are skipped; with level pairs but none to test
    (an eigenstate start) the check fails."""
    model = summary.model
    slopes = {}
    worst = 0.0
    ok = True
    skipped = 0
    for slot, (n, m) in enumerate(model.pairs):
        if model.p[n] == 0 or model.p[m] == 0:
            slopes[f"{n + 1}-{m + 1}"] = {"skipped": "p_n p_m = 0, so R_nm(0) = 0: no coherence"}
            skipped += 1
            continue
        expected = -model.decay_rate[slot]
        window = _phi_window(summary, slot)
        if np.count_nonzero(window) < 5:
            ok = False
            slopes[f"{n + 1}-{m + 1}"] = {"slope": float("nan"), "expected": expected}
            continue
        t = summary.times[window]
        y = np.log(summary.phi_series.mean[window, slot])
        slope = float(np.polyfit(t, y, 1)[0])
        # sigma = 0 turns the claim into "no decay at all"; compare absolutely
        rel = float(abs(slope - expected) / abs(expected) if expected != 0 else abs(slope))
        worst = max(worst, rel)
        ok = ok and rel <= 0.10
        slopes[f"{n + 1}-{m + 1}"] = {
            "slope": slope,
            "expected": expected,
            "relative_error": rel,
            "window_points": int(np.count_nonzero(window)),
        }
    return Verdict(
        name="decoherence",
        passed=bool(ok and not (model.pairs and skipped == len(model.pairs))),
        statistic=worst,
        threshold=0.10,
        details={"slopes": slopes},
    )


def check_luders(summary: EnsembleSummary) -> Verdict:
    """Conditional on the sampled level n, the terminal state sits on the
    Lueders state of that level: mean trace distance < 1e-4 and mean
    terminal purity within 1e-3 of tr(L_n^2) (1 for nondegenerate levels,
    and for pure initial states)."""
    dist_tol = 1e-4
    purity_tol = 1e-3
    worst = 0.0
    ok = True
    details = {}
    for level, stats in summary.luders.items():
        purity_err = abs(stats["purity_mean"] - stats["target_purity"])
        ok = ok and stats["dist_mean"] < dist_tol and purity_err < purity_tol
        worst = max(worst, stats["dist_mean"] / dist_tol, purity_err / purity_tol)
        details[level] = stats
    return Verdict(
        name="luders",
        passed=ok,
        statistic=worst,
        threshold=1.0,
        details={"by_level": details},
    )


CHECKS = {
    "born": check_born,
    "martingales": check_martingales,
    "variance_decay": check_variance_decay,
    "decoherence": check_decoherence,
    "luders": check_luders,
}
