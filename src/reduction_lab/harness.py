"""Monte Carlo ensemble runner and statistical verdicts.

Paths are simulated with the closed-form filtering solution, which is exact
at every grid time, so the output grid spacing controls reporting
resolution only, not accuracy. Each path has its own counter-based RNG
stream derived from (seed, path index) by path_rng, which also seeds
the one trajectory of `simulate` as path 0; paths are processed in
fixed-size chunks whose partial sums are reduced in chunk order, so the
summary is bitwise identical for a fixed seed regardless of how many
worker threads are used (REDUCTION_LAB_THREADS caps the pool).

Each chunk draws its noise in blocks of BLOCK time points and evaluates
the filter on tiles of TILE points: one (K, CHUNK, TILE) buffer holds
H, V, purity, pi_1..D and Phi per pair (3 + D + P rows), their squares and
the V_{k-1} V_k products (K = 2 (3 + D + P) + 1), every row a contiguous
slab for elementwise work, and one sum over its path axis gives every
per-time sum of the tile. A worker thus holds K x CHUNK x TILE plus
CHUNK x BLOCK floats at a time; on top of that a run keeps K x T per-time
sums, one set per chunk in flight plus the total. Memory does not grow
with n_paths x T, and neither BLOCK, TILE nor the thread count changes a
bit of the output.

Every analytic claim about the dynamics gets a named check with a
pass/fail verdict at ci_multiplier standard errors. The config carries two
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
from .errors import ReductionLabError, ValidationError
from .filtering import FilterModel, level_cdf

CHUNK = 512          # fixed so that chunking never depends on thread count
BLOCK = 1024         # time points per noise block: one generator call per path
TILE = 64            # time points per filter tile: 64 measured fastest of 8-256


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


def path_rng(base_seed: int, index: int) -> np.random.Generator:
    """The generator of path index: the ensemble's paths, and path 0 for a
    single simulated trajectory."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    )


def _fold(parts, n_paths: int) -> dict:
    """Reduce chunk parts in chunk order: summed arrays are added onto zeros
    of their own shape, and the per-path terminal arrays fill n_paths slots
    one chunk after another (kept for one join at the end, the chunks'
    pieces would pin heap pages: +2.7 MB peak RSS on 40 960 paths)."""
    total = {"h_terminal": np.empty(n_paths), "v_terminal": np.empty(n_paths)}
    lo = 0
    for part in parts:
        hi = lo + len(part["h_terminal"])
        for name, a in part.items():
            if name.endswith("_terminal"):
                total[name][lo:hi] = a
            elif name in total:
                total[name] += a
            else:
                total[name] = np.zeros_like(a) + a
        lo = hi
    return total


def _trace_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * sum |eig(a - b)| over the last two axes."""
    diff = a - b
    diff = 0.5 * (diff + np.swapaxes(diff, -1, -2).conj())
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def _path_sums(rows: np.ndarray) -> np.ndarray:
    """Sum a (rows, paths, times) tile over its path axis, adding the paths
    in order.

    numpy adds whole time rows one path after another, but sums a lone
    time column pairwise; that column is therefore accumulated explicitly,
    so that tile edges never change bits.
    """
    if rows.shape[2] == 1:
        return np.add.accumulate(rows, axis=1)[:, -1]
    return rows.sum(axis=1)


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

    levels = np.empty(c, dtype=np.int64)
    rngs = []
    for j in range(c):
        rng = path_rng(cfg.seed, lo + j)
        levels[j] = model.draw_level(rng, cdf)
        rngs.append(rng)
    drift = cfg.drift_multiplier * cfg.sigma * model.energies[levels]

    # rows: H, V, purity, pi_1..D, Phi per pair, their k squares, V_{i-1} V_i
    sums = np.zeros((2 * k + 1, n_times))
    tile_buf = np.empty((2 * k + 1) * c * TILE)
    check_pi = np.empty((c, len(check_idx), d))
    check_phi = np.empty((c, len(check_idx), n_pairs))

    noise = np.empty((c, BLOCK))
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
            rows = tile_buf[:(2 * k + 1) * c * (tail - lead)].reshape(2 * k + 1, c, tail - lead)
            t = times[lead:tail]
            xi = drift[:, None] * t[None, :] + b[:, lead - start:tail - start]
            pi, _ = model.posterior(t, xi, out=rows[3:3 + d])     # (c, tile, D) view
            phi = model.phi(t, xi, pi, out=rows[3 + d:k])         # (c, tile, P) view
            h_path = model.energy(pi, out=rows[0])
            v_path = model.variance(pi, h_path, out=rows[1])
            purity = model.purity(pi, phi, out=rows[2])
            np.square(rows[:k], out=rows[k:2 * k])
            cross = rows[2 * k]
            np.multiply(v_last, v_path[:, 0], out=cross[:, 0])
            np.multiply(v_path[:, :-1], v_path[:, 1:], out=cross[:, 1:])
            v_last = v_path[:, -1].copy()
            sums[:, lead:tail] = _path_sums(rows)

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
        "h_terminal": h_path[:, -1].copy(),
        "v_terminal": v_last,
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
    rho0, spec, grid = cfg.resolve()
    model = FilterModel(rho0, spec, cfg.sigma, cfg.hbar, cfg.tolerances)
    times = grid.times()
    n = cfg.n_paths
    if cfg.sampler_bias is not None and len(cfg.sampler_bias) != spec.d:
        raise ValidationError(
            f"sampler_bias has {len(cfg.sampler_bias)} weights for {spec.d} levels"
        )

    check_idx = np.array(
        [int(np.argmin(np.abs(times - t))) for t in cfg.check_times], dtype=int
    )
    for want, got in zip(cfg.check_times, check_idx):
        if abs(times[got] - want) > 1e-9 * max(1.0, abs(want)):
            raise ValidationError(
                f"check time {want} is not on the output grid (dt={cfg.dt})"
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
            total = _fold(pool.map(chunk, ranges), n)
    else:
        total = _fold(map(chunk, ranges), n)

    k = 3 + spec.d + len(model.pairs)
    sums, squares = total["sums"][:k], total["sums"][k:2 * k]

    def series(rows):
        """Mean and SE per time of a row (T,) or a row range (T, width)."""
        return SeriesStats(sums[rows].T / n, _se_from_sums(sums[rows], squares[rows], n).T)

    stderr_defined = n > 1
    summary = EnsembleSummary(
        config=cfg,
        model=model,
        times=times,
        n_paths=n,
        stderr_defined=stderr_defined,
        h_series=series(0),
        v_series=series(1),
        purity_series=series(2),
        pi_series=series(slice(3, 3 + spec.d)),
        phi_series=series(slice(3 + spec.d, k)),
        v_step=_paired_step_stats(sums[1], squares[1], total["sums"][2 * k, 1:], n),
        born_counts=total["born"],
        born_freqs=total["born"] / n,
        terminal=_terminal_stats(total["h_terminal"], total["v_terminal"], n),
        luders=_luders_stats(total, model),
        mean_states=_mean_state_stats(total, times, check_idx, n),
    )
    for name in cfg.checks:
        summary.checks[name] = CHECKS[name](summary)
    return summary


def _paired_step_stats(v, v_sq, v_cross, n: int) -> SeriesStats:
    """Mean and SE of the per-path increments V_{k+1} - V_k, from the path
    sums of V, of V^2 and of V_k V_{k+1}.

    Var(D) = Var(V_{k+1}) + Var(V_k) - 2 Cov comes from the accumulated
    cross products, avoiding a per-path store of the whole series.
    """
    if len(v_cross) == 0:
        return SeriesStats(np.zeros(0), np.zeros(0))
    mean_diff = (v[1:] - v[:-1]) / n
    if n < 2:
        return SeriesStats(mean_diff, np.full_like(mean_diff, np.nan))
    e_sq = (v_sq[1:] + v_sq[:-1] - 2.0 * v_cross) / n
    var = np.clip(e_sq - mean_diff**2, 0.0, None) * n / (n - 1)
    return SeriesStats(mean_diff, np.sqrt(var / n))


def _terminal_stats(h, v, n: int) -> dict:
    mean = float(np.mean(h))
    if n > 1:
        se = float(np.std(h, ddof=1) / np.sqrt(n))
        centered = h - mean
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        var = float(np.var(h, ddof=1))
        var_se = float(np.sqrt(max(m4 - m2**2, 0.0) / n))
    else:
        se = var = var_se = float("nan")
    return {
        "h_mean": mean,
        "h_se": se,
        "h_var": var,
        "h_var_se": var_se,
        "v_mean": float(np.mean(v)),
        "v_se": float(np.std(v, ddof=1) / np.sqrt(n)) if n > 1 else float("nan"),
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


def _z_exceedance(mean, se, target):
    """Worst |mean - target| / se, treating se == 0 as an exactness demand."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    se = np.atleast_1d(np.asarray(se, dtype=float))
    target = np.broadcast_to(np.asarray(target, dtype=float), mean.shape)
    dev = np.abs(mean - target)
    z = np.where(se > 0, dev / np.where(se > 0, se, 1.0), np.where(dev <= 1e-12, 0.0, np.inf))
    return float(np.max(z)) if z.size else 0.0


def check_born(summary: EnsembleSummary) -> Verdict:
    """Terminal-level frequencies against p_r = tr(rho_0 P_r), within
    ci * binomial standard error per level."""
    cfg = summary.config
    n = summary.n_paths
    p = summary.model.p
    freq = summary.born_freqs
    binom_se = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)
    z = _z_exceedance(freq, binom_se, p)
    return Verdict(
        name="born",
        passed=z <= cfg.ci_multiplier,
        statistic=z,
        threshold=cfg.ci_multiplier,
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
    cfg = summary.config
    ci = cfg.ci_multiplier
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
    step = summary.v_step
    if step.mean.size:
        up = step.mean / np.where(step.se > 0, step.se, np.inf)
        slack = np.where(step.se > 0, up, np.where(step.mean <= 1e-12, 0.0, np.inf))
        z_super = float(np.max(slack))
    else:
        z_super = 0.0

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
    cfg = summary.config
    ci = cfg.ci_multiplier
    model = summary.model
    bound = variance_bound(model.v0, cfg.sigma, summary.times)
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
        rel = abs(slope - expected) / abs(expected) if expected != 0 else abs(slope)
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
