"""Exact solution of the reduction dynamics by nonlinear filtering.

The construction runs the dynamics off an information process

    xi_t = sigma t H + B_t,

where the signal H is a random energy level drawn with the initial-state
probabilities p_r = tr(rho_0 P_r) and B is an independent Brownian motion.
Conditional level probabilities, the propagated state, and the driving
Brownian motion are then explicit functionals of (t, xi_t):

    pi_r(t)  proportional to  p_r exp[sigma E_r xi_t - sigma^2 E_r^2 t / 2]
    rho_t    =  K_t rho_0 K_t^dag / tr[...],
    K_t      =  exp[-i H t / hbar + sigma H xi_t / 2 - sigma^2 H^2 t / 4]
    W_t      =  xi_t - sigma * integral_0^t H_s ds

Every exponential is evaluated in the log domain with max-subtraction;
the raw formulas overflow double precision once sigma E_r xi_t is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .errors import (
    DegenerateDistribution,
    NonFiniteInput,
    SameLevel,
)
from .spectral import (
    DEFAULT_TOLS,
    DensityMatrix,
    SpectralDecomposition,
    ToleranceSet,
    _freeze,
    _mat,
    frobenius_norm,
    hermitian_part,
    luders_state,
    offdiag_block,
    validate_density,
)


@dataclass(frozen=True)
class InformationPath:
    """A sampled signal level plus one realization of xi_t = sigma t H + B_t."""

    grid: TimeGrid
    level: int
    h_value: float
    b: np.ndarray
    xi: np.ndarray
    seed: object = None


@dataclass(frozen=True)
class FilterWeights:
    """Conditional level probabilities given the observation (t, xi_t).

    log_weights are the unnormalized log masses
    log p_r + sigma E_r xi - sigma^2 E_r^2 t / 2 (-inf on unpopulated
    levels); probabilities normalize them via max-subtraction.
    """

    log_weights: np.ndarray
    probabilities: np.ndarray

    def argmax(self) -> int:
        return int(np.argmax(self.probabilities))


def _level_probabilities(rho0, spec: SpectralDecomposition) -> np.ndarray:
    p = spec.level_probabilities(_mat(rho0))
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise DegenerateDistribution("state carries no weight on any level")
    return p / total


def _log_masses(log_p, energies, sigma, t, xi):
    """log p_r + sigma E_r xi - sigma^2 E_r^2 t / 2, broadcast over (t, xi).

    The level axis comes first, so each level is one contiguous slab; numpy
    is slow on a short trailing axis.
    """
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    drag = 0.5 * sigma**2 * np.multiply.outer(energies**2, t)
    out = np.empty(np.shape(energies) + np.broadcast_shapes(t.shape, xi.shape))
    for r in range(len(out)):
        slab = out[r, ...]
        np.multiply(xi, energies[r], out=slab)
        slab *= sigma
        slab += log_p[r]
        slab -= drag[r]
    return out


def _levels_last(a: np.ndarray) -> np.ndarray:
    """Contiguous copy with the leading level (or pair) axis moved last."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _normalize_log(logw):
    """Return (probabilities, log normalizer) over the leading level axis,
    with all exponentials <= 1.

    The max and the sum run as loops over the levels. That gives the bits
    of a reduction over a trailing level axis: the max is exact, and numpy
    adds fewer than 8 terms left to right.
    """
    top = logw[0, ...].copy()
    for level in logw[1:]:
        np.maximum(top, level, out=top)
    w = np.exp(logw - top)
    if len(w) < 8:
        z = w[0, ...].copy()
        for level in w[1:]:
            z += level
    else:
        z = np.sum(_levels_last(w), axis=-1)
    w /= z
    return w, top + np.log(z)


def sample_terminal_energy(
    rho0, spec: SpectralDecomposition, rng: np.random.Generator,
    tols: ToleranceSet = DEFAULT_TOLS,
) -> int:
    """Draw the signal level with probabilities p_r = tr(rho_0 P_r)."""
    p = spec.level_probabilities(_mat(rho0))
    if np.all(p < tols.luders_floor):
        raise DegenerateDistribution("all level probabilities below floor")
    p = np.clip(p, 0.0, None)
    cumulative = np.cumsum(p / p.sum())
    return int(np.searchsorted(cumulative, rng.random(), side="right"))


def make_information_path(
    level: int,
    spec: SpectralDecomposition,
    sigma: float,
    grid: TimeGrid,
    rng: np.random.Generator | None,
    seed=None,
) -> InformationPath:
    """Sample xi_t = sigma t E_level + B_t on the grid.

    rng=None suppresses the noise (B identically zero), which isolates the
    deterministic drift.
    """
    times = grid.times()
    b = np.zeros(grid.n_steps + 1)
    if rng is not None:
        b[1:] = np.cumsum(rng.standard_normal(grid.n_steps) * np.sqrt(grid.dt))
    h_value = float(spec.energies[level])
    xi = sigma * h_value * times + b
    return InformationPath(
        grid=grid, level=level, h_value=h_value,
        b=_freeze(b), xi=_freeze(xi), seed=seed,
    )


def filter_weights(
    rho0, spec: SpectralDecomposition, sigma: float, t: float, xi_t: float
) -> FilterWeights:
    """Conditional probabilities of each level given the observation."""
    if not (np.isfinite(t) and np.isfinite(xi_t)):
        raise NonFiniteInput(f"t={t}, xi={xi_t}")
    p = _level_probabilities(rho0, spec)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    logw = _log_masses(log_p, spec.energies, sigma, t, xi_t)
    probabilities, _ = _normalize_log(logw)
    return FilterWeights(log_weights=_freeze(logw), probabilities=_freeze(probabilities))


def closed_form_state(
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    hbar: float,
    t: float,
    xi_t: float,
    tols: ToleranceSet = DEFAULT_TOLS,
) -> DensityMatrix:
    """Propagate rho_0 to time t with the exact stochastic map.

    Works level-by-level: the propagator is scalar on each eigenspace,
    k_r = exp[-i E_r t / hbar + sigma E_r xi / 2 - sigma^2 E_r^2 t / 4],
    and the shared magnitude scale cancels in the normalization, so the
    largest populated level is pinned to magnitude one before assembling
    K rho_0 K^dag.
    """
    if not (np.isfinite(t) and np.isfinite(xi_t)):
        raise NonFiniteInput(f"t={t}, xi={xi_t}")
    rho = _mat(rho0)
    p = _level_probabilities(rho0, spec)
    supported = p > 0
    log_mag = 0.5 * sigma * spec.energies * xi_t - 0.25 * sigma**2 * spec.energies**2 * t
    top = np.max(log_mag[supported])

    k = np.zeros((spec.dim, spec.dim), dtype=complex)
    for r in range(spec.d):
        if not supported[r]:
            continue
        scale = np.exp(log_mag[r] - top - 1j * spec.energies[r] * t / hbar)
        k += scale * spec.projectors[r]

    unnormalized = k @ rho @ k.conj().T
    trace = np.trace(unnormalized).real
    if not np.isfinite(trace) or trace <= 0:
        raise NonFiniteInput(f"propagated trace {trace}")
    return validate_density(unnormalized / trace, tols)


def energy_estimate(
    rho0, spec: SpectralDecomposition, sigma: float, t: float, xi_t: float
) -> float:
    """Conditional energy expectation sum_r pi_r(t) E_r."""
    weights = filter_weights(rho0, spec, sigma, t, xi_t)
    return float(weights.probabilities @ spec.energies)


def recovered_brownian(
    path: InformationPath, rho0, spec: SpectralDecomposition, sigma: float
) -> np.ndarray:
    """Reconstruct the driving Brownian motion W_t = xi_t - sigma int_0^t H_s ds,
    with left Riemann sums (the Ito, non-anticipating reading)."""
    return closed_form_trajectory(FilterModel(rho0, spec, sigma), path).w


def phi_process(
    n: int,
    m: int,
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    t: float,
    xi_t: float,
    hbar: float = 1.0,
):
    """Scalar decay factor and deterministic phase of the block P_n rho_t P_m.

    The block evolves as R_nm(t) = P_n rho_0 P_m * phase * Phi with
    Phi real positive; on average Phi decays like
    exp[-sigma^2 (E_n - E_m)^2 t / 8].
    """
    if n == m:
        raise SameLevel(f"off-diagonal block needs distinct levels, got {n}")
    if not (np.isfinite(t) and np.isfinite(xi_t)):
        raise NonFiniteInput(f"t={t}, xi={xi_t}")
    p = _level_probabilities(rho0, spec)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    logw = _log_masses(log_p, spec.energies, sigma, t, xi_t)
    _, log_z = _normalize_log(logw)
    e_n, e_m = spec.energies[n], spec.energies[m]
    log_phi = (
        0.5 * sigma * (e_n + e_m) * xi_t
        - 0.25 * sigma**2 * (e_n**2 + e_m**2) * t
        - log_z
    )
    phase = np.exp(-1j * (e_n - e_m) * t / hbar)
    return float(np.exp(log_phi)), complex(phase)


@dataclass(frozen=True)
class TypeDDecomposition:
    """Increasing part A of the potential Phi and the implied estimates of
    its total mass: Phi_t + A_t estimates E_t[A_inf] (constant-mean check)."""

    a: np.ndarray
    total_mass_estimate: np.ndarray


def type_d_decomposition(
    n: int,
    m: int,
    spec: SpectralDecomposition,
    sigma: float,
    grid: TimeGrid,
    phi_path: np.ndarray,
) -> TypeDDecomposition:
    """Accumulate A_t = sigma^2 (E_n - E_m)^2 / 8 * int_0^t Phi ds (trapezoid)."""
    if n == m:
        raise SameLevel(f"off-diagonal block needs distinct levels, got {n}")
    phi_path = np.asarray(phi_path, dtype=float)
    rate = 0.125 * sigma**2 * (spec.energies[n] - spec.energies[m]) ** 2
    a = np.zeros_like(phi_path)
    if len(phi_path) > 1:
        increments = 0.5 * (phi_path[1:] + phi_path[:-1]) * grid.dt
        a[1:] = rate * np.cumsum(increments)
    return TypeDDecomposition(a=_freeze(a), total_mass_estimate=_freeze(phi_path + a))


def state_decomposition(
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    hbar: float,
    t: float,
    xi_t: float,
    tols: ToleranceSet = DEFAULT_TOLS,
) -> DensityMatrix:
    """Assemble rho_t from conditioned pieces rather than the propagator:

        rho_t = sum_n pi_n(t) L_n
              + sum_{n != m} P_n rho_0 P_m * exp[-i(E_n - E_m)t/hbar] * Phi_nm(t)

    with L_n the Lueders state of level n. Serves as an independent code
    path that must agree with closed_form_state to high accuracy.
    """
    rho = _mat(rho0)
    weights = filter_weights(rho0, spec, sigma, t, xi_t)
    p = _level_probabilities(rho0, spec)
    out = np.zeros_like(rho)
    for n in range(spec.d):
        if p[n] <= tols.luders_floor:
            continue
        out += weights.probabilities[n] * luders_state(rho, spec, n, tols).matrix
    for n in range(spec.d):
        for m in range(spec.d):
            if n == m or p[n] <= tols.luders_floor or p[m] <= tols.luders_floor:
                continue
            phi, phase = phi_process(n, m, rho, spec, sigma, t, xi_t, hbar)
            out += offdiag_block(rho, spec, n, m) * phase * phi
    return validate_density(hermitian_part(out), tols)


def default_horizon(spec: SpectralDecomposition, rho0, sigma: float) -> float:
    """Operational stand-in for t -> infinity:
    max(50 / (sigma * min gap)^2, 10 / (sigma^2 V_0))."""
    if spec.d < 2 or sigma <= 0:
        return 1.0
    p = _level_probabilities(rho0, spec)
    v0 = float(p @ spec.energies**2 - (p @ spec.energies) ** 2)
    horizon = 50.0 / (sigma * spec.min_gap) ** 2
    if v0 > 0:
        horizon = max(horizon, 10.0 / (sigma**2 * v0))
    return horizon


@dataclass(frozen=True)
class FilterTrajectory:
    """Column view of one closed-form trajectory on a grid.

    pi has shape (n_points, D); phi and offdiag have one column per
    unordered level pair n < m, in spec.pairs() order.
    """

    grid: TimeGrid
    level: int
    xi: np.ndarray
    w: np.ndarray
    pi: np.ndarray
    H: np.ndarray
    V: np.ndarray
    purity: np.ndarray
    phi: np.ndarray
    offdiag: np.ndarray


def closed_form_trajectory(model: "FilterModel", path: InformationPath) -> FilterTrajectory:
    """Evaluate the exact solution along one information path."""
    times = path.grid.times()
    pi, log_z = model.posterior(times, path.xi)
    phi = model.phi(times, path.xi, log_z)
    h_path = model.energy(pi)
    w = np.empty_like(path.xi)
    w[0] = 0.0
    w[1:] = path.xi[1:] - model.sigma * path.grid.dt * np.cumsum(h_path[:-1])
    return FilterTrajectory(
        grid=path.grid,
        level=path.level,
        xi=path.xi,
        w=_freeze(w),
        pi=_freeze(pi),
        H=_freeze(h_path),
        V=_freeze(model.variance(pi)),
        purity=_freeze(model.purity(pi, phi)),
        phi=_freeze(phi),
        offdiag=_freeze(model.offdiag_norm(phi)),
    )


class FilterModel:
    """Vectorized evaluation of the closed-form solution for one instance.

    Precomputes the level data of (rho_0, spec, sigma, hbar) once so that
    ensembles can evaluate pi, Phi, purity, and assembled states on whole
    (path, time) blocks. Pair quantities use unordered pairs n < m; Phi is
    symmetric under n <-> m and the phases are conjugate.
    """

    def __init__(self, rho0, spec: SpectralDecomposition, sigma: float,
                 hbar: float = 1.0, tols: ToleranceSet = DEFAULT_TOLS):
        self.spec = spec
        self.sigma = float(sigma)
        self.hbar = float(hbar)
        self.rho0 = np.asarray(_mat(rho0), dtype=complex)
        self.p = _level_probabilities(rho0, spec)
        with np.errstate(divide="ignore"):
            self.log_p = np.log(self.p)
        self.energies = np.asarray(spec.energies, dtype=float)
        d = spec.d

        self.luders = []
        self.luders_purity = np.zeros(d)
        for n in range(d):
            if self.p[n] > tols.luders_floor:
                state = luders_state(self.rho0, spec, n, tols)
                self.luders.append(state.matrix)
                self.luders_purity[n] = state.purity()
            else:
                self.luders.append(np.zeros_like(self.rho0))
        self.luders_stack = np.stack(self.luders)

        self.pairs = spec.pairs()
        self.pair_n = np.array([n for n, _ in self.pairs], dtype=int)
        self.pair_m = np.array([m for _, m in self.pairs], dtype=int)
        self.pair_sum = self.energies[self.pair_n] + self.energies[self.pair_m]
        self.pair_sumsq = self.energies[self.pair_n] ** 2 + self.energies[self.pair_m] ** 2
        self.pair_gap = self.energies[self.pair_n] - self.energies[self.pair_m]
        self.r0 = np.stack(
            [offdiag_block(self.rho0, spec, n, m) for n, m in self.pairs]
        ) if self.pairs else np.zeros((0,) + self.rho0.shape, dtype=complex)
        self.r0_norm = np.array([frobenius_norm(b) for b in self.r0])

    def posterior(self, t, xi):
        """(pi, log normalizer), with the level axis of pi last."""
        pi, log_z = _normalize_log(
            _log_masses(self.log_p, self.energies, self.sigma, t, xi)
        )
        return _levels_last(pi), log_z

    def phi(self, t, xi, log_z=None) -> np.ndarray:
        """Phi_nm over the trailing pair axis (n < m pairs)."""
        if log_z is None:
            _, log_z = self.posterior(t, xi)
        t = np.asarray(t, dtype=float)
        xi = np.asarray(xi, dtype=float)
        drag = 0.25 * self.sigma**2 * np.multiply.outer(self.pair_sumsq, t)
        log_phi = np.empty(
            (len(self.pairs),) + np.broadcast_shapes(t.shape, xi.shape, np.shape(log_z))
        )
        for slot in range(len(log_phi)):
            slab = log_phi[slot, ...]
            np.multiply(xi, self.pair_sum[slot], out=slab)
            slab *= 0.5 * self.sigma
            slab -= drag[slot]
            slab -= log_z
        return _levels_last(np.exp(log_phi, out=log_phi))

    def energy(self, pi) -> np.ndarray:
        return pi @ self.energies

    def variance(self, pi) -> np.ndarray:
        mean = pi @ self.energies
        return pi @ self.energies**2 - mean**2

    def purity(self, pi, phi) -> np.ndarray:
        """tr(rho_t^2) from the scalar series: the diagonal blocks contribute
        pi_n^2 tr(L_n^2), each unordered off-diagonal pair 2 Phi^2 |R_nm|^2."""
        return pi**2 @ self.luders_purity + 2.0 * phi**2 @ self.r0_norm**2

    def pair_phases(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-1j * np.multiply.outer(t, self.pair_gap) / self.hbar)

    def assemble(self, t, pi, phi) -> np.ndarray:
        """Dense states rho_t for broadcast (t, pi, phi) blocks."""
        diag = np.tensordot(pi, self.luders_stack, axes=(-1, 0))
        if len(self.pairs) == 0:
            return diag
        coeff = phi * self.pair_phases(t)
        off = np.tensordot(coeff, self.r0, axes=(-1, 0))
        return diag + off + np.swapaxes(off, -1, -2).conj()

    def offdiag_norm(self, phi) -> np.ndarray:
        """|P_n rho_t P_m| per unordered pair."""
        return phi * self.r0_norm
