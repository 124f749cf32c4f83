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

FilterModel holds the constants of one instance (p_r, H_0, V_0, the decay
rates, the level distribution) and evaluates the posterior and everything
that is a function of it: Phi, H_t, V_t, purity, |R_nm|, the assembled
states and the exact mean state. closed_form_state keeps the propagator
route as an independent cross-check: it runs over H's raw eigenpairs and
shares no level grouping with FilterModel. One path is its signal level and
the increments of B: closed_form_trajectory forms xi from them and evaluates
the solution along it, and sde_gap holds that path against the SDE
integrator. The posterior is the one FilterModel quantity
evaluated in the log domain, with max-subtraction; the raw formula
overflows double precision once sigma E_r xi_t is large.

The decay factor of an off-diagonal block is a closed form of the posterior:

    Phi_nm = sqrt(w_n w_m) / (Z sqrt(p_n p_m)) = sqrt(pi_n / p_n) sqrt(pi_m / p_m),

with w_r the unnormalized masses and Z their sum, so Phi needs no
exponential of its own. Phi is 0 on a pair with p_n p_m = 0, where
R_nm(0) = P_n rho_0 P_m vanishes.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ROW_BLOCK, TimeGrid, Trajectory, check_increments, simulate_sme
from .errors import DegenerateDistribution, NonFiniteInput, ValidationError, ZeroProbabilitySubspace
from .spectral import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    ToleranceSet,
    _freeze,
    frobenius_norm,
    hermitian_part,
    luders_state,
    offdiag_block,
    validate_density,
)


def _log_masses(log_p, energies, sigma, t, xi, out=None):
    """log p_r + sigma E_r xi - sigma^2 E_r^2 t / 2, broadcast over (t, xi),
    into out if given.

    The level axis comes first, so each level is one contiguous slab; numpy
    is slow on a short trailing axis.
    """
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    drag = 0.5 * sigma**2 * np.multiply.outer(energies**2, t)
    if out is None:
        out = np.empty(np.shape(energies) + np.broadcast_shapes(t.shape, xi.shape))
    for r in range(len(out)):
        slab = out[r, ...]
        np.multiply(xi, energies[r], out=slab)
        slab *= sigma
        slab += log_p[r]
        slab -= drag[r]
    return out


def _normalize_log(logw, out=None):
    """Return the probabilities over the leading level axis, with all
    exponentials <= 1, into out if given, which may be logw itself.

    The max and the sum run as loops over the levels, the sum left to right.
    Below 8 levels that gives the bits of numpy's reduction over a trailing
    level axis.
    """
    top = logw[0, ...].copy()
    for level in logw[1:]:
        np.maximum(top, level, out=top)
    w = np.subtract(logw, top, out=out)
    np.exp(w, out=w)
    z = w[0, ...].copy()
    for level in w[1:]:
        z += level
    w /= z
    return w


def _phi_from_posterior(pi, p, pairs, out=None):
    """Phi_nm = sqrt(pi_n / p_n) sqrt(pi_m / p_m) per pair, over the trailing
    axis of pi (levels) and of the result (pairs); out, if given, is the
    pairs-first array to fill. Taken level by level, no product of two small
    weights can underflow; a level with p_r = 0 contributes 0."""
    levels = np.asarray(pi, dtype=float).transpose(-1, *range(np.ndim(pi) - 1))
    root = np.empty(levels.shape)
    for r in range(len(p)):
        if p[r] > 0:
            np.sqrt(np.divide(levels[r], p[r], out=root[r, ...]), out=root[r, ...])
        else:
            root[r, ...] = 0.0
    if out is None:
        out = np.empty((len(pairs),) + root.shape[1:])
    for slot, (n, m) in enumerate(pairs):
        np.multiply(root[n], root[m], out=out[slot, ...])
    return out.transpose(*range(1, out.ndim), 0)


def _level_dot(a, weights, out=None, squared=False):
    """sum_r a[..., r] w_r, or sum_r a[..., r]^2 w_r, as a loop over the
    trailing axis; each a[..., r] is one contiguous slab when a is a
    level-last view of a levels-first array, as FilterModel.posterior
    returns."""
    for r, weight in enumerate(weights):
        term = a[..., r] * a[..., r] if squared else a[..., r]
        if r == 0:
            out = np.multiply(term, weight, out=out)
        else:
            out += term * weight
    return out


def level_cdf(weights) -> np.ndarray:
    """Cumulative distribution of levels drawn with the given weights. It is
    exactly 1 from the last weighted level on, whatever the rounding of the
    sum, so every draw in [0, 1) lands on a weighted level."""
    weights = np.asarray(weights, dtype=float)
    cdf = np.cumsum(weights / weights.sum())
    cdf[np.flatnonzero(weights > 0)[-1]:] = 1.0
    return cdf


def closed_form_state(
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    hbar: float,
    t: float,
    xi_t: float,
) -> np.ndarray:
    """Propagate rho_0 to time t with the exact stochastic map.

    Works over the raw eigenpairs (e_i, v_i) of H, before any degeneracy
    grouping: K = V diag(k) V^dag with
    k_i = exp[-i e_i t / hbar + sigma e_i xi / 2 - sigma^2 e_i^2 t / 4],
    and 0 on eigenvectors that carry no weight of rho_0. The shared
    magnitude scale cancels in the normalization, so the largest supported
    magnitude is pinned to one before assembling K rho_0 K^dag.
    """
    if not (np.isfinite(t) and np.isfinite(xi_t)):
        raise NonFiniteInput(f"t={t}, xi={xi_t}")
    rho = np.asarray(rho0)
    supported = spec.eigenvector_weights(rho) > 0
    if not supported.any():
        raise DegenerateDistribution("state carries no weight on any level")
    e = spec.eigenvalues[supported]
    log_mag = 0.5 * sigma * e * xi_t - 0.25 * sigma**2 * e**2 * t
    k = np.zeros(spec.dim, dtype=complex)
    k[supported] = np.exp(log_mag - np.max(log_mag) - 1j * e * t / hbar)
    propagator = (spec.basis * k) @ spec.basis.conj().T

    unnormalized = propagator @ rho @ propagator.conj().T
    trace = np.trace(unnormalized).real
    if not np.isfinite(trace) or trace <= 0:
        raise NonFiniteInput(f"propagated trace {trace}")
    return validate_density(unnormalized / trace)


def sde_gap(model: "FilterModel", closed: Trajectory) -> tuple:
    """Drive the SDE integrator with the Brownian increments recovered from
    a closed-form trajectory: (the SDE Trajectory, the max entrywise
    |integrated - closed form| gap per grid time, ROW_BLOCK states at a time)."""
    sde = simulate_sme(model.rho0, model.spec, model.sigma, model.hbar, closed.grid,
                       np.diff(closed.w))
    times = closed.grid.times()
    phi = model.phi(times, closed.xi, closed.pi)
    gap = np.empty(len(times))
    for rows in [slice(lo, lo + ROW_BLOCK) for lo in range(0, len(times), ROW_BLOCK)]:
        exact = model.assemble(times[rows], closed.pi[rows], phi[rows])
        gap[rows] = np.max(np.abs(sde.states[rows] - exact), axis=(1, 2))
    return sde, gap


def recovered_brownian(model: "FilterModel", grid: TimeGrid, level: int, b) -> np.ndarray:
    """Reconstruct the driving Brownian motion W_t = xi_t - sigma int_0^t H_s ds
    of the path closed_form_trajectory(model, grid, level, b), with left
    Riemann sums (the Ito, non-anticipating reading)."""
    return closed_form_trajectory(model, grid, level, b).w


def state_decomposition(
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    hbar: float,
    t: float,
    xi_t: float,
) -> np.ndarray:
    """Assemble rho_t from conditioned pieces rather than the propagator:

        rho_t = sum_n pi_n(t) L_n
              + sum_{n != m} P_n rho_0 P_m * exp[-i(E_n - E_m)t/hbar] * Phi_nm(t)

    with L_n the Lueders state of level n: the route every ensemble takes,
    through FilterModel, that must agree with closed_form_state to high
    accuracy.
    """
    if not (np.isfinite(t) and np.isfinite(xi_t)):
        raise NonFiniteInput(f"t={t}, xi={xi_t}")
    model = FilterModel(rho0, spec, sigma, hbar)
    pi = model.posterior(t, xi_t)
    state = model.assemble(t, pi, model.phi(t, xi_t, pi))
    return validate_density(hermitian_part(state))


def default_horizon(model: "FilterModel") -> float:
    """Operational stand-in for t -> infinity:
    max(50 / (sigma * min gap)^2, 10 / (sigma^2 V_0))."""
    spec, sigma, v0 = model.spec, model.sigma, model.v0
    if spec.d < 2 or sigma <= 0:
        return 1.0
    horizon = 50.0 / (sigma * spec.min_gap) ** 2
    if v0 > 0:
        horizon = max(horizon, 10.0 / (sigma**2 * v0))
    return horizon


def closed_form_trajectory(model: "FilterModel", grid: TimeGrid, level: int, b) -> Trajectory:
    """Evaluate the exact solution along the information path
    xi_t = sigma t E_level + B_t on the grid, with B the running sum of b,
    the grid's n_steps Brownian increments (as dynamics.sample_noise draws
    them)."""
    if not 0 <= level < model.spec.d:
        raise ValidationError(f"level must be in [0, {model.spec.d}), got {level}")
    b = check_increments(b, grid.n_steps)
    times = grid.times()
    path_b = np.zeros(grid.n_steps + 1)
    path_b[1:] = np.cumsum(b)
    xi = _freeze(model.sigma * float(model.energies[level]) * times + path_b)
    pi = model.posterior(times, xi)
    phi = model.phi(times, xi, pi)
    h_path = model.energy(pi)
    w = np.empty_like(xi)
    w[0] = 0.0
    w[1:] = xi[1:] - model.sigma * grid.dt * np.cumsum(h_path[:-1])
    return Trajectory(
        grid=grid,
        xi=xi,
        w=_freeze(w),
        pi=_freeze(pi),
        H=_freeze(h_path),
        V=_freeze(model.variance(pi, h_path)),
        purity=_freeze(model.purity(pi, phi)),
        offdiag=_freeze(model.offdiag_norm(phi)),
    )


class FilterModel:
    """Vectorized evaluation of the closed-form solution for one instance.

    Precomputes the constants of (rho_0, spec, sigma, hbar) once (p_r and
    level_cdf, H_0, V_0, the Lueders states and, per unordered pair n < m,
    the gap E_n - E_m, decay_rate sigma^2 (E_n - E_m)^2 / 8 and R_nm(0)) so
    that ensembles can evaluate pi, Phi, purity, and assembled states on
    whole (path, time) blocks. Phi is symmetric under n <-> m and the phases
    are conjugate. A state with no weight on any level raises
    DegenerateDistribution. A level whose weight is at or below
    luders_state's floor keeps a zero Lueders state; tols is accepted and
    not read.
    """

    def __init__(self, rho0, spec: SpectralDecomposition, sigma: float,
                 hbar: float = 1.0, tols: ToleranceSet = DEFAULT_TOLS):
        self.spec = spec
        self.sigma = float(sigma)
        self.hbar = float(hbar)
        self.rho0 = np.asarray(rho0, dtype=complex)
        p = np.clip(spec.level_probabilities(self.rho0), 0.0, None)
        if p.sum() <= 0:
            raise DegenerateDistribution("state carries no weight on any level")
        self.p = p / p.sum()
        self.level_cdf = level_cdf(self.p)
        with np.errstate(divide="ignore"):
            self.log_p = np.log(self.p)
        self.energies = np.asarray(spec.energies, dtype=float)
        self.h0 = float(self.p @ self.energies)
        self.v0 = float(self.p @ self.energies**2 - (self.p @ self.energies) ** 2)

        self.luders_stack = np.zeros((spec.d,) + self.rho0.shape, dtype=complex)
        self.luders_purity = np.zeros(spec.d)
        for n in range(spec.d):
            try:
                state = self.luders_stack[n] = luders_state(self.rho0, spec, n)
            except ZeroProbabilitySubspace:
                continue
            self.luders_purity[n] = np.vdot(state, state).real

        self.pairs = spec.pairs()
        self.pair_gap = np.array(
            [self.energies[n] - self.energies[m] for n, m in self.pairs], dtype=float
        )
        self.decay_rate = 0.125 * self.sigma**2 * self.pair_gap**2
        self.r0 = np.stack(
            [offdiag_block(self.rho0, spec, n, m) for n, m in self.pairs]
        ) if self.pairs else np.zeros((0,) + self.rho0.shape, dtype=complex)
        self.r0_norm = np.array([frobenius_norm(b) for b in self.r0])

    def draw_level(self, u, cdf=None):
        """The signal level(s) of uniform draw(s) u in [0, 1), from level_cdf
        or from cdf if given: an index, or an index array shaped like u."""
        cdf = self.level_cdf if cdf is None else cdf
        return cdf.searchsorted(u, side="right")

    def posterior(self, t, xi, out=None):
        """pi at (t, xi): a level-last view of a levels-first array, out if
        given, so each pi[..., r] is one contiguous slab."""
        logw = _log_masses(self.log_p, self.energies, self.sigma, t, xi, out)
        pi = _normalize_log(logw, logw)
        return pi.transpose(*range(1, pi.ndim), 0)

    def phi(self, t, xi, pi=None, out=None) -> np.ndarray:
        """Phi_nm over the trailing pair axis (n < m pairs), from the
        posterior pi at (t, xi); out, if given, is the pairs-first array."""
        if pi is None:
            pi = self.posterior(t, xi)
        return _phi_from_posterior(pi, self.p, self.pairs, out)

    def energy(self, pi, out=None) -> np.ndarray:
        return _level_dot(pi, self.energies, out)

    def variance(self, pi, mean, out=None) -> np.ndarray:
        """V_t = sum_r pi_r E_r^2 - mean^2, with mean the energy of pi."""
        out = _level_dot(pi, self.energies**2, out)
        out -= mean * mean
        return out

    def purity(self, pi, phi, out=None) -> np.ndarray:
        """tr(rho_t^2) from the scalar series: the diagonal blocks contribute
        pi_n^2 tr(L_n^2), each unordered off-diagonal pair 2 Phi^2 |R_nm|^2."""
        out = _level_dot(pi, self.luders_purity, out, squared=True)
        if self.pairs:
            out += _level_dot(phi, 2.0 * self.r0_norm**2, squared=True)
        return out

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

    def mean_state(self, t) -> np.ndarray:
        """The exact ensemble mean state at t: pi averages to p and each
        Phi_nm to exp[-sigma^2 (E_n - E_m)^2 t / 8]."""
        return self.assemble(t, self.p, np.exp(np.multiply.outer(t, -self.decay_rate)))

    def offdiag_norm(self, phi) -> np.ndarray:
        """|P_n rho_t P_m| per unordered pair."""
        return phi * self.r0_norm
