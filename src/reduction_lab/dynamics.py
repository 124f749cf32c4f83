"""Time-stepping integrators for energy-driven state reduction.

The Hamiltonian H, the reduction parameter sigma (units energy^-1
time^-1/2) and hbar drive three layers:

  density matrix (Euler-Maruyama, Ito), H_t = tr(rho H):
    drho = -(i/hbar)[H, rho] dt + (sigma^2/8)(2 H rho H - H^2 rho - rho H^2) dt
           + (sigma/2)((H - H_t) rho + rho (H - H_t)) dW
  state vector (Euler-Maruyama, Ito):
    dpsi = -(i/hbar) H psi dt - (sigma^2/8)(H - H_t)^2 psi dt + (sigma/2)(H - H_t) psi dW
  ensemble mean (deterministic, classical RK4): the dW-free part of drho.

The ensemble mean has a closed form, FilterModel.mean_state, which the
lindblad command and the variance_decay check use; integrate_lindblad
stays as the numerical oracle the tests hold that closed form against.

Both stochastic steps, sme_step and sse_step, take their state in the
eigenbasis of H; there every generator is elementwise: (E_i - E_j) rho_ij,
-(E_i - E_j)^2 rho_ij and (E_i + E_j - 2 H_t) rho_ij for rho, E_i c_i and
(E_i - H_t) c_i for psi. sse_step takes the 1-D eigenvalues e; sme_step
takes SmeConstants, the arrays that do not change during a run, which
simulate_sme builds once from (e, sigma, hbar, dt), so a density-matrix
step costs about eight small array operations and one eigvalsh.
Euler-Maruyama does not preserve positivity, so each step is repaired:
hermitize, renormalize the trace, and clamp slightly negative eigenvalues;
a violation beyond clamp_tol raises StepDivergence. States are plain
arrays: sme_step returns (state, clamped) and simulate_sme, which rotates
into the eigenbasis once per run, counts the clamped steps. A path's noise
is a plain array too: sample_noise draws the grid's n_steps Brownian
increments, and simulate_sme takes them as dw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, StepDivergence
from .spectral import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    _freeze,
    hermitian_part,
    validate_density,
)

ROW_BLOCK = 1024    # grid rows per pass of the SDE's records, its gap and the CSV rows


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k dt, k = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def t_max(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def from_duration(cls, t_max: float, dt: float) -> "TimeGrid":
        """Build a grid of round(t_max/dt) steps, snapping t_max to the grid."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        return cls(dt=dt, n_steps=max(1, round(t_max / dt)))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def sample_noise(grid: TimeGrid, rng: np.random.Generator) -> np.ndarray:
    """Draw independent Normal(0, dt) increments for every step of the grid."""
    return _freeze(rng.standard_normal(grid.n_steps) * np.sqrt(grid.dt))


def check_increments(dw, n_steps: int) -> np.ndarray:
    """dw as an array, checked to hold n_steps finite Brownian increments."""
    dw = np.asarray(dw)
    if dw.shape != (n_steps,):
        raise DimensionMismatch(dw.shape, (n_steps,))
    if not np.all(np.isfinite(dw)):
        raise NonFiniteInput("noise increments must be finite")
    return dw


@dataclass(frozen=True)
class Trajectory:
    """Column record of one realization on a time grid, integrated by
    simulate_sme or evaluated in closed form by closed_form_trajectory.

    pi has shape (n_points, D) and offdiag one column of |P_n rho P_m| per
    level pair n < m, in spec.pairs() order. xi and the driving Brownian
    motion w satisfy dxi = sigma H_t dt + dW with xi[0] = w[0] = 0. The SDE
    keeps its (n_points, N, N) stack of states and its repair count; the
    closed form assembles states on demand, so its record holds none.
    """

    grid: TimeGrid
    xi: np.ndarray
    w: np.ndarray
    pi: np.ndarray
    H: np.ndarray
    V: np.ndarray
    purity: np.ndarray
    offdiag: np.ndarray
    states: np.ndarray | None = None    # (n_points, N, N), frozen
    repairs: int = 0                    # steps whose state the PSD clamp repaired


def _clamp(a: np.ndarray) -> tuple:
    """(a with slightly negative eigenvalues clamped, whether it was needed).

    Clamping is a small repair, not a projection: eigenvalues below
    -clamp_tol mean the step diverged and raise instead.
    """
    clamp_tol = DEFAULT_TOLS.clamp_tol
    lowest = float(np.linalg.eigvalsh(a)[0])
    if lowest < -clamp_tol:
        raise StepDivergence(
            f"eigenvalue {lowest:.3e} below clamp tolerance -{clamp_tol:.1e}; "
            "a (near-)pure rho0 needs a smaller grid.dt, or --mode closed-form"
        )
    if lowest >= -DEFAULT_TOLS.psd_tol:
        return a, False
    values, vectors = np.linalg.eigh(a)
    a = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
    return hermitian_part(a / np.trace(a).real), True


@dataclass(frozen=True)
class SmeConstants:
    """What an Euler-Maruyama step of the SME reuses on every step of a run
    in the eigenbasis of H = diag(e): with dE = E_i - E_j,

      generator = (-i/hbar dE - sigma^2/8 dE^2) dt,   level_sum = E_i + E_j,

    and half_sigma = sigma/2. Built once per run by SmeConstants.build.
    """

    e: np.ndarray
    generator: np.ndarray
    level_sum: np.ndarray
    half_sigma: float

    @classmethod
    def build(cls, e, sigma: float, hbar: float, dt: float) -> "SmeConstants":
        if np.ndim(e) != 1:
            raise DimensionMismatch(np.shape(e))
        e = np.array(e, dtype=float)
        de = e[:, None] - e
        return cls(
            e=_freeze(e),
            generator=_freeze(de * (-1j * dt / hbar - 0.125 * sigma**2 * dt * de)),
            level_sum=_freeze(e[:, None] + e),
            half_sigma=0.5 * sigma,
        )


def sme_euler_raw(r, step: SmeConstants, dw: float) -> np.ndarray:
    """The algebraic Euler-Maruyama map of a state r in the eigenbasis of
    H = diag(e), hermitized and trace-renormalized but without the PSD
    policy: with dE = E_i - E_j,

      r' = r + [(-i/hbar dE - sigma^2/8 dE^2) dt + sigma/2 (E_i + E_j - 2 H_t) dW] r.

    The generators preserve the trace exactly, so the renormalization only
    absorbs floating-point residue. A step from a pure state leaves the PSD
    cone at order dt (dW^2 - dt), which is why sme_step layers a
    clamp-or-reject policy on top of this map.
    """
    r = np.asarray(r)
    if r.shape != step.generator.shape:
        raise DimensionMismatch(r.shape, step.e.shape)
    h_t = float(step.e @ r.diagonal().real)
    raw = r + (step.generator + step.half_sigma * dw * (step.level_sum - 2.0 * h_t)) * r
    # hermitize in place: (raw + raw^dag) / 2
    raw += raw.conj().T
    raw /= 2.0
    trace = raw.trace().real
    if not math.isfinite(trace) or trace <= 0:
        raise StepDivergence(f"trace collapsed to {trace}")
    raw /= trace
    return raw


def sme_step(r, step: SmeConstants, dw: float) -> tuple:
    """One Euler-Maruyama step of the nonlinear stochastic master equation
    for a state r in the eigenbasis of H, with the run's constants step:
    (the stepped state, whether it needed the PSD clamp)."""
    return _clamp(sme_euler_raw(r, step, dw))


def simulate_sme(
    rho0,
    spec: SpectralDecomposition,
    sigma: float,
    hbar: float,
    grid: TimeGrid,
    dw: np.ndarray,
) -> Trajectory:
    """Iterate sme_step along the grid in the eigenbasis of H, given as its
    spectral decomposition, driven by the n_steps Brownian increments dw;
    per ROW_BLOCK rows, derive the records, then rotate the rows in place:
    Trajectory.states is the one stack. Bitwise reproducible for fixed dw.
    """
    dw = check_increments(dw, grid.n_steps)
    e, basis = spec.eigenvalues, spec.basis
    rho = validate_density(rho0)
    if rho.shape != basis.shape:
        raise DimensionMismatch(rho.shape, basis.shape)
    stack = np.empty((grid.n_steps + 1,) + basis.shape, dtype=complex)
    stack[0] = basis.conj().T @ rho @ basis
    step = SmeConstants.build(e, sigma, hbar, grid.dt)
    repairs = 0
    for k, dw_k in enumerate(dw.tolist()):
        try:
            stack[k + 1], clamped = sme_step(stack[k], step, dw_k)
        except StepDivergence as exc:
            raise StepDivergence(str(exc), step=k) from exc
        repairs += clamped

    # level projectors are index masks here; the diagonal is read before the rotation
    p = stack.diagonal(axis1=1, axis2=2).real
    h_series = p @ e
    levels = [spec.level_index == r for r in range(spec.d)]
    pi = np.stack([p[:, level].sum(axis=1) for level in levels], axis=1)
    v = np.sum(p * (e - h_series[:, None])**2, axis=1)
    pairs = spec.pairs()
    purity = np.empty(len(stack))
    offdiag = np.empty((len(stack), len(pairs)))
    for rows in [slice(lo, lo + ROW_BLOCK) for lo in range(0, len(stack), ROW_BLOCK)]:
        abs2 = stack[rows].real**2 + stack[rows].imag**2
        purity[rows] = abs2.sum(axis=(1, 2))
        for slot, (n, m) in enumerate(pairs):
            offdiag[rows, slot] = np.sqrt(abs2[:, levels[n]][:, :, levels[m]].sum(axis=(1, 2)))
        stack[rows] = hermitian_part(basis @ stack[rows] @ basis.conj().T)

    w = np.zeros(grid.n_steps + 1)
    np.cumsum(dw, out=w[1:])
    # xi[k+1] = (xi[k] + sigma H_k dt) + dW_k in this order: a running sum
    # over the interleaved terms, not over their per-step sums, whose
    # rounding drifts ~1e-13 over 20 000 steps
    terms = np.column_stack([sigma * h_series[:-1] * grid.dt, dw])
    xi = np.zeros(grid.n_steps + 1)
    xi[1:] = np.add.accumulate(terms.ravel())[1::2]

    return Trajectory(
        grid=grid,
        xi=_freeze(xi),
        w=_freeze(w),
        pi=_freeze(pi),
        H=_freeze(h_series),
        V=_freeze(v),
        purity=_freeze(purity),
        offdiag=_freeze(offdiag),
        states=_freeze(stack),
        repairs=repairs,
    )


def sse_step(c, e, sigma: float, hbar: float, dt: float, dw: float) -> np.ndarray:
    """One Euler-Maruyama step of the pure-state reduction equation for the
    amplitudes c in the eigenbasis of H = diag(e), renormalized to unit
    norm: with D = E - H_t,

      c' = c + [(-i/hbar E - sigma^2/8 D^2) dt + sigma/2 D dW] c.
    """
    c, e = np.asarray(c, dtype=complex), np.asarray(e)
    if e.ndim != 1 or c.shape != e.shape:
        raise DimensionMismatch(c.shape, e.shape)
    abs2 = c.real**2 + c.imag**2
    norm2 = abs2.sum()
    if norm2 <= 0:
        raise StepDivergence("state vector has zero norm")
    centered = e - (e @ abs2) / norm2
    out = c + ((-1j / hbar * e - 0.125 * sigma**2 * centered**2) * dt
               + 0.5 * sigma * dw * centered) * c
    norm = np.linalg.norm(out)
    if not np.isfinite(norm) or norm <= 0:
        raise StepDivergence("state vector norm diverged")
    return out / norm


def lindblad_rhs(rho_bar: np.ndarray, h, sigma: float, hbar: float) -> np.ndarray:
    """Right-hand side of the deterministic mean-state master equation.

    Accepts any trace-one Hermitian matrix; positivity is not required
    mid-integration.
    """
    a = np.asarray(h)
    r = np.asarray(rho_bar, dtype=complex)
    if r.shape != a.shape:
        raise DimensionMismatch(r.shape, a.shape)
    commutator = a @ r - r @ a
    hr = a @ r
    dissipator = 2.0 * (hr @ a) - a @ hr - (r @ a) @ a
    return -1j / hbar * commutator + 0.125 * sigma**2 * dissipator


def integrate_lindblad(
    rho0, h, sigma: float, hbar: float, grid: TimeGrid
) -> np.ndarray:
    """Classical RK4 on the mean-state equation; trace renormalized each step.

    Returns the frozen (n_points, N, N) stack of mean states at every grid
    point: the numerical oracle of the closed form FilterModel.mean_state.
    """
    a = np.asarray(h)
    r = np.asarray(rho0, dtype=complex)
    dt = grid.dt
    out = np.empty((grid.n_steps + 1,) + r.shape, dtype=complex)
    out[0] = hermitian_part(r)
    for k in range(grid.n_steps):
        k1 = lindblad_rhs(r, a, sigma, hbar)
        k2 = lindblad_rhs(r + 0.5 * dt * k1, a, sigma, hbar)
        k3 = lindblad_rhs(r + 0.5 * dt * k2, a, sigma, hbar)
        k4 = lindblad_rhs(r + dt * k3, a, sigma, hbar)
        r = r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace = np.trace(r).real
        if not np.isfinite(trace) or trace <= 0:
            raise StepDivergence(f"trace collapsed to {trace}", step=k)
        out[k + 1] = r = hermitian_part(r / trace)
    return _freeze(out)


def variance_bound(v0: float, sigma: float, t) -> np.ndarray | float:
    """Upper bound V_0 / (1 + V_0 sigma^2 t) on the mean energy variance."""
    if v0 < 0:
        raise ValueError(f"initial variance must be nonnegative, got {v0}")
    return v0 / (1.0 + v0 * sigma**2 * np.asarray(t))
