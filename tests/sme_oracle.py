"""The Euler-Maruyama step of the SME in its per-call form, and the
records of a run derived from its whole stack of states at once.

The program builds the step's constants (dE, the generator, the level sum)
once per run in dynamics.SmeConstants. Here every call rebuilds them from
(e, sigma, hbar, dt), with the same floating-point expressions in the same
order, and repairs with the same clamp policy. The program derives its
records, rotates its states and takes its gap to the closed form in blocks
of grid rows; here each is one whole-grid expression, and xi and W are
running sums written as loops. The tests hold simulate_sme and sde_gap to
these forms bit for bit.
"""

import numpy as np

from reduction_lab.errors import StepDivergence
from reduction_lab.spectral import DEFAULT_TOLS, hermitian_part, validate_density


def clamp(a):
    """(a with slightly negative eigenvalues clamped, whether it was needed)."""
    lowest = float(np.linalg.eigvalsh(a)[0])
    if lowest < -DEFAULT_TOLS.clamp_tol:
        raise StepDivergence(f"eigenvalue {lowest:.3e}")
    if lowest >= -DEFAULT_TOLS.psd_tol:
        return a, False
    values, vectors = np.linalg.eigh(a)
    a = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
    return hermitian_part(a / np.trace(a).real), True


def euler_raw(r, e, sigma, hbar, dt, dw):
    """The hermitized, trace-renormalized Euler-Maruyama map of r in the
    eigenbasis of H = diag(e)."""
    de = e[:, None] - e
    h_t = float(e @ r.diagonal().real)
    generator = de * (-1j * dt / hbar - 0.125 * sigma**2 * dt * de)
    raw = hermitian_part(r + (generator + 0.5 * sigma * dw * (e[:, None] + e - 2.0 * h_t)) * r)
    trace = raw.trace().real
    if not np.isfinite(trace) or trace <= 0:
        raise StepDivergence(f"trace collapsed to {trace}")
    return raw / trace


def path(rho0, spec, sigma, hbar, grid, noise):
    """The eigenbasis states along the Brownian increments noise, with rho0
    rotated in as simulate_sme does, and whether each step needed the clamp."""
    basis, e = spec.basis, spec.eigenvalues
    states = [basis.conj().T @ validate_density(rho0) @ basis]
    clamped = []
    for k, dw in enumerate(noise):
        try:
            state, flag = clamp(euler_raw(states[-1], e, sigma, hbar, grid.dt, dw))
        except StepDivergence as exc:
            raise StepDivergence(str(exc), step=k) from exc
        states.append(state)
        clamped.append(flag)
    return np.stack(states), clamped


def records(stack, spec, sigma, grid, noise):
    """The Trajectory fields of a run whose eigenbasis states are stack,
    each from the whole stack at once: {field: array}."""
    e, basis = spec.eigenvalues, spec.basis
    p = stack.diagonal(axis1=1, axis2=2).real
    h_series = p @ e
    centered = e - h_series[:, None]
    abs2 = stack.real**2 + stack.imag**2
    levels = [spec.level_index == r for r in range(spec.d)]
    pairs = spec.pairs()
    offdiag = np.empty((len(stack), len(pairs)))
    for slot, (n, m) in enumerate(pairs):
        offdiag[:, slot] = np.sqrt(abs2[:, levels[n]][:, :, levels[m]].sum(axis=(1, 2)))
    xi = np.zeros(grid.n_steps + 1)
    w = np.zeros(grid.n_steps + 1)
    for k, dw in enumerate(noise):
        xi[k + 1] = xi[k] + sigma * h_series[k] * grid.dt + dw
        w[k + 1] = w[k] + dw
    return {
        "xi": xi,
        "w": w,
        "pi": np.stack([p[:, level].sum(axis=1) for level in levels], axis=1),
        "H": h_series,
        "V": np.sum(p * centered**2, axis=1),
        "purity": abs2.sum(axis=(1, 2)),
        "offdiag": offdiag,
        "states": hermitian_part(basis @ stack @ basis.conj().T),
    }


def gap(model, closed, states):
    """max |states - the closed form's assembled states| per grid time, the
    exact states assembled for the whole grid at once."""
    times = closed.grid.times()
    exact = model.assemble(times, closed.pi, model.phi(times, closed.xi, closed.pi))
    return np.max(np.abs(states - exact), axis=(1, 2))
