"""The Euler-Maruyama step of the SME in its per-call form.

The program builds the step's constants (dE, the generator, the level sum)
once per run in dynamics.SmeConstants. Here every call rebuilds them from
(e, sigma, hbar, dt), with the same floating-point expressions in the same
order, and repairs with the same clamp policy; the tests hold simulate_sme
to this form bit for bit.
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
