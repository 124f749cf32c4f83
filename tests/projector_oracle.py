"""Reference forms of the level quantities over dense projectors.

The program keeps each level as its eigenvector columns V_r and forms no
projector. These are the textbook formulas over dense N x N projectors
P_r = V_r V_r^dag, which the tests hold the program against.
"""

import numpy as np


def projectors(spec):
    """P_r, one dense Hermitian matrix per level."""
    out = []
    for r in range(spec.d):
        v = spec.basis[:, spec.level_index == r]
        p = v @ v.conj().T
        out.append((p + p.conj().T) / 2.0)
    return out


def level_probabilities(rho, spec):
    """p_r = tr(rho P_r)."""
    return np.array([float(np.trace(p @ rho).real) for p in projectors(spec)])


def luders_state(rho, spec, r):
    """P_r rho P_r / tr(rho P_r)."""
    p = projectors(spec)[r]
    out = p @ rho @ p / float(np.trace(p @ rho).real)
    return (out + out.conj().T) / 2.0


def offdiag_block(rho, spec, n, m):
    """R_nm = P_n rho P_m."""
    p = projectors(spec)
    return p[n] @ rho @ p[m]


def closed_form_state(rho0, spec, sigma, hbar, t, xi):
    """K rho_0 K^dag / tr, with K = sum_r k_r P_r over the populated levels,
    k_r = exp[-i E_r t / hbar + sigma E_r xi / 2 - sigma^2 E_r^2 t / 4] and
    the largest populated magnitude pinned to one."""
    e = spec.energies
    supported = np.clip(level_probabilities(rho0, spec), 0.0, None) > 0
    log_mag = 0.5 * sigma * e * xi - 0.25 * sigma**2 * e**2 * t
    top = np.max(log_mag[supported])
    k = sum(
        np.exp(log_mag[r] - top - 1j * e[r] * t / hbar) * p
        for r, p in enumerate(projectors(spec)) if supported[r]
    )
    out = k @ rho0 @ k.conj().T
    return out / np.trace(out).real
