"""Complex Hermitian linear algebra for finite-dimensional quantum states.

Everything downstream works in the eigenrepresentation of the Hamiltonian
H = sum_r E_r P_r with distinct levels E_1 < ... < E_D and orthogonal
projectors P_r, so this module owns validation, the spectral decomposition
with degeneracy grouping, Lueders conditioning, and state moments.

A state is a frozen (N, N) complex ndarray; all other types are immutable
values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenSolverFailure,
    NonFiniteInput,
    NotHermitian,
    NotPositive,
    NotTraceOne,
    ZeroProbabilitySubspace,
)


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical tolerances, sized for double-precision eigensolver noise.

    They are artifacts of floating point, not physics, so the program runs
    with the one set DEFAULT_TOLS. degeneracy_tol, when left None, defaults
    to 1e-8 * max(1, |E|_max) at decomposition time. spectral_decompose and
    FilterModel still accept a set: the benchmark's setup probe passes
    RunConfig.tolerances to both, and tests pass a fixed degeneracy_tol.
    """

    hermiticity_tol: float = 1e-10
    trace_tol: float = 1e-10
    psd_tol: float = 1e-9
    degeneracy_tol: float | None = None
    luders_floor: float = 1e-12
    clamp_tol: float = 1e-6


DEFAULT_TOLS = ToleranceSet()


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, of one matrix or of a stack of them."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def hermiticity_defect(a: np.ndarray) -> float:
    """Max entrywise |A - A^dag|."""
    return float(np.max(np.abs(a - a.conj().T)))


def require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(a.shape)
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise NonFiniteInput("matrix has non-finite entries")
    return a


def _symmetrized(m, tols: ToleranceSet = DEFAULT_TOLS) -> np.ndarray:
    """(A + A^dag) / 2 of a square finite matrix that is Hermitian within
    hermiticity_tol, so that downstream code sees exactly Hermitian data."""
    a = require_square(m)
    defect = hermiticity_defect(a)
    if defect > tols.hermiticity_tol:
        raise NotHermitian(defect, tols.hermiticity_tol)
    return hermitian_part(a)


def validate_density(m) -> np.ndarray:
    """Validate and normalize a candidate density matrix into a frozen
    trace-one positive-semidefinite Hermitian array.

    Checks Hermiticity, trace one (renormalizing when the deviation is
    within trace_tol), and positive semidefiniteness down to -psd_tol.
    """
    a = _symmetrized(m)
    trace = np.trace(a).real
    if abs(trace - 1.0) > DEFAULT_TOLS.trace_tol:
        raise NotTraceOne(trace, DEFAULT_TOLS.trace_tol)
    a = a / trace

    eigenvalues = np.linalg.eigvalsh(a)
    if eigenvalues[0] < -DEFAULT_TOLS.psd_tol:
        raise NotPositive(float(eigenvalues[0]), DEFAULT_TOLS.psd_tol)
    return _freeze(a)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct energy levels with their orthogonal eigenprojectors.

    energies are strictly increasing after degeneracy grouping and
    sum_r energies[r] * projectors[r] reconstructs the operator. The raw
    eigensystem stays alongside: H = basis @ diag(eigenvalues) @ basis^dag,
    and eigenvector i belongs to level level_index[i].
    """

    energies: np.ndarray            # (D,) real, strictly increasing
    projectors: tuple               # D matrices, P_r^2 = P_r = P_r^dag
    multiplicities: tuple           # ints summing to N
    eigenvalues: np.ndarray         # (N,) real, ascending, before grouping
    basis: np.ndarray               # (N, N) unitary, eigenvectors as columns
    level_index: np.ndarray         # (N,) level of each eigenvector

    @property
    def d(self) -> int:
        return len(self.multiplicities)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def min_gap(self) -> float:
        if self.d < 2:
            return 0.0
        return float(np.min(np.diff(self.energies)))

    def pairs(self):
        """Ordered pairs (n, m), n < m, of distinct levels."""
        return [(n, m) for n in range(self.d) for m in range(n + 1, self.d)]

    def level_probabilities(self, rho) -> np.ndarray:
        """p_r = tr(rho P_r) for each level."""
        return np.array(
            [float(np.trace(p @ rho).real) for p in self.projectors]
        )


def spectral_decompose(h, tols: ToleranceSet = DEFAULT_TOLS) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator, merging near-degenerate levels.

    Eigenvalues are grouped by single linkage on the sorted spectrum:
    a gap larger than tols.degeneracy_tol starts a new level. Each merged level
    takes the multiplicity-weighted mean of its members, and its projector
    is the sum of outer products of the corresponding orthonormal
    eigenvectors. The operator must be Hermitian within hermiticity_tol
    and is symmetrized exactly before the eigensolver sees it.
    """
    a = _symmetrized(h, tols)
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc

    degeneracy_tol = tols.degeneracy_tol
    if degeneracy_tol is None:
        degeneracy_tol = 1e-8 * max(1.0, float(np.max(np.abs(eigenvalues))))

    # eigh returns ascending eigenvalues; chain neighbors closer than tol
    groups = [[0]]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[groups[-1][-1]] <= degeneracy_tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    energies = []
    projectors = []
    multiplicities = []
    for idx in groups:
        energies.append(float(np.mean(eigenvalues[idx])))
        v = vectors[:, idx]
        projectors.append(_freeze(hermitian_part(v @ v.conj().T)))
        multiplicities.append(len(idx))

    return SpectralDecomposition(
        energies=_freeze(np.array(energies)),
        projectors=tuple(projectors),
        multiplicities=tuple(multiplicities),
        eigenvalues=_freeze(eigenvalues),
        basis=_freeze(vectors),
        level_index=_freeze(np.repeat(np.arange(len(groups)), multiplicities)),
    )


def luders_state(rho0, spec: SpectralDecomposition, r: int) -> np.ndarray:
    """Condition a state on level r: P_r rho P_r / tr(rho P_r).

    The result is an energy eigenstate of level r; it is pure only when the
    initial state restricted to that subspace is.
    """
    rho = np.asarray(rho0)
    p = spec.projectors[r]
    if rho.shape != p.shape:
        raise DimensionMismatch(rho.shape, p.shape)
    weight = float(np.trace(p @ rho).real)
    if weight <= DEFAULT_TOLS.luders_floor:
        raise ZeroProbabilitySubspace(r, weight)
    out = p @ rho @ p / weight
    return _freeze(hermitian_part(out))


@dataclass(frozen=True)
class StateMoments:
    """Expectation, variance, and third central moment of the energy."""

    H: float
    V: float
    beta: float


def moments(rho, h) -> StateMoments:
    """tr(rho H), tr(rho H^2) - H^2, and tr(rho (H - H)^3)."""
    r, a = np.asarray(rho), np.asarray(h)
    if r.shape != a.shape:
        raise DimensionMismatch(r.shape, a.shape)
    mean = float(np.trace(r @ a).real)
    centered = a - mean * np.eye(a.shape[0])
    c2 = centered @ centered
    variance = float(np.trace(r @ c2).real)
    skew = float(np.trace(r @ c2 @ centered).real)
    return StateMoments(H=mean, V=variance, beta=skew)


def frobenius_norm(a: np.ndarray) -> float:
    """|O| = sqrt(tr O O^dag)."""
    return float(np.sqrt(np.vdot(a, a).real))


def offdiag_block(rho, spec: SpectralDecomposition, n: int, m: int) -> np.ndarray:
    """R_nm = P_n rho P_m."""
    return spec.projectors[n] @ rho @ spec.projectors[m]


def offdiag_norms(rho, spec: SpectralDecomposition) -> dict:
    """|P_n rho P_m| for every ordered pair n != m.

    Hermitian symmetry of rho gives |R_nm| = |R_mn|.
    """
    r = np.asarray(rho)
    if r.shape != spec.projectors[0].shape:
        raise DimensionMismatch(r.shape, spec.projectors[0].shape)
    out = {}
    for n in range(spec.d):
        for m in range(spec.d):
            if n != m:
                out[(n, m)] = frobenius_norm(offdiag_block(r, spec, n, m))
    return out
