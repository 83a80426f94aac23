"""Numerically "exact" levels by truncated-basis diagonalization.

The two-mode number basis is cut per mode at n_max, giving dimension
(n_max + 1)^2.  The selection rules Delta n in {0, +2, -2} preserve the
per-mode parities, so the Hamiltonian splits into four independent
blocks; the driver diagonalizes block by block and enlarges the basis
until the requested number of levels stops moving at the digit target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ModelError, ModelParams, QuantumNumbers
from .quantum import MatrixElementKey, e0_quantum, v_matrix_element

_STEPS = ((-2, -2), (-2, 0), (-2, 2), (0, -2), (0, 2), (2, -2), (2, 0), (2, 2))

#: Basis-growth schedule parameters: n_max starts at 14 and grows by 5.
SCHEDULE_START = 14
SCHEDULE_STEP = 5
DEFAULT_N_MAX_CAP = 80

#: Assignments whose dominant basis weight falls below this are flagged.
AMBIGUOUS_WEIGHT = 0.4


class ConvergenceFailure(RuntimeError):
    """The dense eigensolver failed to converge (pathological input)."""


class BudgetExceeded(RuntimeError):
    """Basis enlargement hit the n_max cap before the levels converged."""


class UnresolvableDigits(ModelError):
    """The digit target is finer than double precision resolves."""


@dataclass(frozen=True)
class BasisSpec:
    """Per-mode truncated basis, states enumerated (n1, n2) lexicographically."""

    n_max: int
    states: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.states)


def build_basis(n_max: int) -> BasisSpec:
    """All (n1, n2) with 0 <= n_k <= n_max, lexicographic order."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    states = tuple(
        (n1, n2) for n1 in range(n_max + 1) for n2 in range(n_max + 1)
    )
    return BasisSpec(n_max=n_max, states=states)


@dataclass(frozen=True)
class ParityBlock:
    """Indices of basis states with fixed (n1 mod 2, n2 mod 2)."""

    parity1: int
    parity2: int
    indices: tuple[int, ...]


def split_parity_blocks(basis: BasisSpec) -> list[ParityBlock]:
    """Partition of the basis into the four parity classes."""
    blocks = []
    for p1 in (0, 1):
        for p2 in (0, 1):
            indices = tuple(
                i
                for i, (n1, n2) in enumerate(basis.states)
                if n1 % 2 == p1 and n2 % 2 == p2
            )
            blocks.append(ParityBlock(parity1=p1, parity2=p2, indices=indices))
    return blocks


def _assemble(states: tuple[tuple[int, int], ...], params: ModelParams) -> np.ndarray:
    """Dense symmetric Hamiltonian over an arbitrary state list."""
    index = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    g, hbar = params.g, params.hbar
    for i, (n1, n2) in enumerate(states):
        ket = QuantumNumbers(n1, n2)
        h[i, i] = e0_quantum(ket, params) + g * v_matrix_element(
            MatrixElementKey(ket, ket), hbar
        )
        for d1, d2 in _STEPS:
            m = (n1 + d1, n2 + d2)
            j = index.get(m)
            if j is not None:
                h[i, j] = g * v_matrix_element(
                    MatrixElementKey(QuantumNumbers(*m), ket), hbar
                )
    return h


def assemble_hamiltonian(basis: BasisSpec, params: ModelParams) -> np.ndarray:
    """Full truncated Hamiltonian matrix; real symmetric by construction."""
    return _assemble(basis.states, params)


def symmetric_eigenvalues(matrix: np.ndarray, want_vectors: bool = False):
    """Ascending eigenvalues of a real symmetric matrix, optionally with vectors.

    Backed by the LAPACK dense symmetric solver (Householder reduction
    plus implicit-shift iteration), which is deterministic for a fixed
    input.  Eigenvectors come back orthonormal, one per column.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix is not symmetric")
    try:
        if want_vectors:
            return scipy.linalg.eigh(matrix)
        return scipy.linalg.eigvalsh(matrix)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


@dataclass(frozen=True)
class SpectrumLevel:
    """One converged level with its assigned label.

    overlap_weight is the squared eigenvector component on the assigned
    basis state; ambiguous marks a dominant weight below AMBIGUOUS_WEIGHT.
    """

    rank: int
    energy: float
    assigned: QuantumNumbers
    overlap_weight: float
    ambiguous: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the basis-enlargement loop.

    history holds, per accepted schedule step after the first, the
    largest per-level |E(N) - E(N_prev)| over the tracked levels.
    """

    final_n_max: int
    levels: tuple[SpectrumLevel, ...]
    history: tuple[tuple[int, float], ...]


def _block_spectra(params: ModelParams, n_max: int, want_vectors: bool):
    """Per-parity-block spectra for the square cut at n_max."""
    basis = build_basis(n_max)
    out = []
    for block in split_parity_blocks(basis):
        states = tuple(basis.states[i] for i in block.indices)
        h = _assemble(states, params)
        if want_vectors:
            w, v = symmetric_eigenvalues(h, want_vectors=True)
            out.append((w, v, states))
        else:
            out.append((symmetric_eigenvalues(h), None, states))
    return out


def _merged_values(spectra) -> np.ndarray:
    return np.sort(np.concatenate([w for w, _, _ in spectra]))


def assign_quantum_numbers(spectra, k: int) -> tuple[SpectrumLevel, ...]:
    """Label the k lowest levels by dominant basis-state weight.

    Each level first claims the basis state carrying its largest squared
    eigenvector component.  When two levels claim the same state the
    larger weight wins and the loser moves to its next-best unclaimed
    state, so the final label set has no duplicates.
    """
    entries = []  # (energy, squared weights, block states)
    for w, v, states in spectra:
        for j in range(len(w)):
            entries.append((float(w[j]), v[:, j] ** 2, states))
    entries.sort(key=lambda e: e[0])
    entries = entries[:k]

    order = sorted(
        range(len(entries)), key=lambda i: float(entries[i][1].max()), reverse=True
    )
    claimed: set[tuple[int, int]] = set()
    assigned: dict[int, tuple[tuple[int, int], float, bool]] = {}
    for i in order:
        _, weights, states = entries[i]
        best_weight = float(weights.max())
        for idx in np.argsort(weights)[::-1]:
            state = states[int(idx)]
            if state not in claimed:
                claimed.add(state)
                assigned[i] = (state, float(weights[int(idx)]), best_weight < AMBIGUOUS_WEIGHT)
                break

    levels = []
    for rank, i in enumerate(range(len(entries)), start=1):
        energy = entries[i][0]
        state, weight, ambiguous = assigned[i]
        levels.append(
            SpectrumLevel(
                rank=rank,
                energy=energy,
                assigned=QuantumNumbers(*state),
                overlap_weight=weight,
                ambiguous=ambiguous,
            )
        )
    return tuple(levels)


def converged_levels(
    params: ModelParams,
    k: int = 100,
    digits: int = 8,
    n_max_cap: int = DEFAULT_N_MAX_CAP,
) -> ConvergenceReport:
    """Enlarge the basis until the lowest k levels hold to the digit target.

    The stopping rule compares consecutive schedule steps level by level
    against the mixed threshold 0.5 * 10^-digits * max(1, |E|); the
    reported levels (with labels from the dominant eigenvector weight)
    come from the final step.  Raises BudgetExceeded past n_max_cap, and
    UnresolvableDigits at the first step where the smallest threshold is
    no larger than 10 * eps * max|E|, the eigensolver's rounding scale.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")

    n_max = SCHEDULE_START
    while (n_max + 1) ** 2 < k:
        n_max += SCHEDULE_STEP

    previous = None
    history: list[tuple[int, float]] = []
    while n_max <= n_max_cap:
        spectrum = _merged_values(_block_spectra(params, n_max, want_vectors=False))
        values = spectrum[:k]
        threshold = 0.5 * 10.0 ** (-digits) * np.maximum(1.0, np.abs(values))
        resolution = 10.0 * np.finfo(float).eps * float(np.abs(spectrum).max())
        if float(threshold.min()) <= resolution:
            raise UnresolvableDigits(
                f"{digits} digits is beyond double precision at n_max={n_max}: threshold "
                f"{threshold.min():.1e} <= rounding scale 10*eps*max|E| = {resolution:.1e}"
            )
        if previous is not None:
            delta = np.abs(values - previous)
            history.append((n_max, float(delta.max())))
            if bool(np.all(delta < threshold)):
                spectra = _block_spectra(params, n_max, want_vectors=True)
                return ConvergenceReport(
                    final_n_max=n_max,
                    levels=assign_quantum_numbers(spectra, k),
                    history=tuple(history),
                )
        previous = values
        n_max += SCHEDULE_STEP
    raise BudgetExceeded(
        f"first {k} levels not converged to {digits} digits by n_max={n_max_cap}"
    )


def dump_matrix_triplets(matrix: np.ndarray, path: str) -> None:
    """Write nonzero entries as "row col value" lines, 0-based, 17 significant digits."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                if matrix[i, j] != 0.0:
                    fh.write(f"{i} {j} {matrix[i, j]:.17g}\n")
