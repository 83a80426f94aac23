"""Numerically "exact" levels by truncated-basis diagonalization.

The two-mode number basis is cut per mode at n_max, giving dimension
(n_max + 1)^2.  In ladder operators H = H0 + g (hbar^2/4) X1 (x) X2, where
X = (a + a^+)^2 acts on one mode and steps n by 0 or +-2.  The coupling
therefore preserves the per-mode parities, and every basis here is a
tensor grid: the square cut is range(n_max + 1) per mode, and its four
parity blocks are the even or odd numbers of each mode.  The Hamiltonian
of a grid is assembled from the two single-mode X matrices;
converged_levels diagonalizes block by block and enlarges the basis until
the requested number of levels stops moving at the digit target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ModelError, ModelParams, QuantumNumbers
from .quantum import ladder_factor

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


class MatrixOverflow(ModelError):
    """g or hbar is so large that the Hamiltonian overflows double precision."""


@dataclass(frozen=True)
class BasisSpec:
    """Tensor grid of states (n1, n2), n1 in modes1 and n2 in modes2, enumerated n1-major."""

    modes1: range
    modes2: range

    @property
    def dimension(self) -> int:
        return len(self.modes1) * len(self.modes2)

    @property
    def states(self) -> tuple[tuple[int, int], ...]:
        return tuple(itertools.product(self.modes1, self.modes2))


def build_basis(n_max: int) -> BasisSpec:
    """All (n1, n2) with 0 <= n_k <= n_max, lexicographic order."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return BasisSpec(range(n_max + 1), range(n_max + 1))


def split_parity_blocks(basis: BasisSpec) -> list[BasisSpec]:
    """The square cut's parity classes (n1 mod 2, n2 mod 2): (0,0), (0,1), (1,0), (1,1)."""
    return [
        BasisSpec(basis.modes1[p1::2], basis.modes2[p2::2]) for p1 in (0, 1) for p2 in (0, 1)
    ]


def _mode_matrix(modes: range) -> np.ndarray:
    """<m|(a + a^+)^2|n> for m, n in modes, each entry ladder_factor(n, m - n)."""
    n = np.array(modes, dtype=np.int64)
    step = n[:, None] - n
    x = np.zeros(step.shape)
    for d in (-2, 0, 2):
        bra, ket = np.nonzero(step == d)
        x[bra, ket] = ladder_factor(n[ket], d)
    return x


def assemble_hamiltonian(basis: BasisSpec, params: ModelParams) -> np.ndarray:
    """Dense symmetric Hamiltonian over a tensor-grid basis.

    Writes g (hbar^2/4) X1 (x) X2 one nonzero X1 tile at a time, then adds
    e0 to the diagonal, in the product order of v_matrix_element and
    e0_quantum, so each entry is bitwise theirs.  Raises MatrixOverflow if
    an entry is not finite.
    """
    x1, x2 = _mode_matrix(basis.modes1), _mode_matrix(basis.modes2)
    m1, m2 = len(x1), len(x2)
    g, hbar = params.g, params.hbar
    h = np.zeros((m1, m2, m1, m2))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in zip(*np.nonzero(x1)):
            h[i, :, j, :] = g * (0.25 * hbar * hbar * x1[i, j] * x2)
        h = h.reshape(m1 * m2, m1 * m2)
        n1, n2 = np.array(basis.modes1)[:, None], np.array(basis.modes2)
        e0 = hbar * (params.omega1 * (n1 + 0.5) + params.omega2 * (n2 + 0.5))
        h[np.diag_indices(m1 * m2)] += e0.ravel()
    # Every entry is >= 0 or nan, and max propagates nan: one finite max clears them all.
    if not np.isfinite(h.max(initial=0.0)):
        raise MatrixOverflow(f"the Hamiltonian overflows double precision at g={g}, hbar={hbar}")
    return h


def symmetric_eigenvalues(matrix: np.ndarray, want_vectors: bool = False, lowest: int = 0):
    """Ascending eigenvalues of a real symmetric matrix, optionally with vectors.

    Backed by the LAPACK dense symmetric solver (Householder reduction
    plus implicit-shift iteration), which is deterministic for a fixed
    input.  Eigenvectors come back orthonormal, one per column.  A
    positive lowest limits the solve to that many lowest eigenpairs.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix is not symmetric")
    subset = (0, lowest - 1) if lowest > 0 else None
    try:
        return scipy.linalg.eigh(matrix, eigvals_only=not want_vectors, subset_by_index=subset)
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


def _block_spectra(params: ModelParams, n_max: int):
    """Per-parity-block (eigenvalues, matrix, block) for the square cut at n_max."""
    out = []
    for block in split_parity_blocks(build_basis(n_max)):
        h = assemble_hamiltonian(block, params)
        out.append((symmetric_eigenvalues(h), h, block))
    return out


def _merged_values(spectra) -> np.ndarray:
    return np.sort(np.concatenate([w for w, _, _ in spectra]))


def assign_quantum_numbers(spectra, k: int) -> tuple[SpectrumLevel, ...]:
    """Label the k lowest levels by dominant basis-state weight.

    spectra holds, per block, (eigenvalues, eigenvector columns, BasisSpec).
    Each level first claims the basis state carrying its largest squared
    eigenvector component.  When two levels claim the same state the
    larger weight wins and the loser moves to its next-best unclaimed
    state, so the final label set has no duplicates.
    """
    entries = []  # (energy, squared weights, block states)
    for w, v, block in spectra:
        states = block.states
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
    reported levels come from the final step, labelled by the dominant
    weight of eigenvectors solved on its retained block matrices for the
    k lowest levels only.  Raises BudgetExceeded past n_max_cap, and
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
        spectra = _block_spectra(params, n_max)
        spectrum = _merged_values(spectra)
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
                # Vectors for each block's levels up to the k-th; ties past k are cut by assign.
                shares = [int(np.searchsorted(w, values[-1], side="right")) for w, _, _ in spectra]
                spectra = [
                    (w[:c], symmetric_eigenvalues(h, True, lowest=c)[1], block)
                    for (w, h, block), c in zip(spectra, shares)
                    if c
                ]
                return ConvergenceReport(
                    final_n_max=n_max,
                    levels=assign_quantum_numbers(spectra, k),
                    history=tuple(history),
                )
        previous = values
        del spectra  # release this step's matrices before the next step assembles
        n_max += SCHEDULE_STEP
    raise BudgetExceeded(
        f"first {k} levels not converged to {digits} digits by n_max={n_max_cap}"
    )


def dump_matrix_triplets(matrix: np.ndarray, path: str) -> None:
    """Write nonzero entries as "row col value" lines, 0-based, 17 significant digits."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="ascii") as fh:
        for i, row in enumerate(matrix):
            cols = np.flatnonzero(row)  # row by row: no matrix-sized temporaries
            fh.writelines(f"{i} {j} {v:.17g}\n" for j, v in zip(cols.tolist(), row[cols].tolist()))
