"""Numerically "exact" levels by truncated-basis diagonalization.

The two-mode number basis is cut per mode at n_max, giving dimension
(n_max + 1)^2.  In ladder operators H = H0 + g (hbar^2/4) X1 (x) X2, where
X = (a + a^+)^2 acts on one mode and steps n by 0 or +-2.  The coupling
therefore preserves the per-mode parities, and every basis here is a
tensor grid: the square cut is range(n_max + 1) per mode, and its four
parity blocks are the even or odd numbers of each mode.  A grid's
Hamiltonian is assembled in lower band storage, its rows placed by the
strides of the mode ranges: in n1-major order a parity block of per-mode
sizes (m1, m2) has bandwidth m2 + 1.  converged_levels solves each block
for eigenvalues alone with LAPACK's band solver and enlarges the basis
until the requested number of levels stops moving at the digit target.  A
step's four bands are assembled, then solved concurrently by one map on a
pool of up to min(4, usable CPUs) threads that converged_levels opens for
its steps and joins before it returns, so no thread outlives a call.
Each step ranks its k lowest levels once, by one stable sort of all
blocks' eigenvalues.  Only the accepted step takes eigenvectors, and only
for the levels it labels: the lowest `labelled` of the k, all of them by
default.  The ranking alone decides which those are, and each block's
labelled levels are its lowest, so a block's labelled count is all its
vector pass needs.  The vectors come by inverse iteration on each band,
shifted by the eigenvalues already found and scaled by a power of two, so
that any valid g and hbar stay inside the exponent range; no n x n array
is built.  That pass is one more map on the same pool, one job per block
that holds a labelled level: the job solves vectors for the block's
labelled count, in order, then runs the block's claim loop on them and
returns the claims, so no vector array outlives its job.  The blocks have
no basis state in common, so the labels are those of one claim loop over
the labelled levels of all blocks.  The calling thread builds the levels
from each job's claims with assign_quantum_numbers.  Every tie, in the
ranking, the canonical basis's column picks and the claim loop, goes to
the lower index, so no label depends on numpy's sort algorithm.
Every LAPACK and BLAS call is made by quartosc._lapack, which releases
the GIL, so the jobs overlap, and never imports scipy.linalg.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._lapack import ConvergenceFailure
from .model import ModelError, ModelParams, QuantumNumbers, range_exponent
from .quantum import ladder_factor

#: The n_max of each basis the enlargement loop may try, in order: 14, 19, ..., 79.
SCHEDULE = range(14, 80, 5)

#: The eigenvalue solver's rounding scale, in units of eps * max|E|.  Checked
#: against a long-double Rayleigh-quotient oracle, the band solver's error
#: reached 72 eps max|E| over all levels at n_max <= 80, past SCHEDULE's largest basis.
ROUNDING_FACTOR = 100.0

#: Cap on the inverse-iteration solves per eigenvector (LAPACK dstein's MAXITS).
INVERSE_ITERATIONS = 5


class BudgetExceeded(RuntimeError):
    """No two scheduled bases hold the levels, or SCHEDULE ended before they converged."""


class UnresolvableDigits(ModelError):
    """The digit target is finer than double precision resolves."""


class MatrixOverflow(ModelError):
    """g or hbar is so large that the Hamiltonian overflows double precision."""


@dataclass(frozen=True)
class BasisSpec:
    """Tensor grid of states (n1, n2), n1 in modes1 and n2 in modes2, enumerated n1-major."""

    modes1: range
    modes2: range


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


def assemble_hamiltonian(basis: BasisSpec, params: ModelParams) -> np.ndarray:
    """Symmetric Hamiltonian over a tensor-grid basis, as its lower band.

    Row d of the (b + 1, n) result is the d-th subdiagonal, band[d, c] =
    H[c + d, c], zero past the matrix.  X's steps by +-2 are o = 2 // step
    places along a mode's range, or none (o = 0) in a range of at most
    2 // step states, so b = o1 m2 + o2: m2 + 1 for a parity block,
    2 m2 + 2 for the square cut.  Entries are computed in the product order
    of v_matrix_element in tests/oracles.py and of quantum.e0_quantum, so
    each is bitwise theirs; couplings are formed at model.range_exponent's
    (g 2^-s, hbar 2^s) and scaled back last.  Raises MatrixOverflow if an
    entry is not finite, naming the frequency term when a diagonal one is.
    """
    x1, x2 = _mode_diagonals(basis.modes1), _mode_diagonals(basis.modes2)
    m1, m2 = len(basis.modes1), len(basis.modes2)
    g, hbar = params.g, params.hbar
    b = max(x1) * m2 + max(x2)
    band = np.zeros((b + 1, m1, m2))
    s = range_exponent(g, hbar)
    h = math.ldexp(hbar, s)  # in [0.5, 1) unless s is 0
    quarter = 0.25 * h * h
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = np.ldexp(g, -s)  # may overflow: the check below reports it
        for (d, x1d), (e, x2e) in itertools.product(x1.items(), x2.items()):
            if (d, e) >= (0, 0):  # on or below the diagonal
                # Row d * m2 + e at column (j, k) holds H[(j + d, k + e), (j, k)].
                k = slice(max(0, -e), min(m2, m2 - e))
                band[d * m2 + e, : m1 - d, k] = coupling * np.multiply.outer(quarter * x1d, x2e)
        if s:
            band = np.ldexp(band, -s)
        band = band.reshape(b + 1, m1 * m2)
        n1, n2 = np.array(basis.modes1)[:, None], np.array(basis.modes2)
        diagonal = hbar * (params.omega1 * (n1 + 0.5) + params.omega2 * (n2 + 0.5)).ravel()
        band[0] += diagonal
    # Every entry is >= 0 or nan, and max propagates nan: one finite max clears them all.
    if not np.isfinite(band.max(initial=0.0)):
        cause = f"g={g}, hbar={hbar}"
        if not np.isfinite(diagonal.max(initial=0.0)):
            cause = f"omega1={params.omega1}, omega2={params.omega2}, hbar={hbar} (frequency term)"
        raise MatrixOverflow(f"the Hamiltonian overflows double precision at {cause}")
    return band


def _mode_diagonals(modes: range) -> dict[int, np.ndarray]:
    """X's nonzero diagonals over a mode's range, {e: X[i + e, i]} for e = 0 and +-o."""
    n, o = np.array(modes), 2 // modes.step
    if not 0 < o < len(n):
        return {0: ladder_factor(n, 0)}
    return {-o: ladder_factor(n[o:], -2), 0: ladder_factor(n, 0), o: ladder_factor(n[:-o], 2)}


#: Threads that solve a schedule step's four parity blocks at once, and the
#: accepted step's blocks' vectors, in a pool that lives for one
#: converged_levels call.
_WORKERS = min(
    4,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix given as its lower band, ascending.

    matrix[d, c] = H[c + d, c], as assemble_hamiltonian returns it.  The
    values are _lapack.band_values' (dsbevd, O(n^2 b)), which
    converged_levels calls on its pool for each step's blocks instead.
    """
    band = np.asarray(matrix, dtype=float)
    if band.ndim != 2 or band.shape[0] > band.shape[1]:
        raise ValueError(f"expected a (b + 1, n) band with b < n, got shape {band.shape}")
    return _lapack.band_values(band)


def _band_eigenvectors(band: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Eigenvectors of the lower band for values[:count], one per column.

    values holds all the band's eigenvalues, ascending.  The solve runs on
    to the end of the last value's run (below), so no run is cut, and
    returns count vectors.  Band and values are scaled by the power of two
    that puts max|E| in [0.5, 1), and band entries below eps max|E| / n are
    dropped from the factorization.  Inverse iteration as LAPACK's dstein
    does it: per eigenvalue, in order, one LU factorization of H - lambda I
    in general band storage (pivots below eps max|E| raised to it), then
    band solves from a seeded start vector, each followed by Gram-Schmidt
    against the earlier vectors of its cluster (gaps below 1e-3 max|E|;
    skipped while the cluster has none), until the residual |Hx - lambda x|
    is at the rounding scale ROUNDING_FACTOR eps max|E|.  Factorization,
    solve and Hx are the calls of one quartosc._lapack.LUSlot per pass
    (dgbtrf, dgbtrs, dsbmv).  The start vectors are one draw of
    default_rng(0), the same stream as one draw of n per vector, made into
    the array that returns the vectors: row j is copied into the solve
    buffer, and its finished vector written back over it.  Each run of
    eigenvalues no more than eps max|E| apart then gets a canonical basis
    of its eigenspace (_canonical_basis), whose column picks send ties to
    the lower index.  Raises ConvergenceFailure if a vector misses the
    rounding scale within INVERSE_ITERATIONS solves, or if a run's basis
    cannot be formed (LinAlgError).
    """
    n = band.shape[1]
    # Scaling by a power of two is exact.  It puts max|E| in [0.5, 1), so the
    # solves, which grow x by up to 1 / (eps max|E|), cannot overflow.
    exponent = -np.frexp(max(abs(values[0]), abs(values[-1])))[1]
    lower = np.ldexp(band, exponent)
    shifts = np.ldexp(values, exponent)
    scale = max(abs(shifts[0]), abs(shifts[-1]))  # max|E|
    floor = np.finfo(float).eps * scale
    edges = np.flatnonzero(np.diff(shifts) > floor) + 1  # the start of each run but the first
    solved = int(np.append(edges, len(shifts))[np.searchsorted(edges, count)])  # whole runs
    # Entries below eps max|E| / n move no eigenvalue past the rounding scale,
    # but dgbtrf's partial pivoting could take a subnormal one as a pivot.
    slot = _lapack.LUSlot(lower, np.where(np.abs(lower) < floor / n, 0.0, lower))
    del lower  # the slot keeps its own copy: this one would only raise the job's peak
    x, hx, residual = slot.x, slot.hx, np.empty(n)
    # Row j starts as vector j's start vector: one draw is the stream of solved
    # draws of n, row by row.  Its finished vector is written back over it.
    vectors = np.random.default_rng(0).uniform(-1.0, 1.0, (solved, n))
    first = 0  # the current cluster's first eigenvalue
    for j, shift in enumerate(shifts[:solved]):
        if j and shift - shifts[j - 1] > 1e-3 * scale:
            first = j
        slot.factor(shift, floor)
        x[:] = vectors[j]
        cluster = vectors[first:j]
        for solve in range(INVERSE_ITERATIONS):
            slot.solve()  # x = (H - shift I)^-1 x, in place
            if first < j:  # an empty cluster would subtract an exact zero vector
                x -= (cluster @ x) @ cluster
            x /= _norm(x)
            if not solve:
                continue  # the first solve leaves the factorization's rounding, over the gap
            slot.product()  # hx = H x
            np.subtract(hx, np.multiply(shift, x, out=residual), out=residual)
            if _norm(residual) <= ROUNDING_FACTOR * floor:
                break
        else:
            raise ConvergenceFailure(
                f"inverse iteration for eigenvalue {float(values[j])} missed the rounding "
                f"scale after {INVERSE_ITERATIONS} solves"
            )
        vectors[j] = x
    edges = edges[edges < solved]
    try:
        for lo, hi in zip([0, *edges], [*edges, solved]):
            if hi - lo > 1:
                vectors[lo:hi] = _canonical_basis(vectors[lo:hi])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return vectors[:count].T


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real vector, bitwise: the root of v.dot(v), without its dispatch."""
    return math.sqrt(v.dot(v))


def _canonical_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the same space, independent of the given basis.

    The m columns that column-pivoted QR picks (_pivot_columns), that is,
    m well-conditioned basis states, fix the span's unique basis that is
    the identity on them; in column order it is then orthonormalized by
    Gram-Schmidt.  Where the span is that of m unit vectors, as for exactly
    degenerate uncoupled states, those come back.
    """
    picked = _pivot_columns(rows)
    q, r = np.linalg.qr(np.linalg.solve(rows[:, picked], rows).T)
    return (q * np.copysign(1.0, np.diagonal(r))).T


def _pivot_columns(rows: np.ndarray) -> np.ndarray:
    """The m columns of m independent rows that column-pivoted QR picks, ascending.

    Gram-Schmidt with column pivoting (Businger & Golub 1965): each pick is
    the first residual column of largest squared norm, which is then
    projected out of the residual.  On the pipeline's degenerate runs the
    picks are the first m of scipy.linalg.qr(rows, pivoting=True), sorted
    (test_pivot_columns_are_the_first_picks_of_scipy_pivoted_qr).
    """
    residual, picked = rows.copy(), []
    for _ in range(len(rows)):
        j = int(np.argmax(np.einsum("ij,ij->j", residual, residual)))
        q = residual[:, j] / _norm(residual[:, j])
        residual -= np.outer(q, q @ residual)
        picked.append(j)
    return np.sort(picked)


@dataclass(frozen=True)
class SpectrumLevel:
    """One converged level with its assigned label.

    overlap_weight is the squared eigenvector component on the assigned
    basis state.  A weight of at most 1/2 is ambiguous: only then can the
    label depend on which levels were labelled with it (the bound in _claim).
    """

    rank: int
    energy: float
    assigned: QuantumNumbers
    overlap_weight: float

    @property
    def ambiguous(self) -> bool:
        """The assigned basis state carries at most 1/2 of the level."""
        return self.overlap_weight <= 0.5


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the basis-enlargement loop.

    energies holds all k converged energies in rank order; levels holds
    the labelled ones, ranks 1..labelled, each with energies[rank - 1] as
    its energy.  history holds, per accepted schedule step after the
    first, the largest per-level |E(N) - E(N_prev)| over the tracked levels.
    """

    final_n_max: int
    energies: tuple[float, ...]
    levels: tuple[SpectrumLevel, ...]
    history: tuple[tuple[int, float], ...]


def _block_spectra(params: ModelParams, n_max: int, pool: ThreadPoolExecutor):
    """Per-parity-block (eigenvalues, band, block) for the square cut at n_max.

    The four bands are assembled, then solved concurrently by one pool.map,
    in block order.  The workers call only the private _lapack.band_values:
    a public function may be wrapped by a tracer that keeps one span stack.
    """
    blocks = split_parity_blocks(build_basis(n_max))
    bands = [assemble_hamiltonian(block, params) for block in blocks]
    return list(zip(pool.map(_lapack.band_values, bands), bands, blocks))


def _claim(vectors: np.ndarray) -> list[tuple[int, int, float]]:
    """The greedy claim loop that labels a block's levels, one per column.

    vectors[:, j] is the j-th lowest level's eigenvector over the block's
    states (n1-major).  Returns (j, i, weight) per level j, in claim
    order: the level claimed basis state i, whose squared component in
    vectors[:, j] is weight.  Levels claim basis states in order of their
    largest squared component, largest first; each level walks its states
    by squared component, largest first, to the first one unclaimed, so
    the claims have no duplicates.  Both orders are stable sorts: ties go
    to the lower index.  Parity blocks have no basis state in common, so
    claims never meet across blocks, and the claims of all blocks together
    are those of one such loop over all their levels.  The input array is
    not modified.

    A level's argmax, numpy's first maximal index, is the first step of
    its walk, so a level whose argmax is unclaimed takes it without a
    sort.  The vectors are orthonormal, so at most one level holds more
    than 1/2 of a state: a level of peak above 1/2 takes its argmax
    whichever levels are in the loop, and only one of weight at most 1/2
    can be pushed off it.
    """
    weights = (vectors**2).T  # one row of squared components per level
    peaks = weights.max(axis=1)
    best = weights.argmax(axis=1).tolist()
    claimed: set[int] = set()
    claims = []
    for j in np.argsort(-peaks, kind="stable").tolist():
        i = best[j]
        if i in claimed:
            i = next(s for s in np.argsort(-weights[j], kind="stable").tolist() if s not in claimed)
        claimed.add(i)
        claims.append((j, i, float(weights[j, i])))
    return claims


def assign_quantum_numbers(claims, values, block: BasisSpec, ranks) -> tuple[SpectrumLevel, ...]:
    """The levels that one parity block's claims (_claim) label, in claim order.

    Claim (j, i, weight) gives the block's j-th lowest eigenvalue
    values[j], of global rank ranks[j], the label of the block's grid
    state i (n1-major) at that weight.  converged_levels calls it on the
    calling thread, once per block that holds a labelled level.
    """
    m2 = len(block.modes2)  # state i of the n1-major grid is (modes1[i // m2], modes2[i % m2])
    return tuple(
        SpectrumLevel(
            int(ranks[j]), float(values[j]),
            QuantumNumbers(block.modes1[i // m2], block.modes2[i % m2]), weight,
        )
        for j, i, weight in claims
    )


def _label_block(job) -> list[tuple[int, int, float]]:
    """One accepted block's job: the claims (_claim) of its labelled levels.

    job is (values, band, block, ranks), values all the band's eigenvalues,
    ascending, and ranks the global ranks of the block's labelled levels,
    which the ranking in converged_levels picked: the block's len(ranks)
    lowest, equal energies going to the lower block.  It alone passes that
    count: _band_eigenvectors returns that many vectors, and _claim
    labels them all, ties going to the lower index.  The vectors are
    dropped when the job returns.  It runs on a pool thread, so it calls
    only private functions and builds no QuantumNumbers: a tracer may wrap
    the public ones with one span stack and count constructions without a
    lock.  The calling thread builds the levels from the claims with
    assign_quantum_numbers.
    """
    values, band, _, ranks = job
    return _claim(_band_eigenvectors(band, values, len(ranks)))


def converged_levels(
    params: ModelParams,
    k: int = 100,
    digits: int = 8,
    labelled: int | None = None,
) -> ConvergenceReport:
    """Enlarge the basis until the lowest k levels hold to the digit target.

    n_max walks SCHEDULE from the first basis holding k levels.  The
    stopping rule compares consecutive steps level by level against the
    relative threshold 0.5 * 10^-digits * |E| (every level is positive).
    Each step ranks its k lowest levels once, by a stable sort of all
    blocks' eigenvalues, so equal energies keep block order.  The report
    carries all k energies, but labels only the lowest `labelled` levels
    (default k): the claim loop runs over those alone, so the levels above
    them move no label.  That sort alone decides which levels each block
    labels: the ranks of its levels among the lowest `labelled`.  The
    accepted step maps _label_block over the blocks that hold a labelled
    level, on the same pool: each job solves vectors for its block's
    ranked count on the retained band and returns the block's claims, and
    the calling thread builds the levels from them with
    assign_quantum_numbers.  The pool is joined before the call returns
    or raises.  Raises ValueError unless 1 <= labelled <= k,
    BudgetExceeded when fewer than two scheduled bases hold k levels (the
    stopping rule compares two) or the schedule ends unconverged, and
    UnresolvableDigits at the first step where the smallest threshold is
    no larger than ROUNDING_FACTOR * eps * max|E|, the eigensolver's
    rounding scale, or the lowest level is subnormal.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    labelled = k if labelled is None else labelled
    if not 1 <= labelled <= k:
        raise ValueError(f"labelled must be in 1..k={k}, got {labelled}")

    held = (SCHEDULE[-2] + 1) ** 2 if len(SCHEDULE) > 1 else 0
    if held < k:
        raise BudgetExceeded(
            f"{k} levels requested, but at most {held} can converge: "
            "the stopping rule needs two scheduled bases that hold them"
        )

    previous = None
    history: list[tuple[int, float]] = []
    # One pool serves every step of this call; leaving the block joins its threads.
    with ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="quartosc-lapack") as pool:
        for n_max in (n for n in SCHEDULE if (n + 1) ** 2 >= k):  # bases holding k levels
            spectra = _block_spectra(params, n_max, pool)
            merged = np.concatenate([w for w, _, _ in spectra])
            lowest = np.argsort(merged, kind="stable")[:k]
            values = merged[lowest]
            threshold = 0.5 * 10.0 ** (-digits) * np.abs(values)
            resolution = ROUNDING_FACTOR * np.finfo(float).eps * float(np.abs(merged).max())
            if float(threshold.min()) <= resolution:
                cause = (
                    f"threshold {threshold.min():.1e} <= rounding scale "
                    f"{ROUNDING_FACTOR:g}*eps*max|E| = {resolution:.1e}"
                )
                if values[0] < np.finfo(float).tiny:
                    cause = f"the energies are subnormal (lowest {values[0]:.3e})"
                raise UnresolvableDigits(
                    f"{digits} digits is beyond double precision at n_max={n_max}: {cause}"
                )
            if previous is not None:
                delta = np.abs(values - previous)
                history.append((n_max, float(delta.max())))
                if bool(np.all(delta < threshold)):
                    break
            previous = values
            del spectra  # release this step's bands before the next step assembles
        else:
            raise BudgetExceeded(
                f"first {k} levels not converged to {digits} digits by n_max={n_max}"
            )

        # Rank r's level is in block block_of[r - 1]; a block's labelled levels are its lowest.
        sizes = [len(w) for w, _, _ in spectra]
        block_of = np.repeat(range(len(spectra)), sizes)[lowest[:labelled]]
        per_block = [np.flatnonzero(block_of == i) + 1 for i in range(len(spectra))]
        # (values, band, block, ranks) of each block that holds a labelled level
        ranked = [(*spectrum, ranks) for spectrum, ranks in zip(spectra, per_block) if len(ranks)]
        claims = list(pool.map(_label_block, ranked))
    levels = [
        level
        for (w, _, block, ranks), block_claims in zip(ranked, claims)
        for level in assign_quantum_numbers(block_claims, w, block, ranks)
    ]
    levels.sort(key=lambda lvl: lvl.rank)
    return ConvergenceReport(
        final_n_max=n_max,
        energies=tuple(values.tolist()),
        levels=tuple(levels),
        history=tuple(history),
    )


#: Entries that dump_matrix_triplets formats with one % operation, which bounds its buffers.
_DUMP_CHUNK = 4096


def dump_matrix_triplets(matrix: np.ndarray, path: str) -> None:
    """Write the nonzero entries of a symmetric matrix as "row col value" lines.

    matrix is the lower band, zero past the matrix, as assemble_hamiltonian
    returns it.  Both triangles are written, 0-based, rows ascending and
    columns ascending within a row, each value as "%.17g"; zeros, -0.0
    included, are left out.  Each distinct value is formatted once.
    """
    band = np.asarray(matrix)
    n = band.shape[1]
    d, c = np.nonzero(band)  # band[d, c] = H[c + d, c]
    off = d > 0  # mirrored into the upper triangle
    rows, cols = np.concatenate([c + d, c[off]]), np.concatenate([c, (c + d)[off]])
    order = np.argsort(rows * n + cols)
    values = band[d, c]
    distinct, index = np.unique(np.concatenate([values, values[off]])[order], return_inverse=True)
    text = ["%.17g" % v for v in distinct.tolist()]
    with open(path, "w", encoding="ascii", newline="") as fh:
        for start in range(0, len(order), _DUMP_CHUNK):
            chunk = order[start : start + _DUMP_CHUNK]
            cells = [None] * (3 * len(chunk))
            cells[0::3], cells[1::3] = rows[chunk].tolist(), cols[chunk].tolist()
            cells[2::3] = [text[i] for i in index[start : start + _DUMP_CHUNK].tolist()]
            fh.write(("%d %d %s\n" * len(chunk)) % tuple(cells))
