import ast
import decimal
import itertools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from quartosc import _lapack, diag
from quartosc.diag import (
    ROUNDING_FACTOR,
    BudgetExceeded,
    ConvergenceFailure,
    MatrixOverflow,
    SpectrumLevel,
    UnresolvableDigits,
    _block_spectra,
    assemble_hamiltonian,
    assign_quantum_numbers,
    build_basis,
    converged_levels,
    dump_matrix_triplets,
    split_parity_blocks,
    symmetric_eigenvalues,
)
from quartosc.model import DEFAULT_PARAMS, ModelError, ModelParams, QuantumNumbers
from quartosc.quantum import e0_quantum

from oracles import v_matrix_element

SQRT2 = math.sqrt(2.0)
PARAMS = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)

_LOOP_STEPS = ((-2, -2), (-2, 0), (-2, 2), (0, -2), (0, 2), (2, -2), (2, 0), (2, 2))


def _states(basis):
    """A tensor-grid basis's states (n1, n2), n1-major: the order of its matrix rows."""
    return tuple((n1, n2) for n1 in basis.modes1 for n2 in basis.modes2)


def _assemble_loop(states, params):
    """Element-by-element Hamiltonian through the scalar kernel.

    The oracle for assemble_hamiltonian.
    """
    index = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    g, hbar = params.g, params.hbar
    for i, (n1, n2) in enumerate(states):
        ket = QuantumNumbers(n1, n2)
        h[i, i] = e0_quantum(ket, params) + v_matrix_element(ket, ket, hbar, g)
        for d1, d2 in _LOOP_STEPS:
            m = (n1 + d1, n2 + d2)
            j = index.get(m)
            if j is not None:
                h[i, j] = v_matrix_element(QuantumNumbers(*m), ket, hbar, g)
    return h


def _dense(band):
    """The full symmetric matrix of a lower band: H[c + d, c] = H[c, c + d] = band[d, c]."""
    n = band.shape[1]
    h = np.zeros((n, n))
    for d, row in enumerate(band):
        h[np.arange(d, n), np.arange(n - d)] = row[: n - d]
        h[np.arange(n - d), np.arange(d, n)] = row[: n - d]
    return h


def _parity_scan(states):
    """States of each parity class (n1 mod 2, n2 mod 2), scanned in order.

    The oracle for split_parity_blocks.
    """
    return [
        tuple(s for s in states if s[0] % 2 == p1 and s[1] % 2 == p2)
        for p1 in (0, 1)
        for p2 in (0, 1)
    ]


def _assign_global(spectra, k):
    """One greedy claim loop over the k lowest levels of all blocks together.

    The oracle for _claim and assign_quantum_numbers, which run the loop per block.
    """
    entries = []  # (energy, squared weights, block states)
    for w, v, block in spectra:
        states = _states(block)
        for j in range(len(w)):
            entries.append((float(w[j]), v[:, j] ** 2, states))
    entries.sort(key=lambda e: e[0])
    entries = entries[:k]

    claims = _argsort_claims([e[1] for e in entries], [e[2] for e in entries])
    assigned = {i: (entries[i][2][idx], weight) for i, idx, weight in claims}
    return tuple(
        SpectrumLevel(
            rank=rank,
            energy=energy,
            assigned=QuantumNumbers(*assigned[rank - 1][0]),
            overlap_weight=assigned[rank - 1][1],
        )
        for rank, (energy, _, _) in enumerate(entries, start=1)
    )


def _argsort_claims(weights, states):
    """The greedy claim loop, walking each level's full stable argsort.

    Level i, with squared components weights[i] over states[i], claims its
    heaviest unclaimed state; levels go largest maximum first, and both
    orders send ties to the lower index.  Returns (i, index, weight) per
    level, in claim order: the oracle for diag._claim.
    """
    order = sorted(range(len(weights)), key=lambda i: float(weights[i].max()), reverse=True)
    claimed = set()
    claims = []
    for i in order:
        for idx in np.argsort(-weights[i], kind="stable"):
            state = states[i][int(idx)]
            if state not in claimed:
                claimed.add(state)
                claims.append((i, int(idx), float(weights[i][int(idx)])))
                break
    return claims


def _merged(params, n_max):
    """All eigenvalues of the square cut at n_max, ascending, from its parity blocks."""
    with ThreadPoolExecutor() as pool:
        spectra = _block_spectra(params, n_max, pool)
    return np.sort(np.concatenate([w for w, _, _ in spectra]))


def _eigenpairs(band, count):
    """The count lowest eigenvalues of a lower band and their vectors, by the pipeline's kernels."""
    values = _lapack.band_values(band)
    return values[:count], diag._band_eigenvectors(band, values, count)


def _assign_per_block(spectra, k):
    """The levels of each block holding one of the k lowest levels, merged by rank."""
    merged = np.concatenate([w for w, _, _ in spectra])
    block_of = np.repeat(np.arange(len(spectra)), [len(w) for w, _, _ in spectra])
    block_of = block_of[np.argsort(merged, kind="stable")[:k]]
    levels = []
    for i, (w, v, block) in enumerate(spectra):
        ranks = np.flatnonzero(block_of == i) + 1
        if len(ranks):
            levels += assign_quantum_numbers(diag._claim(v[:, : len(ranks)]), w, block, ranks)
    return tuple(sorted(levels, key=lambda lvl: lvl.rank))


def _dump_loop(matrix, path):
    """Entry-by-entry triplet writer: the oracle for dump_matrix_triplets."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                if matrix[i, j] != 0.0:
                    fh.write(f"{i} {j} {matrix[i, j]:.17g}\n")


def test_basis_dimensions():
    for n_max, dimension in [(34, 1225), (2, 9)]:
        b = build_basis(n_max)
        assert len(b.modes1) * len(b.modes2) == len(_states(b)) == dimension
    assert _states(build_basis(0)) == ((0, 0),)


def test_basis_is_lexicographic():
    basis = build_basis(2)
    assert _states(basis)[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))


def test_zero_coupling_gives_diagonal_matrix():
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    basis = build_basis(3)
    h = assemble_hamiltonian(basis, params)
    expected = np.diag(
        [e0_quantum(QuantumNumbers(*s), params) for s in _states(basis)]
    )
    np.testing.assert_allclose(_dense(h), expected, atol=0.0)


def test_specific_off_diagonal_entry():
    basis = build_basis(2)
    h = assemble_hamiltonian(basis, PARAMS)
    i = _states(basis).index((2, 0))
    j = _states(basis).index((0, 0))
    assert h[i - j, j] == pytest.approx(0.1 * 0.25 * math.sqrt(2.0), rel=1e-15)


def test_coupling_keeps_full_precision_where_quarter_hbar_squared_is_subnormal():
    # 0.25 * hbar^2 = 2.5e-321 is subnormal: g times it would put this entry 5.6e-4 off.
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=1e150, hbar=1e-160)
    basis = build_basis(2)
    i, j = _states(basis).index((0, 2)), _states(basis).index((0, 0))
    with decimal.localcontext(prec=40):
        g, hbar = decimal.Decimal(1e150), decimal.Decimal(1e-160)
        exact = float(g * hbar * hbar / 4 * decimal.Decimal(2).sqrt())
    entry = assemble_hamiltonian(basis, params)[i - j, j]
    assert entry == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert v_matrix_element(QuantumNumbers(0, 2), QuantumNumbers(0, 0), 1e-160, 1e150) == entry


def test_matrix_is_exactly_symmetric():
    # What makes storing only the lower band lossless.
    h = _assemble_loop(_states(build_basis(6)), PARAMS)
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("n_max", [34, 69])
def test_bandwidth_is_m2_plus_1(n_max):
    basis = build_basis(n_max)
    n = len(basis.modes1) * len(basis.modes2)
    assert assemble_hamiltonian(basis, PARAMS).shape == (2 * (n_max + 1) + 3, n)
    for b in split_parity_blocks(basis):
        n = len(b.modes1) * len(b.modes2)
        assert assemble_hamiltonian(b, PARAMS).shape == (len(b.modes2) + 2, n)


def test_parity_block_sizes():
    blocks = split_parity_blocks(build_basis(34))
    sizes = sorted(len(b.modes1) * len(b.modes2) for b in blocks)
    assert sizes == [289, 306, 306, 324]
    assert sum(sizes) == 1225

    blocks0 = split_parity_blocks(build_basis(0))
    assert sorted(len(b.modes1) * len(b.modes2) for b in blocks0) == [0, 0, 0, 1]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 14, 34])
def test_parity_split_is_the_modulo_scan(n_max):
    basis = build_basis(n_max)
    lexicographic = tuple((n1, n2) for n1 in range(n_max + 1) for n2 in range(n_max + 1))
    assert _states(basis) == lexicographic
    blocks = split_parity_blocks(basis)
    assert [_states(b) for b in blocks] == _parity_scan(lexicographic)
    merged = [s for b in blocks for s in _states(b)]
    assert sorted(merged) == list(lexicographic)
    assert sum(len(b.modes1) * len(b.modes2) for b in blocks) == len(lexicographic)


def test_no_cross_block_coupling():
    basis = build_basis(6)
    h = _dense(assemble_hamiltonian(basis, PARAMS))
    parity = [(n1 % 2, n2 % 2) for n1, n2 in _states(basis)]
    n = len(basis.modes1) * len(basis.modes2)
    for i in range(n):
        for j in range(n):
            if parity[i] != parity[j]:
                assert h[i, j] == 0.0


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 14, 34])
@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_PARAMS,
        ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1),
        ModelParams(omega1=1.0, omega2=0.5, g=0.0, hbar=1.0),
        # 0.25 * hbar^2 is subnormal here: both form it from a scaled hbar and scale back last.
        ModelParams(omega1=1.0, omega2=SQRT2, g=1e159, hbar=1e-160),
    ],
    ids=["default", "sqrt3", "uncoupled", "subnormal"],
)
def test_array_kernel_is_bitwise_the_loop(n_max, params):
    basis = build_basis(n_max)
    for b in [basis] + split_parity_blocks(basis):
        band, oracle = assemble_hamiltonian(b, params), _assemble_loop(_states(b), params)
        n = len(b.modes1) * len(b.modes2)
        assert band.shape[1] == n
        for d, row in enumerate(band):
            assert np.array_equal(row[: n - d], np.diagonal(oracle, -d))
            assert not row[n - d :].any()
        width = len(band) - 1
        assert not np.tril(oracle, -width - 1).any() and not np.triu(oracle, width + 1).any()


@pytest.mark.parametrize("field, value", [("g", 1e308), ("hbar", 1e200)])
def test_overflowing_hamiltonian_rejected(field, value):
    params = ModelParams(**{"omega1": 1.0, "omega2": SQRT2, field: value})
    with pytest.raises(MatrixOverflow):
        assemble_hamiltonian(build_basis(2), params)


def test_eigenvalues_2x2_closed_form():
    a, b = 3.0, -1.5
    w = _lapack.band_values(np.array([[a, a], [b, 0.0]]))  # [[a, b], [b, a]] as a band
    np.testing.assert_allclose(w, [a - abs(b), a + abs(b)], rtol=1e-14)


def test_eigenvalues_of_diagonal_matrix():
    d = np.array([[3.0, -1.0, 2.5]])  # diag(3, -1, 2.5) as a band of width 0
    np.testing.assert_allclose(_lapack.band_values(d), [-1.0, 2.5, 3.0], rtol=0)


@pytest.mark.parametrize(
    "band", [np.ones(3), np.ones((1, 2, 2)), np.ones((3, 2))], ids=["1d", "3d", "too-wide"]
)
def test_eigenvalues_reject_malformed_band(band):
    with pytest.raises(ValueError):
        symmetric_eigenvalues(band)


def _rayleigh_oracle(band):
    """Eigenvalues as long-double Rayleigh quotients v^T H v / v^T v of dense eigh vectors.

    A quotient's error is second order in its vector's, so this resolves
    the band solver's rounding error well below eps * max|E|.
    """
    _, v = scipy.linalg.eigh(_dense(band))
    v, band = v.astype(np.longdouble), band.astype(np.longdouble)
    n = v.shape[0]
    hv = band[0][:, None] * v
    for d in range(1, len(band)):
        hv[d:] += band[d, : n - d, None] * v[: n - d]
        hv[: n - d] += band[d, : n - d, None] * v[d:]
    return (v * hv).sum(axis=0) / (v * v).sum(axis=0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended long double"
)
@pytest.mark.parametrize("n_max", [14, 34])
@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_PARAMS,
        ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1),
        ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1),
    ],
    ids=["default", "hbar0.1", "sqrt3"],
)
def test_band_eigenvalues_within_the_rounding_scale(n_max, params):
    bands = [assemble_hamiltonian(b, params) for b in split_parity_blocks(build_basis(n_max))]
    values = [_lapack.band_values(band) for band in bands]
    scale = np.finfo(float).eps * max(float(np.abs(w).max()) for w in values)
    for band, w in zip(bands, values):
        error = np.abs(w.astype(np.longdouble) - _rayleigh_oracle(band))
        assert float(error.max()) <= ROUNDING_FACTOR * scale


def test_eigenvector_residual_and_orthonormality():
    band = assemble_hamiltonian(build_basis(6), PARAMS)
    w, v = _eigenpairs(band, band.shape[1])
    h = _dense(band)
    scale = np.linalg.norm(h)
    for j in range(len(w)):
        assert np.linalg.norm(h @ v[:, j] - w[j] * v[:, j]) <= 1e-10 * scale
    gram = v.T @ v
    assert np.max(np.abs(gram - np.eye(len(w)))) < 1e-10


@pytest.mark.parametrize(
    "params, n_max",
    [
        (DEFAULT_PARAMS, 34),
        (DEFAULT_PARAMS, 69),
        (ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1), 34),
    ],
    ids=["default-34", "default-69", "sqrt3"],
)
def test_inverse_iteration_matches_dense_eigh(params, n_max):
    """Each block's lowest vectors, as many as deep runs take, against the dense solver."""
    for block in split_parity_blocks(build_basis(n_max)):
        band = assemble_hamiltonian(block, params)
        values = _lapack.band_values(band)
        count = min(len(values) // 3, 125)
        w, v = values[:count], diag._band_eigenvectors(band, values, count)
        h = _dense(band)
        _, oracle = scipy.linalg.eigh(h, subset_by_index=(0, count - 1))
        np.testing.assert_allclose(v**2, oracle**2, rtol=0, atol=1e-9)
        assert np.abs(v.T @ v - np.eye(count)).max() < 1e-12
        scale = np.finfo(float).eps * np.abs(values).max()
        assert np.linalg.norm(h @ v - v * w, axis=0).max() <= ROUNDING_FACTOR * scale


@pytest.mark.parametrize(
    "g, hbar",
    [
        (1e-308, 1.0),
        (5e-324, 0.1),
        (1e-8, 1e-155),
        (0.1, 1e-170),
        (1e119, 1e-120),  # the reference Hamiltonian times 1e-120
        (1e-101, 1e100),  # the reference Hamiltonian times 1e100
    ],
)
def test_inverse_iteration_at_the_edges_of_double_precision_matches_dense_eigh(g, hbar):
    """Subnormal couplings, and entries near either end of the exponent range."""
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=g, hbar=hbar)
    for block in split_parity_blocks(build_basis(14)):
        band = assemble_hamiltonian(block, params)
        values = _lapack.band_values(band)
        count = len(values) // 3
        w, v = values[:count], diag._band_eigenvectors(band, values, count)
        top = np.abs(values).max()
        h = _dense(band) / top  # the residual's squares would leave the exponent range
        _, oracle = scipy.linalg.eigh(h, subset_by_index=(0, count - 1))
        np.testing.assert_allclose(v**2, oracle**2, rtol=0, atol=1e-9)
        assert np.abs(v.T @ v - np.eye(count)).max() < 1e-12
        residual = np.linalg.norm(h @ v - v * (w / top), axis=0).max()
        assert residual <= ROUNDING_FACTOR * np.finfo(float).eps


def test_vector_solve_is_bitwise_repeatable():
    band = assemble_hamiltonian(split_parity_blocks(build_basis(34))[1], PARAMS)
    state = np.random.get_state()
    w1, v1 = _eigenpairs(band, 40)
    np.random.random(3)
    w2, v2 = _eigenpairs(band, 40)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)
    np.random.set_state(state)
    _eigenpairs(band, 40)
    assert np.array_equal(np.random.get_state()[1], state[1])  # global generator untouched


@pytest.mark.parametrize("m, n", [(1, 5), (100, 324), (37, 1225)])
def test_batched_start_vectors_are_the_stream_of_single_draws(m, n):
    # The vector pass draws its m start vectors in one call; a numpy whose
    # batched draw left the stream of m single draws would move every vector.
    rng = np.random.default_rng(0)
    singles = np.stack([rng.uniform(-1.0, 1.0, n) for _ in range(m)])
    batched = np.random.default_rng(0).uniform(-1.0, 1.0, (m, n))
    assert batched.tobytes() == singles.tobytes()


def test_close_eigenvalues_get_orthogonal_vectors():
    # Eigenvalues 8 eps max|E| apart: each solve mixes in the other's vector 1:8.
    band = np.array([[1.0, 1.0 + 2.0**-48, 2.0], [0.0, 0.0, 0.0]])
    _, v = _eigenpairs(band, 3)
    assert np.abs(v.T @ v - np.eye(3)).max() < 1e-15


def test_inverse_iteration_off_an_eigenvalue_fails():
    band = assemble_hamiltonian(split_parity_blocks(build_basis(14))[0], PARAMS)
    values = _lapack.band_values(band)
    shifted = values + 0.5 * np.diff(values).min()
    with pytest.raises(ConvergenceFailure):
        diag._band_eigenvectors(band, shifted, 1)


def test_inverse_iteration_failure_names_the_eigenvalue_as_a_plain_float():
    band = assemble_hamiltonian(split_parity_blocks(build_basis(14))[0], PARAMS)
    shifted = _lapack.band_values(band) + 0.25
    with pytest.raises(ConvergenceFailure) as failure:
        diag._band_eigenvectors(band, shifted, 1)
    assert str(failure.value) == (
        f"inverse iteration for eigenvalue {float(shifted[0])} missed the rounding scale "
        f"after {diag.INVERSE_ITERATIONS} solves"
    )


@pytest.mark.parametrize("omega2", [0.5, 2.0])
def test_degenerate_shifts_give_unit_vectors(omega2):
    # At g = 0, E(n1, n2) = n1 + 1/2 + omega2 (n2 + 1/2) repeats inside a parity
    # block, e.g. (2, 0) and (0, 4) at omega2 = 1/2: H - lambda I is exactly singular.
    params = ModelParams(omega1=1.0, omega2=omega2, g=0.0, hbar=1.0)
    levels = converged_levels(params).levels
    parity = [(lvl.energy, lvl.assigned.n1 % 2, lvl.assigned.n2 % 2) for lvl in levels]
    assert len(set(parity)) < len(parity)
    for lvl in levels:
        assert lvl.overlap_weight == pytest.approx(1.0, abs=1e-12)  # also rules out nan
        assert not lvl.ambiguous
        assert e0_quantum(lvl.assigned, params) == lvl.energy
    assert len({lvl.assigned for lvl in levels}) == len(levels)


@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_PARAMS,
        ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1),
        ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1),
        ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0),
    ],
    ids=["default", "hbar0.1", "sqrt3", "g0"],
)
def test_band_values_are_bitwise_eigvals_banded(params):
    for n_max in (1, 2, 3, 14, 34, 69):
        for block in split_parity_blocks(build_basis(n_max)):
            band = assemble_hamiltonian(block, params)
            oracle = scipy.linalg.eigvals_banded(band, lower=True, check_finite=False)
            assert np.array_equal(_lapack.band_values(band), oracle)


@pytest.mark.parametrize(
    ("params", "k", "digits"),
    [
        (DEFAULT_PARAMS, 20, 8),
        (DEFAULT_PARAMS, 100, 8),
        (DEFAULT_PARAMS, 500, 10),
        (ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0), 20, 8),  # exact zero pivots
    ],
    ids=["k20", "k100", "k500", "g0"],
)
def test_block_jobs_are_bitwise_the_sequential(monkeypatch, params, k, digits):
    # The accepted step's block jobs run one after another on one worker, two
    # or four at once on more: the report must not depend on it.
    monkeypatch.setattr(diag, "_WORKERS", 1)
    sequential = converged_levels(params, k=k, digits=digits)
    for workers in (2, 4):
        monkeypatch.setattr(diag, "_WORKERS", workers)
        assert converged_levels(params, k=k, digits=digits) == sequential


def test_block_jobs_under_thread_pressure_are_bitwise_the_sequential(monkeypatch):
    # More block jobs at once than cores, switching every 10 us: each job's
    # workspace must stay its own.
    monkeypatch.setattr(diag, "_WORKERS", 1)
    sequential = converged_levels(DEFAULT_PARAMS, k=100)
    monkeypatch.setattr(diag, "_WORKERS", (os.cpu_count() or 1) + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert converged_levels(DEFAULT_PARAMS, k=100) == sequential
    finally:
        sys.setswitchinterval(interval)


def _f2py_factor(band, shift, floor):
    """dgbtrf through scipy.linalg.lapack's f2py wrapper: the oracle for _lapack.LUSlot.factor."""
    b, n = band.shape[0] - 1, band.shape[1]
    lu = np.zeros((3 * b + 1, n), order="F")  # row 2b + i - j holds H[i, j]
    for d in range(b + 1):
        lu[2 * b + d, : n - d] = lu[2 * b - d, d:] = band[d, : n - d]
    lu[2 * b] -= shift
    lu, pivot, _ = scipy.linalg.lapack.dgbtrf(lu, b, b, overwrite_ab=True)
    u = lu[2 * b]
    tiny = np.abs(u) < floor
    u[tiny] = np.copysign(floor, u[tiny])
    return lu, pivot


def test_ctypes_band_lu_is_bitwise_the_f2py_wrappers():
    for block in split_parity_blocks(build_basis(69)):
        band = assemble_hamiltonian(block, DEFAULT_PARAMS)
        b, n = band.shape[0] - 1, band.shape[1]
        values = _lapack.band_values(band)
        floor = np.finfo(float).eps * abs(values[-1])
        # The vector pass factors the band with its tiniest entries dropped and
        # multiplies by the whole band: here one coupling is dropped.
        dropped = band.copy()
        assert dropped[b, 0]
        dropped[b, 0] = 0.0
        # Row 2b + i - j holds U[i, j]: rows above 2b - j lie before the matrix's first row.
        used = np.arange(3 * b + 1)[:, None] >= 2 * b - np.arange(n)
        rhs = np.random.default_rng(1).uniform(-1.0, 1.0, n)
        for factored in (band, dropped):
            slot = _lapack.LUSlot(band, factored)
            slot.lu.fill(np.nan)  # a reused buffer's stale entries must not matter
            for shift in (values[0], values[7], 0.5 * (values[40] + values[41])):
                lu, pivot = _f2py_factor(factored, shift, floor)
                slot.factor(shift, floor)
                assert np.array_equal(slot.pivot - 1, pivot)  # f2py returns them 0-based
                assert np.array_equal(slot.lu[used], lu[used])
                x, _ = scipy.linalg.lapack.dgbtrs(lu, b, b, rhs, pivot)
                slot.x[:] = rhs
                slot.solve()
                assert np.array_equal(slot.x, x)
            slot.x[:] = rhs
            slot.product()
            assert np.array_equal(slot.hx, scipy.linalg.blas.dsbmv(b, 1.0, band, rhs, lower=1))


def test_exactly_singular_shift_gets_its_zero_pivot_raised_to_the_floor():
    # At g=0 the band is diagonal, so shifting it by a diagonal entry leaves an
    # exact zero pivot (dgbtrf's info > 0); LUSlot.factor raises it to the floor, as
    # the f2py oracle does.
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    band = assemble_hamiltonian(split_parity_blocks(build_basis(14))[0], params)
    b, n = band.shape[0] - 1, band.shape[1]
    floor = np.finfo(float).eps * band[0].max()
    used = np.arange(3 * b + 1)[:, None] >= 2 * b - np.arange(n)
    slot = _lapack.LUSlot(band, band)
    for c in (0, 5, n - 1):
        slot.factor(band[0, c], floor)
        assert slot.info.value == c + 1  # dgbtrf met U[c, c] = 0
        lu, pivot = _f2py_factor(band, band[0, c], floor)
        assert np.array_equal(slot.pivot - 1, pivot)
        assert np.array_equal(slot.lu[used], lu[used])
        u = slot.lu[2 * b]
        assert abs(u[c]) == floor and np.abs(np.delete(u, c)).min() > floor


@pytest.mark.parametrize("n_max", [34, 69])
def test_ctypes_band_product_is_bitwise_the_f2py_wrapper(n_max):
    rng = np.random.default_rng(2)
    for block in split_parity_blocks(build_basis(n_max)):
        band = assemble_hamiltonian(block, DEFAULT_PARAMS)
        b, n = band.shape[0] - 1, band.shape[1]
        values = _lapack.band_values(band)
        # The scaled band of the vector pass, max|E| in [0.5, 1).
        scaled = np.ldexp(band, -np.frexp(abs(values[-1]))[1])
        slot = _lapack.LUSlot(scaled, scaled)
        for _ in range(3):
            slot.x[:] = rng.uniform(-1.0, 1.0, n)
            slot.product()
            oracle = scipy.linalg.blas.dsbmv(b, 1.0, scaled, slot.x, lower=1)
            assert np.array_equal(slot.hx, oracle)


def _degenerate_runs(monkeypatch):
    """The rows _canonical_basis picks columns from: at g 0, and with gaps below rounding."""
    runs, original = [], diag._pivot_columns

    def spy(rows):
        runs.append(rows.copy())
        return original(rows)

    monkeypatch.setattr(diag, "_pivot_columns", spy)
    for omega2 in (0.5, 2.0):
        converged_levels(ModelParams(omega1=1.0, omega2=omega2, g=0.0, hbar=1.0))
    for omega2 in (1e15, 1e16, 1e300):
        converged_levels(ModelParams(omega1=1.0, omega2=omega2, g=0.1, hbar=1.0), k=20)
    monkeypatch.undo()
    return runs


def test_pivot_columns_are_the_first_picks_of_scipy_pivoted_qr(monkeypatch):
    runs = _degenerate_runs(monkeypatch)
    assert len(runs) > 10
    for rows in runs:
        picks = scipy.linalg.qr(rows, mode="r", pivoting=True)[1][: len(rows)]
        assert np.array_equal(diag._pivot_columns(rows), np.sort(picks))


def _report_in_child(tmp_path, setup):
    """converged_levels at the defaults in a fresh process, after running setup there."""
    probe = (
        "import pickle, sys\n"
        f"{setup}\n"
        "from quartosc import _lapack\n"
        "from quartosc.diag import converged_levels\n"
        "from quartosc.model import DEFAULT_PARAMS\n"
        "report = converged_levels(DEFAULT_PARAMS)\n"
        "loaded = sys.modules.get('scipy.linalg.cython_lapack')\n"
        "imported = 'scipy.linalg' in sys.modules and loaded is _lapack._lapack\n"
        "sys.stdout.buffer.write(pickle.dumps((imported, report)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(diag.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


def test_lapack_binding_falls_back_to_importing_scipy_linalg(tmp_path):
    # Where scipy's extension files are not beside scipy.__file__, the routines
    # come from the scipy.linalg modules imported by name: the same report.
    fast_imported, fast = _report_in_child(tmp_path, "")
    moved = f"import scipy; scipy.__file__ = {str(tmp_path / '__init__.py')!r}"
    imported, report = _report_in_child(tmp_path, moved)
    assert not fast_imported and imported
    assert report == fast


def _illegal(routine, argument):
    """_lapack's routine, but each call reports argument as illegal (info = -argument)."""
    real = getattr(_lapack, routine)

    def illegal(*args):
        real(*args)
        args[-1]._obj.value = -argument  # info, passed by reference

    return illegal


def test_factorization_argument_error_raises_value_error(monkeypatch):
    # Every call's negative info raises the one ValueError naming its routine.
    band = assemble_hamiltonian(split_parity_blocks(build_basis(14))[0], PARAMS)
    cases = [
        ("dsbevd", 6, lambda: _lapack.band_values(band)),  # ldab
        ("dgbtrf", 6, lambda: _eigenpairs(band, 10)),  # ldab
        ("dgbtrs", 7, lambda: _eigenpairs(band, 10)),  # ldab
    ]
    for routine, argument, run in cases:
        with monkeypatch.context() as patch:
            patch.setattr(_lapack, routine, _illegal(routine, argument))
            message = f"^{routine}: argument {argument} had an illegal value$"
            with pytest.raises(ValueError, match=message):
                run()


def test_digits_beyond_double_precision_raise_unresolvable_digits():
    with pytest.raises(UnresolvableDigits, match="^16 digits is beyond double precision"):
        converged_levels(DEFAULT_PARAMS, k=3, digits=16)
    assert issubclass(UnresolvableDigits, ModelError)  # so the CLI exits 2


def test_only_the_lapack_module_imports_ctypes():
    # quartosc._lapack owns the LAPACK/BLAS boundary: no other module makes a foreign call.
    importers = set()
    for path in Path(diag.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.partition(".")[0] == "ctypes" for module in modules):
                importers.add(path.name)
    assert importers == {"_lapack.py"}


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_block_job_holds_one_lu_buffer_per_factorization_in_flight(workers):
    # Each block job factors in one LU buffer of its own: `workers` jobs in
    # flight on a pool (None: one job on the calling thread) hold one each.
    band = assemble_hamiltonian(split_parity_blocks(build_basis(34))[0], PARAMS)
    values = _lapack.band_values(band)
    b, n = band.shape[0] - 1, band.shape[1]
    count = 40
    job = (values, band, None, np.arange(1, count + 1))
    jobs = workers or 1
    with ThreadPoolExecutor(jobs) as pool:
        list(pool.map(diag._label_block, [job] * jobs))  # warm up
        tracemalloc.start()
        try:
            if workers:
                list(pool.map(diag._label_block, [job] * jobs))
            else:
                diag._label_block(job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # One LU buffer and its pivots serve all of a job's vectors.
    lu = (3 * b + 1) * (n + b) * 8 + n * 4
    # Per job, beside its vectors and that buffer: the slot's mirrored band
    # (2b + 1 < count rows) in the room of the vectors' squares, which come
    # after the slot is dropped, and the band's copy and the work arrays
    # within two band-sized arrays.  A second buffer per job would not fit.
    assert peak <= jobs * (2 * count * n * 8 + lu + 2 * band.nbytes)


def test_worker_failure_raises_convergence_failure(monkeypatch):
    original = diag.assemble_hamiltonian
    count = itertools.count()

    def poisoned(block, params):
        band = original(block, params)
        if next(count) == 6:  # the second step's third block
            band[0, -1] = np.nan  # dsbevd cannot converge on it
        return band

    monkeypatch.setattr(diag, "assemble_hamiltonian", poisoned)
    with pytest.raises(ConvergenceFailure, match="dsbevd did not converge"):
        converged_levels(DEFAULT_PARAMS)
    monkeypatch.undo()
    assert converged_levels(DEFAULT_PARAMS, k=20).final_n_max == 24  # the pool still works


def test_each_call_joins_its_pool_threads(monkeypatch):
    # Each call has its own pool: its threads serve every step of that call,
    # and none outlives it.
    original, workers = _lapack.band_values, []

    def spy_values(band):
        workers.append(threading.current_thread())
        return original(band)

    monkeypatch.setattr(_lapack, "band_values", spy_values)
    before = threading.active_count()
    for _ in range(3):
        assert converged_levels(DEFAULT_PARAMS, k=20).final_n_max == 24  # steps 14, 19, 24
        assert threading.active_count() == before
    assert len(workers) == 3 * 3 * 4 and threading.main_thread() not in workers
    for call in range(0, len(workers), 3 * 4):
        assert 1 <= len(set(workers[call : call + 3 * 4])) <= diag._WORKERS
    assert not any(thread.is_alive() for thread in workers)


def test_vector_factorizations_run_on_the_calls_own_pool_threads(monkeypatch):
    # Each factorization of the vector pass runs, in a block's job, on a thread
    # of the pool that its converged_levels call opened, and none outlives the call.
    pools, factored_on = [], []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    original = _lapack.LUSlot.factor

    def spy_factor(*args):
        factored_on.append((len(pools), threading.current_thread()))
        return original(*args)

    monkeypatch.setattr(diag, "ThreadPoolExecutor", RecordedPool)
    monkeypatch.setattr(_lapack.LUSlot, "factor", spy_factor)
    before = threading.active_count()
    for _ in range(2):
        assert len(converged_levels(DEFAULT_PARAMS, k=20).levels) == 20
        assert threading.active_count() == before
    assert len(pools) == 2
    assert factored_on and threading.main_thread() not in {t for _, t in factored_on}
    for call, thread in factored_on:
        assert thread in pools[call - 1]._threads
    assert not any(t.is_alive() for pool in pools for t in pool._threads)


@pytest.mark.parametrize(("k", "first"), [(1, 14), (225, 14), (226, 19), (500, 24), (5625, 74)])
def test_schedule_starts_at_the_first_basis_holding_k_levels(monkeypatch, k, first):
    class Solved(Exception):
        pass

    steps = []

    def spy_spectra(params, n_max, pool):
        steps.append(n_max)
        raise Solved  # nothing is solved

    monkeypatch.setattr(diag, "_block_spectra", spy_spectra)
    with pytest.raises(Solved):
        converged_levels(DEFAULT_PARAMS, k=k)
    assert steps == [first]


def _final_n_max_in_child(queue):
    queue.put(converged_levels(DEFAULT_PARAMS, k=20).final_n_max)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_solves_after_the_parent():
    # The parent solves before the fork; the child must solve too.
    assert converged_levels(DEFAULT_PARAMS, k=20).final_n_max == 24
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_final_n_max_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == 24
    finally:
        child.kill()
        child.join()
        queue.close()


def test_block_spectra_match_full_matrix():
    h = assemble_hamiltonian(build_basis(6), PARAMS)
    full = _lapack.band_values(h)
    merged = _merged(PARAMS, 6)
    np.testing.assert_allclose(merged, full, atol=1e-12)


def test_interlacing_across_nested_bases():
    k = 100
    prev = None
    for n_max in (14, 19, 24, 29):
        values = _merged(PARAMS, n_max)[:k]
        if prev is not None:
            assert np.all(values <= prev + 1e-12)
        prev = values


def test_converged_levels_reference_run(default_table):
    report = default_table.report
    assert report.final_n_max == 34
    assert report.levels[0].energy == pytest.approx(1.230722, abs=5e-6)
    assert report.levels[1].energy == pytest.approx(2.275974, abs=5e-6)
    assert [lvl.rank for lvl in report.levels[:3]] == [1, 2, 3]


def test_each_schedule_step_solved_once(monkeypatch):
    assembled, values_solved, vectors_solved = [], [], []
    original_assemble, original_values = diag.assemble_hamiltonian, _lapack.band_values
    original_vectors = diag._band_eigenvectors

    def spy_assemble(block, params):
        h = original_assemble(block, params)
        assembled.append((block, h))
        return h

    def spy_values(band):  # runs on the pool's threads; list.append is atomic
        values_solved.append(band)
        return original_values(band)

    def spy_vectors(band, values, count):  # runs in a block's job on the pool
        vectors_solved.append((band, count))
        return original_vectors(band, values, count)

    monkeypatch.setattr(diag, "assemble_hamiltonian", spy_assemble)
    monkeypatch.setattr(_lapack, "band_values", spy_values)
    monkeypatch.setattr(diag, "_band_eigenvectors", spy_vectors)
    report = converged_levels(DEFAULT_PARAMS)
    monkeypatch.undo()

    assert len(report.history) + 1 == 5
    assert len(assembled) == 20
    # Values-only solves: each assembled band once, at the kernel.
    assert len(values_solved) == 20
    assert {id(band) for band in values_solved} == {id(h) for _, h in assembled}
    # Vectors: once per accepted block that holds a ranked level, for its ranked count.
    solved = [id(band) for band, _ in vectors_solved]
    assert len(solved) == len(set(solved)) <= 4
    assert set(solved) <= {id(h) for _, h in assembled[-4:]}
    assert sum(count for _, count in vectors_solved) == 100

    full = [(*_eigenpairs(h, h.shape[1]), block) for block, h in assembled[-4:]]
    relabelled = _assign_global(full, 100)
    assert [lvl.assigned for lvl in report.levels] == [lvl.assigned for lvl in relabelled]
    assert [lvl.ambiguous for lvl in report.levels] == [lvl.ambiguous for lvl in relabelled]
    for got, want in zip(report.levels, relabelled):
        assert got.energy == pytest.approx(want.energy, rel=1e-13)
        assert got.overlap_weight == pytest.approx(want.overlap_weight, abs=1e-10)


@pytest.mark.parametrize(
    "params, n_max",
    [
        (DEFAULT_PARAMS, 34),
        (ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1), 24),
        (ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=1.0), 24),
        (ModelParams(omega1=1.0, omega2=0.5, g=0.0, hbar=1.0), 24),
        (ModelParams(omega1=1.0, omega2=2.0, g=0.0, hbar=1.0), 24),
    ],
    ids=["default-34", "hbar0.1", "sqrt3", "ties-0.5", "ties-2"],
)
def test_per_block_assignment_is_the_global_greedy(params, n_max):
    spectra = [
        (*_eigenpairs(band, band.shape[1]), block)
        for block in split_parity_blocks(build_basis(n_max))
        for band in [assemble_hamiltonian(block, params)]
    ]
    merged = np.concatenate([w for w, _, _ in spectra])
    block_of = np.repeat(np.arange(4), [len(w) for w, _, _ in spectra])
    order = np.argsort(merged, kind="stable")
    # At g = 0 some rank-k cuts fall inside a run of equal energies from different blocks.
    cut_in_tie = [
        k for k in range(1, 41)
        if merged[order[k - 1]] == merged[order[k]] and block_of[order[k - 1]] != block_of[order[k]]
    ]
    assert bool(cut_in_tie) == (params.g == 0.0)
    for k in range(1, 41):
        assert _assign_per_block(spectra, k) == _assign_global(spectra, k)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("omega2", [0.5, 2.0])
def test_block_with_no_ranked_level_is_neither_solved_nor_labelled(monkeypatch, omega2, k):
    # At g = 0 the k-th level ties with the lowest level of another block, which the
    # stable ranking leaves out: that block has eigenvalues up to the k-th but no rank.
    params = ModelParams(omega1=1.0, omega2=omega2, g=0.0, hbar=1.0)
    original_vectors, original_claim = diag._band_eigenvectors, diag._claim
    solved, labelled = [], []

    def spy_vectors(band, values, count):  # runs in a block's job on the pool
        solved.append(count)
        return original_vectors(band, values, count)

    def spy_claim(vectors):
        claims = original_claim(vectors)
        labelled.append(claims)
        return claims

    monkeypatch.setattr(diag, "_band_eigenvectors", spy_vectors)
    monkeypatch.setattr(diag, "_claim", spy_claim)
    report = converged_levels(params, k=k)
    monkeypatch.undo()

    with ThreadPoolExecutor() as pool:
        spectra = _block_spectra(params, report.final_n_max, pool)
    kth = report.levels[-1].energy
    reaching = sum(bool(np.any(w <= kth)) for w, _, _ in spectra)
    ranked = len({(lvl.assigned.n1 % 2, lvl.assigned.n2 % 2) for lvl in report.levels})
    assert ranked < reaching
    assert len(solved) == len(labelled) == ranked
    assert all(labelled)
    full = [(w, diag._band_eigenvectors(h, w, len(w)), block) for w, h, block in spectra]
    assert report.levels == _assign_global(full, k)


@pytest.mark.parametrize("labelled", [50, 7])
def test_block_jobs_solve_vectors_for_their_ranked_count(monkeypatch, labelled):
    # At g = 0 with omega2 = 0.5 levels of different blocks tie exactly, so more of a
    # block's values can reach the labelled energy than the stable ranking gives it.
    # Each job solves vectors for its ranked count alone, and the labels equal those
    # of a value cut that solves every value up to the labelled energy.
    params = ModelParams(omega1=1.0, omega2=0.5, g=0.0, hbar=1.0)
    original_vectors = diag._band_eigenvectors
    solved = []

    def spy_vectors(band, values, count):  # runs in a block's job on the pool
        solved.append((values, count))  # list.append is atomic
        return original_vectors(band, values, count)

    monkeypatch.setattr(diag, "_band_eigenvectors", spy_vectors)
    report = converged_levels(params, k=100, labelled=labelled)
    monkeypatch.undo()

    with ThreadPoolExecutor() as pool:
        spectra = _block_spectra(params, report.final_n_max, pool)
    ranked = {}  # a label's parities are its block's (modes1.start, modes2.start)
    for lvl in report.levels:
        parity = (lvl.assigned.n1 % 2, lvl.assigned.n2 % 2)
        ranked[parity] = ranked.get(parity, 0) + 1
    assert len(solved) == len(ranked)
    for values, count in solved:
        (block,) = [block for w, _, block in spectra if np.array_equal(w, values)]
        assert count == ranked[(block.modes1.start, block.modes2.start)]

    kth = report.energies[labelled - 1]
    cut = [int(np.searchsorted(w, kth, side="right")) for w, _, _ in spectra]
    assert sum(count for _, count in solved) == labelled < sum(cut)
    lowest = [
        (w[:count], original_vectors(h, w, count), block)
        for (w, h, block), count in zip(spectra, cut)
    ]
    assert report.levels == _assign_global(lowest, labelled)


_SQRT3_HBAR01 = ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1)


def _bits(energies):
    return [float(e).hex() for e in energies]


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, _SQRT3_HBAR01], ids=["default", "sqrt3"])
def test_labelled_defaults_to_all_k_levels(params):
    report = converged_levels(params, k=100)
    assert converged_levels(params, k=100, labelled=100) == report
    assert [lvl.rank for lvl in report.levels] == list(range(1, 101))
    assert _bits(report.energies) == _bits(lvl.energy for lvl in report.levels)


@pytest.mark.parametrize(
    "params, m",
    [(DEFAULT_PARAMS, 1), (DEFAULT_PARAMS, 20), (DEFAULT_PARAMS, 40), (_SQRT3_HBAR01, 37)],
    ids=["default-1", "default-20", "default-40", "sqrt3-37"],
)
def test_labelled_levels_are_one_claim_loop_over_them_alone(monkeypatch, params, m):
    original_vectors = diag._band_eigenvectors
    solved = []

    def spy_vectors(band, values, count):  # runs in a block's job on the pool
        solved.append(count)
        return original_vectors(band, values, count)

    monkeypatch.setattr(diag, "_band_eigenvectors", spy_vectors)
    report = converged_levels(params, k=100, labelled=m)
    monkeypatch.undo()
    full = converged_levels(params, k=100)

    assert report.final_n_max == full.final_n_max and report.history == full.history
    assert _bits(report.energies) == _bits(full.energies)
    assert [lvl.rank for lvl in report.levels] == list(range(1, m + 1))
    assert _bits(lvl.energy for lvl in report.levels) == _bits(full.energies[:m])
    # Vectors are solved for the labelled levels only (no degenerate run here).
    assert sum(solved) == m
    # The labels are the global claim loop's over the m lowest levels, blind to the rest:
    # at the defaults, the loop over all 100 pushes rank 39 onto (2,5); over 40 it keeps (8,1).
    with ThreadPoolExecutor() as pool:
        spectra = _block_spectra(params, report.final_n_max, pool)
    kth = report.energies[m - 1]
    lowest = [
        (w[:count], diag._band_eigenvectors(h, w, count), block)
        for w, h, block in spectra
        for count in [int(np.searchsorted(w, kth, side="right"))]
    ]
    assert report.levels == _assign_global(lowest, m)


@pytest.mark.parametrize("labelled", [20, None], ids=["labelled20", "all"])
def test_levels_are_built_by_assign_quantum_numbers_on_the_calling_thread(monkeypatch, labelled):
    # The pool jobs return claims; the calling thread turns each labelled block's
    # claims into levels through the public builder, which a tracer may wrap.
    original, calls = diag.assign_quantum_numbers, []

    def spy_assign(claims, values, block, ranks):
        levels = original(claims, values, block, ranks)
        calls.append((threading.current_thread(), block, levels))
        return levels

    monkeypatch.setattr(diag, "assign_quantum_numbers", spy_assign)
    report = converged_levels(DEFAULT_PARAMS, k=100, labelled=labelled)
    monkeypatch.undo()

    holding = {(lvl.assigned.n1 % 2, lvl.assigned.n2 % 2) for lvl in report.levels}
    blocks = [(block.modes1.start, block.modes2.start) for _, block, _ in calls]
    assert sorted(blocks) == sorted(holding)  # once per block that holds a labelled level
    assert all(thread is threading.main_thread() for thread, _, _ in calls)
    built = [level for _, _, levels in calls for level in levels]
    assert tuple(sorted(built, key=lambda lvl: lvl.rank)) == report.levels


@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_PARAMS,
        ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1),
        ModelParams(omega1=1.0, omega2=SQRT2, g=0.3, hbar=1.0),
        ModelParams(omega1=1.0, omega2=0.3, g=0.2, hbar=1.0),
        _SQRT3_HBAR01,
    ],
    ids=["default", "hbar0.1", "g0.3", "omega2_0.3", "sqrt3"],
)
def test_labels_above_one_half_hold_their_argmax_in_every_claim_loop(params):
    # At most one level holds more than 1/2 of a state, so such a level takes its
    # argmax whichever levels are labelled with it; any label that moves is flagged.
    full = converged_levels(params, k=100)
    with ThreadPoolExecutor() as pool:
        spectra = _block_spectra(params, full.final_n_max, pool)
    merged = np.concatenate([w for w, _, _ in spectra])
    block_of = np.repeat(range(len(spectra)), [len(w) for w, _, _ in spectra])
    block_of = block_of[np.argsort(merged, kind="stable")[:100]]
    argmax = {}  # rank -> the basis state of its eigenvector's largest component
    for i, (w, h, block) in enumerate(spectra):
        ranks = np.flatnonzero(block_of == i) + 1
        if len(ranks):
            vectors = diag._band_eigenvectors(h, w, len(ranks))
            for j, rank in enumerate(ranks.tolist()):
                state = _states(block)[int(np.argmax(vectors[:, j] ** 2))]
                argmax[rank] = QuantumNumbers(*state)
    for m in (1, 5, 20, 39, 40, 72, 99, 100):
        for level, whole in zip(converged_levels(params, k=100, labelled=m).levels, full.levels):
            assert level.ambiguous == (level.overlap_weight <= 0.5)
            if level.overlap_weight > 0.5 or whole.overlap_weight > 0.5:
                assert level == whole
                assert level.assigned == argmax[level.rank]
            elif level.assigned != whole.assigned:
                assert level.ambiguous and whole.ambiguous


def test_unflagged_labels_hold_in_every_claim_loop_where_gaps_are_below_rounding():
    # The promise of test_labels_above_one_half_hold_their_argmax_in_every_claim_loop,
    # where omega2 puts max|E| so high that a block's (n1, 0) levels, about 2 apart,
    # lie closer than eps max|E|.  At omega2 1e15 both runs accept n_max 24, yet labelled=3
    # gives rank 3 (4,0) at weight 0.611 and the full run (2,0) at 0.857.
    for omega2 in (1e15, 1e16, 1e300):
        params = ModelParams(omega1=1.0, omega2=omega2, g=0.1, hbar=1.0)
        full = converged_levels(params, k=20)
        for m in (1, 2, 3, 5, 10, 19):
            part = converged_levels(params, k=20, labelled=m)
            assert part.final_n_max == full.final_n_max
            for level, whole in zip(part.levels, full.levels):
                if not (level.ambiguous or whole.ambiguous):
                    assert level.assigned == whole.assigned, (omega2, m, level.rank)


@pytest.mark.parametrize("labelled", [0, 101])
def test_labelled_outside_one_to_k_is_rejected(labelled):
    with pytest.raises(ValueError, match=f"labelled must be in 1..k=100, got {labelled}$"):
        converged_levels(DEFAULT_PARAMS, k=100, labelled=labelled)


def _g0_vectors(omega2):
    """The lowest 40 vectors of an uncoupled block: unit vectors."""
    params = ModelParams(omega1=1.0, omega2=omega2, g=0.0, hbar=1.0)
    band = assemble_hamiltonian(split_parity_blocks(build_basis(14))[0], params)
    return _eigenpairs(band, 40)[1]


def _orthonormal(n, m):
    return np.linalg.qr(np.random.default_rng(n).standard_normal((n, m)))[0]


def _tied_runner_up(n):
    """Two levels over n states, both of argmax state 0; the second's runner-up ties on 1 and 2."""
    vectors = np.zeros((n, 2))
    vectors[:, 1] = np.linspace(0.01, 0.02, n)  # distinct, below the tie
    vectors[0] = [1.0, 0.8]
    vectors[[1, 2], 1] = 0.4
    return vectors


#: Vector sets, one vector per column, that exercise each branch of diag._claim.
_CLAIM_CASES = {
    # Exact ties for a row's maximum: two-way, three-way, and a Hadamard set
    # whose every squared component is 0.25.
    "ties": lambda: np.array([[0.6, 0.6, 0.1], [-0.6, 0.6, 0.2], [0.2, 0.6, 0.9], [0.1, 0.1, 0.3]]),
    "hadamard": lambda: scipy.linalg.hadamard(4) / 2.0,
    # Each column's largest component is on state 0, which the first claims.
    "claimed": lambda: np.array([[0.9, 0.8, 0.7], [0.3, 0.5, 0.1], [0.1, 0.2, 0.6], [0.3, 0, 0.3]]),
    # g=0 unit vectors, with degenerate runs (omega2 = 0.5) and without.
    "g0_degenerate": lambda: _g0_vectors(0.5),
    "g0": lambda: _g0_vectors(SQRT2),
    "orthonormal_3": lambda: _orthonormal(3, 3),
    "orthonormal_10": lambda: _orthonormal(10, 10),
    "orthonormal_50x20": lambda: _orthonormal(50, 20),
    "orthonormal_324x100": lambda: _orthonormal(324, 100),
    # An argmax already claimed, then a two-way tie.  The lower state must win at
    # both lengths: numpy 2.4's reversed argsort gave state 2 at 100 states and 1 at 1225.
    "claimed_tie_100": lambda: _tied_runner_up(100),
    "claimed_tie_1225": lambda: _tied_runner_up(1225),
    "reference_block": lambda: _eigenpairs(
        assemble_hamiltonian(split_parity_blocks(build_basis(34))[0], PARAMS), 40
    )[1],
}


@pytest.mark.parametrize("case", _CLAIM_CASES)
def test_claim_is_the_argsort_walk(case):
    # _claim takes an unclaimed argmax without a sort; every claim must still be
    # the one that walking each level's full stable argsort makes, so the ties
    # of "ties" and "hadamard" go to the lower index.
    vectors = _CLAIM_CASES[case]()
    for count in sorted({vectors.shape[1], (vectors.shape[1] + 1) // 2}):
        weights = list((vectors[:, :count] ** 2).T)
        states = [range(len(vectors))] * count
        assert diag._claim(vectors[:, :count]) == _argsort_claims(weights, states)


def test_assignment_leaves_its_input_unchanged():
    spectra = [
        (*_eigenpairs(assemble_hamiltonian(block, PARAMS), 10), block)
        for block in split_parity_blocks(build_basis(14))
    ]
    copies = [(w.copy(), v.copy()) for w, v, _ in spectra]
    ranks = np.arange(1, 11)
    for w, v, block in spectra:
        assign_quantum_numbers(diag._claim(v[:, : len(ranks)]), w, block, ranks)
    for (w, v, _), (w0, v0) in zip(spectra, copies):
        assert np.array_equal(w, w0) and np.array_equal(v, v0)


@pytest.mark.parametrize("workers", [1, 2])
def test_at_most_workers_blocks_vectors_are_alive(monkeypatch, workers):
    # A block's vectors live in its job: at most one set per worker, and none
    # outlives the job that solved it.
    original_vectors, original_job = diag._band_eigenvectors, diag._label_block
    returned, local = [], threading.local()  # weak references to each vector array

    def spy_vectors(band, values, count):
        assert sum(ref() is not None for ref in returned) < workers
        vectors = original_vectors(band, values, count)
        local.ref = weakref.ref(vectors)
        returned.append(local.ref)  # list.append is atomic
        return vectors

    def spy_job(job):
        claims = original_job(job)
        assert local.ref() is None
        return claims

    monkeypatch.setattr(diag, "_WORKERS", workers)
    monkeypatch.setattr(diag, "_band_eigenvectors", spy_vectors)
    monkeypatch.setattr(diag, "_label_block", spy_job)
    report = converged_levels(DEFAULT_PARAMS)
    monkeypatch.undo()

    assert len(returned) == 4
    assert [lvl.rank for lvl in report.levels] == list(range(1, 101))


def test_flagged_by_the_assigned_weight():
    # Greedy over all 100 levels pushes ranks 39 and 71 off their best states onto (2,5) and (4,6).
    levels = converged_levels(DEFAULT_PARAMS, k=100).levels
    assert len(levels) == 100
    for rank, label in ((39, (2, 5)), (71, (4, 6))):
        level = levels[rank - 1]
        assert (level.assigned.n1, level.assigned.n2) == label
        assert level.overlap_weight <= 0.5 and level.ambiguous


def test_ambiguous_is_derived_from_the_weight():
    # A level cannot contradict its own weight: the flag is not a field.  Two levels
    # can each hold exactly half of a state, so 1/2 itself is flagged.
    def level(weight, **extra):
        return SpectrumLevel(1, 1.0, QuantumNumbers(0, 0), weight, **extra)

    assert level(0.5).ambiguous
    assert not level(math.nextafter(0.5, 1.0)).ambiguous
    with pytest.raises(TypeError):
        level(1.0, ambiguous=True)


def test_converged_levels_zero_coupling():
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    report = converged_levels(params, k=20, digits=8)
    analytic = sorted(
        e0_quantum(QuantumNumbers(n1, n2), params)
        for n1 in range(30)
        for n2 in range(30)
    )[:20]
    np.testing.assert_allclose(
        [lvl.energy for lvl in report.levels], analytic, atol=1e-12
    )
    for lvl in report.levels:
        assert lvl.overlap_weight == pytest.approx(1.0, abs=1e-12)
        assert not lvl.ambiguous


def test_converged_levels_budget(monkeypatch):
    monkeypatch.setattr(diag, "SCHEDULE", range(14, 20, 5))
    with pytest.raises(BudgetExceeded, match="not converged to 8 digits by n_max=19$"):
        converged_levels(PARAMS, k=100, digits=8)


def test_empty_schedule_holds_no_level(monkeypatch):
    monkeypatch.setattr(diag, "SCHEDULE", range(0))
    with pytest.raises(BudgetExceeded, match="at most 0 can converge: "):
        converged_levels(PARAMS, k=1)


def test_assignment_reference_labels(default_table):
    # The table labels its 20 printed rows and keeps the 100 energies that D is taken over.
    assert len(default_table.report.levels) == 20
    assert len(default_table.report.energies) == 100
    labels = [(lvl.assigned.n1, lvl.assigned.n2) for lvl in default_table.report.levels]
    assert labels[:3] == [(0, 0), (1, 0), (0, 1)]
    assert len(set(labels)) == len(labels)


def test_first_order_shift_from_weak_coupling():
    g = 1e-4
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=g, hbar=1.0)
    report = converged_levels(params, k=10, digits=8)
    for lvl in report.levels[:5]:
        n = lvl.assigned
        slope = (lvl.energy - e0_quantum(n, params)) / g
        expected = (n.n1 + 0.5) * (n.n2 + 0.5)
        assert slope == pytest.approx(expected, rel=1e-3)


def test_matrix_dump_round_trips(tmp_path):
    basis = build_basis(2)
    h = assemble_hamiltonian(basis, PARAMS)
    path = tmp_path / "matrix.txt"
    dump_matrix_triplets(h, str(path))
    n = len(basis.modes1) * len(basis.modes2)
    rebuilt = np.zeros((n, n))
    for line in path.read_text().splitlines():
        i, j, v = line.split()
        rebuilt[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(rebuilt, _dense(h))


def test_matrix_dump_matches_entrywise_writer(tmp_path):
    uncoupled = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    bands = {
        "n_max 6": assemble_hamiltonian(build_basis(6), PARAMS),
        "n_max 14": assemble_hamiltonian(build_basis(14), PARAMS),
        "n_max 34": assemble_hamiltonian(build_basis(34), PARAMS),  # 10,201 entries
        "g=0": assemble_hamiltonian(build_basis(6), uncoupled),  # diagonal only
        "n_max 0": assemble_hamiltonian(build_basis(0), PARAMS),  # b = 0, one entry
        "all zero": np.zeros((3, 5)),  # an empty file
    }
    for h in (bands["n_max 6"], bands["n_max 14"]):
        h[1, 0] = -0.0  # H[1, 0] and H[0, 1]
    for name, h in bands.items():
        dump_matrix_triplets(h, str(tmp_path / "fast.txt"))
        _dump_loop(_dense(h), str(tmp_path / "loop.txt"))
        written = (tmp_path / "fast.txt").read_bytes()
        assert written == (tmp_path / "loop.txt").read_bytes(), name
    # The last band written above: no entry, so no line.
    assert written == b""
    assert bands["n_max 0"].shape == (1, 1)
    assert np.count_nonzero(_dense(bands["n_max 34"])) > 2 * diag._DUMP_CHUNK  # three chunks
    assert not bands["g=0"][1:].any()


def test_matrix_dump_memory_is_bounded(tmp_path):
    band = assemble_hamiltonian(build_basis(69), PARAMS)  # 4900 rows, 42,436 entries
    tracemalloc.start()
    try:
        dump_matrix_triplets(band, str(tmp_path / "matrix.txt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
