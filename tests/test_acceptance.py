"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one CRITERION n: PASS line on success; a failure shows
up as an ordinary pytest failure.  Reference values are frozen from the
published tabulation of this configuration; cells of that tabulation
that disagree with their own cross-checks (back-solved error quotients,
recomputation at the published convergence target) are asserted against
the recomputed values instead, and the strict as-printed comparisons
are kept as xfail tests below so the discrepancies stay visible.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quartosc import _lapack
from quartosc.classical import ActionPair, h1_actions, h2_actions, semiclassical_series
from quartosc.diag import (
    _band_eigenvectors,
    _block_spectra,
    assemble_hamiltonian,
    build_basis,
    converged_levels,
    split_parity_blocks,
)
from quartosc.model import ModelParams, QuantumNumbers
from quartosc.quantum import decompose_e2, e0_quantum, e2_quantum_closed, qp_series
from quartosc.report import comparison_table

from oracles import (
    AnglePair,
    angle_average,
    coupling_v,
    e2_quantum_sum,
    homological_residual,
    s1_angle_gradient,
)

SQRT2 = math.sqrt(2.0)
PARAMS = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)

# Reference comparison for omega1=1, omega2=sqrt(2), g=0.1, hbar=1:
# label, exact level, semiclassical level, perturbative level.
REF_LABELS = [
    (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
    (4, 0), (0, 3), (3, 1), (5, 0), (2, 2), (1, 3), (0, 4), (4, 1), (6, 0),
    (3, 2), (2, 3),
]
REF_EXACT = [
    1.230722, 2.275974, 2.689415, 3.316524, 3.820434, 4.146646, 4.354307,
    4.937708, 5.359848, 5.390110, 5.603778, 6.047742, 6.424398, 6.546966,
    6.897049, 7.062932, 7.152476, 7.457506, 7.723943, 8.144146,
]
REF_SC = [
    1.230990, 2.273214, 2.690856, 3.308447, 3.814018, 4.148302, 4.336609,
    4.915967, 5.347322, 5.357700, 5.603248, 5.996702, 6.371719, 6.510986,
    6.873125, 7.055694, 7.056224, 7.378668, 7.639295, 8.093505,
]
REF_QP = [
    1.230522, 2.274701, 2.687816, 3.311808, 3.812833, 4.142610, 4.341846,
    4.916677, 5.345305, 5.364811, 5.594904, 5.999287, 6.380706, 6.509044,
    6.866657, 7.044699, 7.060684, 7.389530, 7.639228, 8.088912,
]
# Error quotients |E_exact - E_route| / D, same row order.
REF_ERR_SC = [
    1.0611359e-3, 1.5578579e-2, 8.1338054e-3, 4.5591835e-2, 3.6215890e-2,
    9.3476856e-3, 9.9898852e-2, 0.1227176, 7.0703819e-2, 0.1829406,
    2.9902905e-2, 0.2880960, 0.2973495, 0.2030921, 0.1350395, 4.0854741e-2,
    0.5432989, 0.4450069, 0.4778005, 0.2858459,
]
REF_ERR_QP = [
    1.1284242e-3, 7.1859419e-3, 9.0260478e-3, 2.6613854e-2, 4.2791300e-2,
    2.2781115e-2, 7.0337765e-2, 0.1187100, 9.2249520e-2, 0.1428019,
    5.0089385e-2, 0.2735053, 0.2466222, 0.2140520, 0.1715501, 0.1029161,
    0.5181223, 0.3836938, 0.4781800, 0.3117708,
]
# Semiclassical error quotients at hbar = 0.1, ordered by energy rank of
# the hbar = 0.1 spectrum (which swaps some neighbouring labels relative
# to the hbar = 1 ordering above).
REF_ERR_SC_SMALL_HBAR = [
    2.4773894e-5, 1.0003044e-4, 1.8136360e-4, 2.5054353e-4, 5.6091835e-6,
    3.1972348e-4, 4.3938606e-4, 2.3371598e-4, 9.3486393e-5, 7.0301769e-4,
    4.4125578e-4, 6.3570746e-4, 2.3932516e-4, 1.0582660e-3, 1.1966258e-4,
    1.2452388e-3, 5.2726327e-4, 8.1146188e-4, 1.5294374e-3, 3.0663537e-4,
]

# Recomputed replacements for reference cells that fail their own
# cross-checks (see the strict xfail tests at the bottom):
#   - sc (0,0): direct evaluation of the closed forms,
#   - qp (1,1), (1,2): digit typos, back-confirmed by REF_ERR_QP,
#   - qp (2,0), (0,3): last digit truncated instead of rounded.
DERIVED_SC_GROUND = 1.2309104
DERIVED_QP = {(2, 0): 3.3118089, (1, 1): 3.8128530, (1, 2): 5.3435050, (0, 3): 5.5949045}
# hbar = 0.1 quotients at ranks 1 and 5 ((0,0) and (1,1)): the reference
# cells differ from the converged recomputation by 3-5e-8 in absolute
# energy, at the level of the reference run's own convergence floor.
DERIVED_ERR_SMALL_HBAR = {1: 2.2867e-5, 5: 8.6145e-6}


def _qn(label):
    return QuantumNumbers(*label)


def test_criterion_1_perturbative_levels():
    for label, printed in zip(REF_LABELS, REF_QP):
        value = qp_series(_qn(label), PARAMS).total(PARAMS.g)
        if label in DERIVED_QP:
            assert value == pytest.approx(DERIVED_QP[label], abs=5e-7), label
            if label in ((2, 0), (0, 3)):
                # last printed digit truncated instead of rounded
                assert value == pytest.approx(printed, abs=1.01e-6), label
        else:
            assert value == pytest.approx(printed, abs=5e-7), label
    print("CRITERION 1: PASS (perturbative levels, 20 rows, +-5e-7; "
          "4 defective reference cells pinned to recomputed values)")


def test_criterion_2_semiclassical_levels():
    for label, printed in zip(REF_LABELS, REF_SC):
        value = semiclassical_series(_qn(label), PARAMS).total(PARAMS.g)
        if label == (0, 0):
            assert value == pytest.approx(DERIVED_SC_GROUND, abs=5e-7)
        else:
            assert value == pytest.approx(printed, abs=5e-7), label
    print("CRITERION 2: PASS (semiclassical levels, 19 rows +-5e-7, "
          "ground row pinned to derived 1.2309104)")


def test_criterion_3_exact_levels(default_table):
    report = default_table.report
    assert report.final_n_max == 34  # matrix dimension 1225
    assert len(report.levels) == 20  # the printed rows are labelled
    assert len(report.energies) == 100  # D is taken over the lowest 100
    for row, printed, label in zip(default_table.rows, REF_EXACT, REF_LABELS):
        assert (row.n.n1, row.n.n2) == label
        assert row.e_exact == pytest.approx(printed, abs=5e-6), label
    print("CRITERION 3: PASS (exact levels, 20 rows, +-5e-6, converged at "
          "dimension 1225)")


def test_criterion_4_error_quotients(default_table):
    d = default_table.spacing
    for i, row in enumerate(default_table.rows):
        label = (row.n.n1, row.n.n2)
        if label == (0, 3):
            # this reference cell is printed a factor 10 too large in the
            # error table; the hbar-scan table carries the consistent value
            assert row.err_sc == pytest.approx(REF_ERR_SC[i] / 10.0, rel=0.01)
        else:
            assert row.err_sc == pytest.approx(REF_ERR_SC[i], rel=0.01), label
        assert row.err_qp == pytest.approx(REF_ERR_QP[i], rel=0.01), label
        # self-consistency of our own columns
        assert row.err_sc == pytest.approx(abs(row.e_exact - row.e_sc) / d, rel=1e-10)
        assert row.err_qp == pytest.approx(abs(row.e_exact - row.e_qp) / d, rel=1e-10)
    print("CRITERION 4: PASS (40 error quotients within 1%, quotients "
          "self-consistent to 1e-10)")


def _random_nonresonant_params(count, seed=20240817):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        w1, w2 = rng.uniform(0.5, 2.5, 2)
        if abs(w1 - w2) >= 0.05:
            out.append(ModelParams(omega1=w1, omega2=w2, g=0.1, hbar=1.0))
    return out


def test_criterion_5_decomposition_identity():
    for hbar in (1.0, 0.1):
        params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=hbar)
        for n1 in range(51):
            for n2 in range(51):
                d = decompose_e2(QuantumNumbers(n1, n2), params)
                lhs = d.e_semiclassical_2 + hbar * hbar * d.q2
                assert lhs == pytest.approx(d.e2_total, rel=1e-12), (n1, n2, hbar)
    for params in _random_nonresonant_params(100):
        for n1 in range(0, 51, 5):
            for n2 in range(0, 51, 5):
                d = decompose_e2(QuantumNumbers(n1, n2), params)
                lhs = d.e_semiclassical_2 + params.hbar**2 * d.q2
                assert lhs == pytest.approx(d.e2_total, rel=1e-12)
    print("CRITERION 5: PASS (second-order decomposition identity, 1e-12 "
          "relative, full grid n<=50 x {1, 0.1} hbar + 100 random frequency pairs)")


def test_criterion_6_oracle_equivalence():
    for hbar in (1.0, 0.1):
        params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=hbar)
        for n1 in range(51):
            for n2 in range(51):
                n = QuantumNumbers(n1, n2)
                assert e2_quantum_sum(n, params) == pytest.approx(
                    e2_quantum_closed(n, params), rel=1e-12
                ), (n1, n2, hbar)
    for params in _random_nonresonant_params(100):
        for n1 in range(0, 51, 5):
            for n2 in range(0, 51, 5):
                n = QuantumNumbers(n1, n2)
                assert e2_quantum_sum(n, params) == pytest.approx(
                    e2_quantum_closed(n, params), rel=1e-12
                )
    print("CRITERION 6: PASS (closed-form second order equals brute-force "
          "sum, 1e-12 relative, same grid as criterion 5)")


def test_criterion_7_classical_oracles():
    for i1, i2 in [(0.5, 0.5), (1.5, 0.5), (2.3, 0.7), (3.1, 1.9)]:
        v_avg = angle_average(
            lambda t1, t2: 4.0 * i1 * i2 * np.cos(t1) ** 2 * np.cos(t2) ** 2,
            quadrature_n=64,
        )
        assert h1_actions(ActionPair(i1, i2)) == pytest.approx(v_avg, abs=1e-8)

        def integrand(t1, t2, i1=i1, i2=i2):
            grad = np.vectorize(
                lambda a, b: s1_angle_gradient(
                    ActionPair(i1, i2), AnglePair(a, b), PARAMS
                )
            )
            d1, d2 = grad(t1, t2)
            csq = np.cos(t1) ** 2 * np.cos(t2) ** 2
            return 4.0 * i2 * csq * d1 + 4.0 * i1 * csq * d2

        assert h2_actions(ActionPair(i1, i2), PARAMS) == pytest.approx(
            angle_average(integrand, quadrature_n=64), abs=1e-8
        )

    rng = np.random.default_rng(99)
    for _ in range(10_000):
        actions = ActionPair(*rng.uniform(0.0, 3.0, 2))
        angles = AnglePair(*rng.uniform(0.0, 2.0 * math.pi, 2))
        v = coupling_v(actions, angles)
        assert abs(homological_residual(actions, angles, PARAMS)) < 1e-12 * (1.0 + abs(v))
    print("CRITERION 7: PASS (first/second-order terms match 64x64 angle "
          "quadrature to 1e-8; first-order residual < 1e-12*(1+|V|) at 1e4 points)")


def test_criterion_8_hbar_scan(default_table, small_hbar_table):
    # hbar = 0.1 column, rank-aligned
    for rank, (row, printed) in enumerate(
        zip(small_hbar_table.rows, REF_ERR_SC_SMALL_HBAR), start=1
    ):
        if rank in DERIVED_ERR_SMALL_HBAR:
            assert row.err_sc == pytest.approx(
                DERIVED_ERR_SMALL_HBAR[rank], rel=0.01
            ), rank
        else:
            assert row.err_sc == pytest.approx(printed, rel=0.05), rank
    # hbar = 1 column repeats the criterion-4 quotients (including the
    # factor-10 inconsistency at (0,3) between the two reference tables)
    for i, row in enumerate(default_table.rows):
        expected = REF_ERR_SC[i] / 10.0 if (row.n.n1, row.n.n2) == (0, 3) else REF_ERR_SC[i]
        assert row.err_sc == pytest.approx(expected, rel=0.01)
    print("CRITERION 8: PASS (hbar=0.1 errors, 18 ranks within 5%, ranks 1 "
          "and 5 pinned to recomputed values; hbar=1 column consistent)")


def test_criterion_9_property_suite(default_table):
    def merged_values(n_max):
        with ThreadPoolExecutor() as pool:
            spectra = _block_spectra(PARAMS, n_max, pool)
        return np.sort(np.concatenate([w for w, _, _ in spectra]))

    # Cauchy interlacing across the basis schedule
    prev = None
    for n_max in (14, 19, 24, 29, 34):
        values = merged_values(n_max)[:100]
        if prev is not None:
            assert np.all(values <= prev + 1e-12)
        prev = values

    # parity blocks reproduce the whole-matrix spectrum
    for n_max in (6, 10):
        full = _lapack.band_values(assemble_hamiltonian(build_basis(n_max), PARAMS))
        merged = merged_values(n_max)
        np.testing.assert_allclose(merged, full, atol=1e-12)

    # g = 0 gives the analytic harmonic spectrum
    free = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    report = converged_levels(free, k=50, digits=8)
    analytic = sorted(
        e0_quantum(n1, n2, free)
        for n1 in range(40)
        for n2 in range(40)
    )[:50]
    np.testing.assert_allclose(
        [lvl.energy for lvl in report.levels], analytic, atol=1e-12
    )

    # eigenvector orthonormality
    h = assemble_hamiltonian(build_basis(8), PARAMS)
    values = _lapack.band_values(h)
    v = _band_eigenvectors(h, values, len(values))
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-10

    # exchange symmetry of both perturbative pipelines
    swapped = ModelParams(omega1=SQRT2, omega2=1.0, g=0.1, hbar=1.0)
    for n1, n2 in [(0, 0), (1, 0), (4, 2), (7, 5)]:
        a = semiclassical_series(QuantumNumbers(n1, n2), PARAMS)
        b = semiclassical_series(QuantumNumbers(n2, n1), swapped)
        assert (a.e0, a.e1, a.e2) == pytest.approx((b.e0, b.e1, b.e2), rel=1e-13)
        a = qp_series(QuantumNumbers(n1, n2), PARAMS)
        b = qp_series(QuantumNumbers(n2, n1), swapped)
        assert (a.e0, a.e1, a.e2) == pytest.approx((b.e0, b.e1, b.e2), rel=1e-13)
    print("CRITERION 9: PASS (interlacing, parity-block equivalence, g=0 "
          "limit, orthonormality, exchange symmetry)")


def test_exact_minus_second_order_is_third_order_in_g():
    # The diagonalization against the closed second-order form, with no shared
    # kernel: E_exact - E_qp = O(g^3), so halving g divides it by about 8.
    residuals = []
    for g in (0.02, 0.01, 0.005):
        params = ModelParams(omega1=1.0, omega2=SQRT2, g=g, hbar=1.0)
        levels = converged_levels(params, k=10, digits=11).levels
        residuals.append([lvl.energy - qp_series(lvl.assigned, params).total(g) for lvl in levels])
    coarse, fine = np.array(residuals[:-1]), np.array(residuals[1:])
    assert np.all((7.0 < coarse / fine) & (coarse / fine < 9.0))


def test_exact_minus_second_order_is_third_order_in_hbar():
    # The paper's semiclassical limit: E_exact - E_qp = O(g^3 hbar^4) and the mean
    # spacing D = O(hbar), so at fixed g halving hbar divides err_qp_over_D by about 8.
    params = [ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=h) for h in (0.05, 0.025, 0.0125)]
    tables = [comparison_table(p, n_rows=10, digits=10) for p in params]
    assert len({tuple(row.n for row in table.rows) for table in tables}) == 1
    errors = np.array([[row.err_qp for row in table.rows] for table in tables])
    ratios = errors[:-1] / errors[1:]
    assert np.all((7.0 <= ratios) & (ratios <= 9.0))


@pytest.mark.parametrize(
    "params, k, digits",
    [
        (PARAMS, 100, 8),
        (PARAMS, 500, 10),
        (ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1), 100, 8),
        (ModelParams(omega1=1.0, omega2=SQRT2, g=0.3, hbar=1.0), 100, 8),
        (ModelParams(omega1=1.0, omega2=0.3, g=0.2, hbar=1.0), 100, 8),
    ],
    ids=["reference", "deep", "hbar0.1", "g0.3", "omega2_0.3_g0.2"],
)
def test_reported_digits_hold_against_the_largest_basis(params, k, digits):
    # The digit claim: each reported energy lies within its threshold of the same
    # rank's eigenvalue in the basis n_max = 80, one past the largest scheduled one (79).
    report = converged_levels(params, k=k, digits=digits)
    bands = [assemble_hamiltonian(b, params) for b in split_parity_blocks(build_basis(80))]
    truth = np.sort(np.concatenate([_lapack.band_values(band) for band in bands]))[:k]
    energies = np.array([lvl.energy for lvl in report.levels])
    threshold = 0.5 * 10.0 ** (-digits) * np.abs(energies)
    assert np.all(np.abs(energies - truth) < threshold)


def test_reported_digits_hold_at_tiny_hbar():
    # With g * hbar fixed the spectrum is hbar times the default one, so the
    # 8-digit claim at hbar=1e-8 is one on the default levels' relative digits.
    hbar = 1e-8
    tiny = converged_levels(ModelParams(omega1=1.0, omega2=SQRT2, g=1e7, hbar=hbar))
    assert tiny.final_n_max == 34
    energies = np.array([lvl.energy for lvl in tiny.levels]) / hbar
    truth = np.array([lvl.energy for lvl in converged_levels(PARAMS).levels])
    assert np.all(np.abs(energies - truth) < 1e-8 * truth)


# --- strict as-printed comparisons for the documented defective cells ---
# These are expected to fail: the cells disagree with the reference
# tabulation's own cross-checks.  Kept as strict xfails so the
# discrepancies stay visible instead of silently absorbed.


@pytest.mark.xfail(strict=True, reason="reference sc ground cell inconsistent "
                   "with direct evaluation of the closed forms (1.230990 vs 1.2309104)")
def test_reference_sc_ground_cell_as_printed():
    value = semiclassical_series(QuantumNumbers(0, 0), PARAMS).total(PARAMS.g)
    assert value == pytest.approx(1.230990, abs=5e-7)


@pytest.mark.xfail(strict=True, reason="four reference qp cells are truncated "
                   "or typoed; back-solving their own error quotients confirms "
                   "the recomputed values")
def test_reference_qp_cells_as_printed():
    for label, printed in zip(REF_LABELS, REF_QP):
        value = qp_series(_qn(label), PARAMS).total(PARAMS.g)
        assert value == pytest.approx(printed, abs=5e-7), label


@pytest.mark.xfail(strict=True, reason="reference error-table (0,3) sc cell is "
                   "a factor 10 larger than the same quantity in the hbar-scan table")
def test_reference_err_sc_cell_0_3_as_printed(default_table):
    row = next(r for r in default_table.rows if (r.n.n1, r.n.n2) == (0, 3))
    assert row.err_sc == pytest.approx(2.9902905e-2, rel=0.01)


@pytest.mark.xfail(strict=True, reason="hbar=0.1 reference cells at ranks 1 and 5 "
                   "differ from the converged recomputation by 3-5e-8 absolute energy, "
                   "at the reference run's own convergence floor")
def test_reference_small_hbar_cells_as_printed(small_hbar_table):
    for rank in (1, 5):
        row = small_hbar_table.rows[rank - 1]
        assert row.err_sc == pytest.approx(
            REF_ERR_SC_SMALL_HBAR[rank - 1], rel=0.05
        ), rank
