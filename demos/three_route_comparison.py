"""Walkthrough: the same spectrum by three routes.

Two harmonic oscillators (omega1 = 1, omega2 = sqrt(2)) coupled by
g*q1^2*q2^2 with g = 0.1.  We compute the lowest 20 levels by

  1. torus quantization of the second-order classical normal form,
  2. closed-form quantum perturbation theory through g^2,
  3. converged truncated-basis diagonalization ("exact"),

and quote the perturbative errors in units of the mean spacing D of the
lowest 100 exact levels.
"""

from quartosc import DEFAULT_PARAMS, comparison_table, decompose_e2
from quartosc.report import SPACING_COUNT

table = comparison_table(DEFAULT_PARAMS, n_rows=20)

print(f"basis converged at n_max = {table.report.final_n_max} "
      f"(dimension {(table.report.final_n_max + 1) ** 2})")
print(f"mean level spacing D = {table.spacing:.6f} "
      f"over the lowest {SPACING_COUNT} levels\n")

print(f"{'(n1,n2)':>8} {'exact':>10} {'semiclass':>10} {'quantum PT':>10} "
      f"{'|err_sc|/D':>11} {'|err_qp|/D':>11}")
for row in table.rows:
    print(f"({row.n.n1},{row.n.n2})".rjust(8)
          + f" {row.e_exact:10.6f} {row.e_sc:10.6f} {row.e_qp:10.6f}"
          + f" {row.err_sc:11.3e} {row.err_qp:11.3e}")

# The two perturbative routes differ only by the hbar^2 quantum
# correction at second order: E2 = H2(torus actions) + hbar^2 * Q2.
# Because Q2 changes sign across the spectrum, the quantum-corrected
# levels are NOT uniformly closer to the exact ones.
print("\nsecond-order decomposition for the first three labels:")
for row in table.rows[:3]:
    d = decompose_e2(row.n, DEFAULT_PARAMS)
    print(f"  ({row.n.n1},{row.n.n2}): classical part {d.e_semiclassical_2:+.7f}, "
          f"quantum correction {d.q2:+.7f}, total {d.e2_total:+.7f}")
