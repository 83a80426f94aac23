"""Walkthrough: the semiclassical approximation improves as hbar shrinks.

Torus quantization is the leading term of an expansion in hbar.  Keeping
the couplings fixed and dropping hbar from 1 to 0.1, the semiclassical
error (in units of the mean spacing of each spectrum) falls by two to
three orders of magnitude for the low levels.  Note that the energy
ordering of the labels changes with hbar, so rows are paired by rank.
"""

from quartosc import DEFAULT_PARAMS, hbar_scan

rows = hbar_scan(DEFAULT_PARAMS, hbars=[1.0, 0.1], n_rows=20)
by_hbar = {}
for hbar, rank, row in rows:
    by_hbar.setdefault(hbar, []).append((rank, row))

print(f"{'rank':>4} {'label@1':>8} {'err/D @ hbar=1':>15} "
      f"{'label@0.1':>10} {'err/D @ hbar=0.1':>17} {'gain':>9}")
for (rank, big), (_, small) in zip(by_hbar[1.0], by_hbar[0.1]):
    gain = big.err_sc / small.err_sc
    print(f"{rank:4d} ({big.n.n1},{big.n.n2})".ljust(14)
          + f" {big.err_sc:15.4e}"
          + f" ({small.n.n1},{small.n.n2})".rjust(11)
          + f" {small.err_sc:17.4e} {gain:9.1f}")
