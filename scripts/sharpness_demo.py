#!/usr/bin/env python3
"""Print the two bundled sharpness fixtures across the p values that the
sharpness suite checks (suites._SHARP_P_GRID).

The column pair ([[1,0],[0,0]], [[0,0],[1,0]]) has tuple p-norm sqrt(2)
and hypo-p-norm 1 for every p, so the sqrt(d) gap between the two norms
is attained.  The diagonal pair (diag(1,0), diag(0,1)) has scaled tuple
p-norm 2^(-1/p) tr-root equal to 1 for every p, while its hypo-p-norm is
1 only for p >= 2; below that the supremum moves to the balanced
coefficient point and equals 2^(1/p - 1/2).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertrans.norms import schatten_hypo_norm, schatten_spherical_norm  # noqa: E402
from sphertrans.suites import (  # noqa: E402
    _SHARP_P_GRID,
    sharp_column_pair,
    sharp_diag_pair,
)


def main() -> None:
    for label, tup in (("column pair", sharp_column_pair()),
                       ("diagonal pair", sharp_diag_pair())):
        print(f"{label}: d={tup.d}, n={tup.n}")
        print(f"  {'p':>5}  {'tuple p-norm':>14}  {'hypo-p-norm':>13}  "
              f"{'2^(1/p-1/2)':>12}")
        for p in _SHARP_P_GRID:
            snorm = schatten_spherical_norm(tup, p)
            hypo = schatten_hypo_norm(tup, p).value
            print(f"  {p:>5g}  {snorm:>14.10f}  {hypo:>13.10f}  "
                  f"{2 ** (1 / p - 0.5):>12.10f}")
        print()
    print("reference values: sqrt(2) =", np.sqrt(2.0))


if __name__ == "__main__":
    main()
