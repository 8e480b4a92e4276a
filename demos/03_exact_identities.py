"""Exact finite-size identities: no limits required.

Three of the models contain the Hankel matrix verbatim.  The ring commutator
holds -[H_E]_N as a literal submatrix (same formula, bit-identical floats);
the multiplication/Hardy-projection commutator on 2K+1 Fourier modes is a
Hankel block paired with minus its adjoint; and the Heisenberg construction
built by DFT conjugation matches its closed-form matrix elements to
machine precision.
"""

import numpy as np

from speclab import (
    HALF_CIRCLE,
    hankel_truncation,
    heisenberg_commutator,
    ring_submatrix,
    se2_commutator,
)

for n, size in ((64, 15), (101, 25)):
    sub = ring_submatrix(n, size)
    target = hankel_truncation(HALF_CIRCLE, size)
    print(f"ring n={n}: -extraction == [H_E]_{size} bit for bit:",
          np.array_equal(-sub, target))

for window in (8, 64):
    r = se2_commutator(window)
    target = hankel_truncation(HALF_CIRCLE, window + 1)[:window, :]
    print(f"modes -{window}..{window}: block residual {r.block_check:.1e},",
          "hankel block exact:", np.array_equal(r.block[::-1], target),
          f"norm {r.norm:.6f}")

for n in (12, 33, 64):
    r = heisenberg_commutator(n)
    print(f"heisenberg n={n}: closed form vs operators residual",
          f"{r.diagnostics['closed_form_residual']:.2e}, norm {r.norm:.8f}")
