"""Where the extremal vectors of the spin commutator live.

The unit vectors achieving the norm of the n = 101 commutator concentrate on
interior weights (in phase-space language, near the two points where the
boundaries of the two hemispheres cross), not at the extreme weights.
Writes an SVG bar chart of the coefficient moduli next to this script.
"""

import pathlib

import numpy as np

from speclab import extremal_vector, su2_commutator
from speclab.cli import _svg_bars
from speclab.models import FAMILIES

n = 101
report = su2_commutator(n)
weights = FAMILIES["su2"].labels(n)

for which in ("max", "min"):
    vec = extremal_vector(report, which)
    moduli = np.abs(vec.coefficients)
    top = np.argsort(moduli)[::-1][:5]
    print(f"{which}: extremal value {vec.value:.8f} (norm {report.norm:.8f}),",
          "degenerate" if vec.degenerate else f"gap {vec.gap:.2e}")
    print("  largest |coefficients| at weights:",
          ", ".join(f"m={weights[i]:+.1f} ({moduli[i]:.3f})" for i in top))
    out = pathlib.Path(__file__).with_name(f"extremal_{which}_n{n}.svg")
    out.write_text(_svg_bars(weights, moduli, f"spin commutator n={n}, {which}"))
    print("  wrote", out.name)
