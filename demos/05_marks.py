"""Independent marks on a Poisson sample.

Attaching an i.i.d. label to every point produces a marked process whose
slice at mark j is Poisson with intensity alpha * rho(j), and the slices
are independent.  Projections recover plain configurations, and the count
matrix counts each mark directly.
"""

import math
from fractions import Fraction

import numpy as np

from sushilab import (
    IntensitySpec,
    Rng,
    Window,
    attach_marks,
    count_matrix,
    poisson_gof,
    project_mark_set,
    sample_poisson,
)

alpha = IntensitySpec(1)
W = Window.span(0, 10)
rho = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
sampler = lambda rng: attach_marks(sample_poisson(alpha, W, rng), rho, rng)

mc = sampler(Rng(5, 0))
print("marked realization, first points:")
for p, mk in list(zip(mc.points, mc.marks.tolist()))[:5]:
    print(f"  {p} -> mark {mk}")

slice1 = project_mark_set(mc, {1})
print(f"projection to mark 1: {len(slice1.points)} points")

R = 5000
# column (j, W) counts the points of mark j in W, one row per replicate
mat = count_matrix(sampler, [(j, W) for j in range(3)], R, Rng(5, 1))

for j in range(3):
    rep = poisson_gof(mat[:, j].astype(int), float(10 * rho[j]))
    print(f"mark {j}: mean {mat[:, j].mean():.3f} vs {float(10 * rho[j]):.3f}, "
          f"GOF p={rep.p_value:.3f} -> {rep.decision}")

bound = 3 / math.sqrt(R)
for i, j in ((0, 1), (0, 2), (1, 2)):
    r = float(np.corrcoef(mat[:, i], mat[:, j])[0, 1])
    print(f"corr(mark {i}, mark {j}) = {r:+.4f}  (|r| < {bound:.4f}: "
          f"{abs(r) < bound})")
