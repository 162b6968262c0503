"""Separation thinning is equivariant but not Poisson.

Keeping only points with no neighbor within kappa is a perfectly good
equivariant thinning, and its rate has a clean closed form: for a rate
alpha input the kept rate is alpha * exp(-2 kappa alpha).  But the
survivors repel each other, so the counts are under-dispersed and the
Fisher index test rejects the Poisson hypothesis decisively.
"""

import math
from fractions import Fraction

from sushilab import (
    IntensitySpec,
    LatticeSampler,
    Rng,
    Window,
    count_matrix,
    dispersion_index_test,
    sample_poisson,
    separation_thin,
)

alpha = IntensitySpec(1)
kappa = 1
W = Window.span(-1, 51)       # one kappa of slack on each side
core = Window.span(0, 50)     # rate evaluated away from the boundary

# draws then thins each replicate as separation_thin(sample_poisson(...)),
# counting whole blocks of replicates at once
sampler = LatticeSampler(alpha, W, kappa=Fraction(kappa))

before = sample_poisson(alpha, W, Rng(4, 0))
after = separation_thin(before, kappa)
print(f"one realization: {len(before.points)} points -> "
      f"{len(after.points)} kept")

R = 20000
mat = count_matrix(sampler, [(None, core)], R, Rng(4, 1))
counts = mat[:, 0].astype(int)
rate = counts.mean() / 50
target = math.exp(-2)
se = counts.std(ddof=1) / (50 * math.sqrt(R))
print(f"kept rate {rate:.5f} vs alpha e^(-2 kappa alpha) = {target:.5f} "
      f"(z = {(rate - target) / se:+.2f})")

rep = dispersion_index_test(counts, alternative="under")
index = rep.statistic / (R - 1)
print(f"dispersion index {index:.4f} (Poisson would be 1)")
print(f"under-dispersion test: p={rep.p_value:.2e} -> {rep.decision}")
print("equivariance alone does not make a thinning Poisson")
