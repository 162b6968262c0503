"""Cluster measures: weight sequences hung along orbits of ground points.

A catalog entry is a finite weight sequence {a_k}; a ground Poisson point
x contributes mass a_k at T^k x.  The resulting random measure has exact
first and second moments, and with c = 1 / (mean total weight) its
intensity is exactly length measure.
"""

import math
from fractions import Fraction

from sushilab import (
    ClusterEntry,
    ClusterLaw,
    Rng,
    SushiSpec,
    Translation,
    Window,
    count_matrix,
    sample_sushi,
    sushi_mean,
    sushi_variance,
    unit_intensity_c,
)
from sushilab.cluster import ClusterSampler

T = Translation(1)
law = ClusterLaw([
    ClusterEntry({0: 2}, Fraction(1, 2)),
    ClusterEntry({0: 1, 1: 1}, Fraction(1, 2)),
])
spec = SushiSpec(Fraction(1, 2), law, T)
A = Window.span(0, 4)

v = sample_sushi(spec, A, Rng(6, 0))
print("one realization (restricted to the core window):")
for p, w in v.atoms[:6]:
    print(f"  mass {w} at {p}")

print(f"mean total weight {law.mean_total_weight}, "
      f"unit scale c = {unit_intensity_c(law)}")

mean = sushi_mean(spec, A)
var = sushi_variance(spec, A)
print(f"closed forms on {A}: mean {mean}, variance {var}")

R = 6000
# sample_sushi's draws, counted block by block through the cluster grounds
mat = count_matrix(ClusterSampler(spec, A, "sushi"), [(None, A)], R, Rng(6, 1))
masses = mat[:, 0]
se = masses.std(ddof=1) / math.sqrt(R)
print(f"empirical mean {masses.mean():.4f} "
      f"(z = {(masses.mean() - float(mean)) / se:+.2f})")
print(f"empirical variance {masses.var(ddof=1):.4f} vs {float(var)}")

unit = SushiSpec(unit_intensity_c(law), law, T)
umat = count_matrix(ClusterSampler(unit, A, "sushi"), [(None, A)], R, Rng(6, 2))
print(f"unit-scale intensity: {umat[:, 0].mean() / 4:.4f} per unit length")
