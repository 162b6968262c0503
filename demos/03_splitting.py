"""Independent splitting of a Poisson sample.

Each point tosses its own coin, so the components are independent
Poisson processes with the scaled intensities.  A split is a marking: the
coin is a mark, and component j is the projection on mark j, so the count
matrix counts the components of the marked sample directly.  The demo
checks the component laws, the factorization of a mixed moment, and that
the two component supports never meet along the orbit (dissociation).
"""

from fractions import Fraction

from sushilab import (
    IntensitySpec,
    Rng,
    Translation,
    Window,
    attach_marks,
    bernoulli_split,
    count_matrix,
    dissociation_check,
    mixed_moment_factorization,
    poisson_gof,
    sample_poisson,
)

alpha = IntensitySpec(1)
W = Window.span(0, 10)
probs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
sampler = lambda rng: attach_marks(sample_poisson(alpha, W, rng), probs, rng)

rng = Rng(3, 0)
comps = bernoulli_split(sample_poisson(alpha, W, rng), probs, rng)
print("one split realization:",
      [len(c.points) for c in comps], "points per component")

R = 5000
# column (j, W) counts the points of component j in W, one row per replicate
mat = count_matrix(sampler, [(j, W) for j in range(3)], R, Rng(3, 11))
for j, p in enumerate(probs):
    rep = poisson_gof(mat[:, j].astype(int), float(10 * p))
    print(f"component {j}: rate {mat[:, j].mean() / 10:.4f} vs {p}, "
          f"GOF p={rep.p_value:.3f} -> {rep.decision}")

# E[N_0(W) N_1(W)] should factor into the product of the means
half = (Fraction(1, 2), Fraction(1, 2))
pair = lambda rng: attach_marks(sample_poisson(alpha, W, rng), half, rng)
rep = mixed_moment_factorization(pair, [[W], [W]], R, Rng(3, 2))
print(f"mixed moment factorization: p={rep.p_value:.3f} -> {rep.decision}")

# supports of distinct components avoid each other's whole orbit segment
T = Translation(1)
bad = 0
for s in range(2000):
    rng = Rng(3, 100 + s)
    c0, c1 = bernoulli_split(sample_poisson(alpha, W, rng), half, rng)
    bad += not dissociation_check(c0, c1, T, 8)
print(f"dissociation violated in {bad} of 2000 seeded splits")
