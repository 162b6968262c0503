"""Orbit coding: a weighted configuration as a list of anchored clusters.

Encoding groups the atoms of a realization into orbit clusters (exact
scans with T^k up to K_max), anchors each group at its heaviest atom, and
records the relative weights.  Groups whose neighborhood leaves the
observation window are dropped with a warning, because their coding could
change under a larger window.  Decoding is exact, and re-encoding the
decoded measure reproduces the code byte for byte.
"""

import warnings
from fractions import Fraction

from sushilab import (
    ClusterEntry,
    ClusterLaw,
    RankOneMachine,
    Rng,
    SushiSpec,
    Translation,
    Window,
    chacon3_recipe,
    phi_decode,
    phi_encode,
    sample_sushi,
)

law = ClusterLaw([ClusterEntry({0: 1, 1: 1}, 1)])
spec = SushiSpec(Fraction(1, 2), law, Translation(1))
core = Window.span(0, 16)

v = sample_sushi(spec, core, Rng(7, 0))
print(f"realization: {len(v.atoms)} atoms")

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    enc = phi_encode(v, spec.T, K_max=2)
for w in caught:
    print("note:", w.message)
print(f"encoded into {len(enc)} clusters:")
for cl in enc[:4]:
    weights = {j: str(wt) for j, wt in cl.weights}
    print(f"  origin {cl.origin}, relative weights {weights}")

v2 = phi_decode(enc, spec.T, window=core)
enc2 = phi_encode(v2, spec.T, K_max=2)
print("decode -> encode reproduces the code exactly:", enc2 == enc)

# the same protocol on a rank-one machine: the core is a union of tower
# levels, so orbit steps move whole levels and stay finitely resolvable
m = RankOneMachine(chacon3_recipe(), label="chacon3")
m.grow_to(2)
_, _, levels = m.tower
mcore = Window(levels[2:11])
mspec = SushiSpec(Fraction(1, 2), law, m)

exact = 0
nonempty = 0
for s in range(200):
    v = sample_sushi(mspec, mcore, Rng(7, 100 + s))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        enc = phi_encode(v, m, K_max=2)
    v2 = phi_decode(enc, m, window=mcore)
    exact += phi_encode(v2, m, K_max=2) == enc
    nonempty += bool(enc)
print(f"machine round trips: {exact}/200 exact, {nonempty} nonempty codes")
