"""Acceptance battery: twelve structural criteria at frozen seeds.

One test function per criterion, in order, so `pytest -v` shows exactly
one pass/fail line for each.  Every test also prints a PASS line with the
measured quantities once its assertions have held.  Tolerances are stated
inline; exactness criteria (9, 11) allow zero mismatches.
"""

import json
import math
import warnings
from fractions import Fraction

import numpy as np

from sushilab.cluster import (
    ClusterEntry,
    ClusterLaw,
    ClusterSampler,
    SushiSpec,
    phi_decode,
    phi_encode,
    sample_sushi,
    sushi_mean,
    sushi_variance,
    unit_intensity_c,
)
from sushilab.dynamics import RankOneMachine, Translation, chacon3_recipe
from sushilab.experiment import ExperimentSpec, run
from sushilab.moments import (
    count_matrix,
    default_design,
    diagonal_weight,
    fit_partition_decomposition,
    partitions,
    replicate_matrix,
)
from sushilab.point_process import (
    Rng,
    count,
    count_replicates,
    dissociation_check,
    sample_poisson,
)
from sushilab.split_mark import (
    LatticeSampler,
    attach_marks,
    bernoulli_split,
    separation_thin,
)
from sushilab.stats import (
    covariance_check,
    dispersion_index_test,
    mixed_moment_factorization,
    poisson_gof,
    two_sample_count_test,
)
from sushilab.windows import IntensitySpec, Window

SEED = 20260823
T1 = Translation(1)

LAW_POINT = ClusterLaw([ClusterEntry({0: 1}, 1)])
LAW_PAIR = ClusterLaw([ClusterEntry({0: 1, 1: 1}, 1)])
LAW_TRIPLE = ClusterLaw([ClusterEntry({0: 1, 1: 1, 2: 1}, 1)])
LAW_MIXED = ClusterLaw([
    ClusterEntry({0: 2}, Fraction(1, 2)),
    ClusterEntry({0: 1, 1: 1}, Fraction(1, 2)),
])


def chacon_level_core(lo_idx: int = 2, hi_idx: int = 10):
    """chacon3 machine plus a union of consecutive stage-2 tower levels."""
    m = RankOneMachine(chacon3_recipe(), label="chacon3")
    m.grow_to(2)
    _, _, levels = m.tower
    return m, Window(levels[lo_idx:hi_idx + 1])


def test_criterion_01_poisson_calibration():
    # alpha=1 on [0,10), R=20000: GOF at level 0.01 non-rejects in
    # at least 198 of 200 seeded runs.
    W = Window.span(0, 10)
    alpha = IntensitySpec(1)
    nonreject = 0
    for i in range(200):
        counts = count_replicates(alpha, [W], Rng(SEED, 401000 + i), 20000)[:, 0]
        rep = poisson_gof(counts, 10.0, level=0.01, seed=SEED)
        nonreject += rep.decision == "pass"
    assert nonreject >= 198, f"only {nonreject}/200 runs non-rejected"
    print(f"PASS criterion 1: poisson calibration {nonreject}/200 non-rejections")


def test_criterion_02_covariance_isometry():
    # Cov(N(A), N(B)) within 4 s.e. of the overlap length on the three
    # fixture pairs, R=20000.
    W = Window.span(0, 5)
    alpha = IntensitySpec(1)
    sampler = lambda rng: sample_poisson(alpha, W, rng)
    pairs = [
        (Window.span(0, 1), Window.span(2, 3), 0.0),
        (Window.span(0, 3), Window.span(0, 3), 3.0),
        (Window.span(0, 2), Window.span(1, 3), 1.0),
    ]
    zs = []
    for i, (A, B, target) in enumerate(pairs):
        rep = covariance_check(sampler, A, B, alpha, 20000,
                               Rng(SEED, 2000 + i))
        assert rep.target == target
        assert abs(rep.estimate - target) <= 4 * rep.stderr, rep.to_dict()
        zs.append(rep.statistic)
    print(f"PASS criterion 2: covariance z-scores "
          f"{[round(z, 2) for z in zs]} all within 4 s.e.")


def test_criterion_03_moment_decomposition():
    # alpha=1/2: n=2 recovers (1/2, 1/4) within 3 fitted s.e. at R=50000;
    # n=3 recovers all five alpha^{#pi} within 4 fitted s.e. at R=100000.
    alpha = IntensitySpec(Fraction(1, 2))
    a = 0.5

    W2 = Window.span(0, 2)
    fit2 = fit_partition_decomposition(
        LatticeSampler(alpha, W2), 2, default_design(2), 50000, Rng(SEED, 3002))
    for pi in partitions(2):
        target = a ** pi.n_blocks
        assert abs(fit2[pi] - target) <= 3 * fit2.stderrs[pi], (
            str(pi), fit2[pi], fit2.stderrs[pi])

    W3 = Window.span(0, 3)
    fit3 = fit_partition_decomposition(
        LatticeSampler(alpha, W3), 3, default_design(3), 100000, Rng(SEED, 3003))
    for pi in partitions(3):
        target = a ** pi.n_blocks
        assert abs(fit3[pi] - target) <= 4 * fit3.stderrs[pi], (
            str(pi), fit3[pi], fit3.stderrs[pi])
    print(f"PASS criterion 3: n=2 coefficients "
          f"{[round(fit2[p], 4) for p in partitions(2)]}, n=3 "
          f"{[round(fit3[p], 4) for p in partitions(3)]}")


def test_criterion_04_diagonal_weight():
    # refinement estimate at depth 8 within 4 s.e. of alpha * len(A),
    # for n=2 (alpha=1, A=[0,1)) and n=3 (alpha=1/2, A=[0,2)).
    A2 = Window.span(0, 1)
    res2 = diagonal_weight(LatticeSampler(IntensitySpec(1), A2),
                           A2, 2, 8, 20000, Rng(SEED, 4002))
    assert abs(res2.value - 1.0) <= 4 * res2.stderr, (res2.value, res2.stderr)

    A3 = Window.span(0, 2)
    res3 = diagonal_weight(LatticeSampler(IntensitySpec(Fraction(1, 2)), A3),
                           A3, 3, 8, 20000, Rng(SEED, 4003))
    assert abs(res3.value - 1.0) <= 4 * res3.stderr, (res3.value, res3.stderr)
    print(f"PASS criterion 4: diagonal weights n=2 {res2.value:.4f} "
          f"n=3 {res3.value:.4f}, both within 4 s.e. of 1")


def test_criterion_05_splitting_independence():
    # Bernoulli(1/2,1/2) split of Poisson(1) on [0,10): each component
    # passes GOF vs Poisson(5); the mixed moment factorizes; supports of
    # the two components are dissociated (K=8) on 10000 seeds.
    W = Window.span(0, 10)
    alpha = IntensitySpec(1)
    probs = (Fraction(1, 2), Fraction(1, 2))
    sampler = lambda rng: bernoulli_split(sample_poisson(alpha, W, rng),
                                          probs, rng)
    mat = replicate_matrix(
        sampler, lambda comps: [float(count(c, W)) for c in comps],
        2, 20000, Rng(SEED, 5201))
    ps = []
    for j in range(2):
        rep = poisson_gof(mat[:, j].astype(int), 5.0, level=0.01, seed=SEED)
        assert rep.decision == "pass", rep.to_dict()
        ps.append(rep.p_value)

    # the same draws as a marked sample, counted per mark (component)
    marked = lambda rng: attach_marks(sample_poisson(alpha, W, rng), probs, rng)
    mixed = mixed_moment_factorization(marked, [[W], [W]], 20000,
                                       Rng(SEED, 5002))
    assert mixed.decision == "pass", mixed.to_dict()

    for s in range(10000):
        comps = sampler(Rng(SEED, 50000 + s))
        assert dissociation_check(comps[0], comps[1], T1, 8), f"seed {s}"
    print(f"PASS criterion 5: component GOF p={ps[0]:.3f},{ps[1]:.3f}, "
          f"mixed-moment p={mixed.p_value:.3f}, dissociation 10000/10000")


def test_criterion_06_thinning_counterexample():
    # kappa=1 separation thinning of rate-1 input on core [0,50):
    # kept rate within 3 s.e. of e^-2; dispersion rejects at p < 0.001
    # with R=20000.
    W = Window.span(-1, 51)
    core = Window.span(0, 50)
    alpha = IntensitySpec(1)
    sampler = lambda rng: separation_thin(sample_poisson(alpha, W, rng), 1)
    mat = replicate_matrix(sampler, lambda c: [float(count(c, core))],
                           1, 20000, Rng(SEED, 6001))
    counts = mat[:, 0].astype(int)
    rate = counts.mean() / 50.0
    se = counts.std(ddof=1) / (50.0 * math.sqrt(20000))
    target = math.exp(-2.0)
    assert abs(rate - target) <= 3 * se, (rate, target, se)

    rep = dispersion_index_test(counts, level=0.001, alternative="under",
                                seed=SEED)
    assert rep.decision == "reject" and rep.p_value < 0.001, rep.to_dict()
    print(f"PASS criterion 6: kept rate {rate:.5f} vs e^-2={target:.5f}, "
          f"dispersion p={rep.p_value:.2e} rejects")


def test_criterion_07_marked_processes():
    # independent marks rho=(1/2,1/3,1/6) on Poisson(1)|[0,10): each
    # per-mark count passes GOF vs Poisson(10 * rho_j); cross-mark count
    # correlations within 3/sqrt(R).
    W = Window.span(0, 10)
    alpha = IntensitySpec(1)
    rho = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    R = 5000
    sampler = lambda rng: attach_marks(sample_poisson(alpha, W, rng),
                                       rho, rng)

    def evaluate(mc):
        cells = [0.0, 0.0, 0.0]
        for mk in mc.marks.tolist():
            cells[mk] += 1.0
        return cells

    mat = replicate_matrix(sampler, evaluate, 3, R, Rng(SEED, 7001))
    for j in range(3):
        rep = poisson_gof(mat[:, j].astype(int), float(10 * rho[j]),
                          level=0.01, seed=SEED)
        assert rep.decision == "pass", (j, rep.to_dict())

    bound = 3.0 / math.sqrt(R)
    corrs = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = float(np.corrcoef(mat[:, i], mat[:, j])[0, 1])
        assert abs(r) <= bound, (i, j, r, bound)
        corrs.append(round(r, 4))
    print(f"PASS criterion 7: per-mark GOF pass, cross correlations "
          f"{corrs} within +-{bound:.4f}")


def test_criterion_08_sushi_intensity():
    # empirical mean mass = c * (mean total weight) * length within
    # 3 s.e. on three catalog fixtures; with the unit-intensity scale the
    # rate is 1 within 3 s.e.
    A = Window.span(0, 6)
    R = 4000
    rates = []
    for i, law in enumerate((LAW_POINT, LAW_PAIR, LAW_TRIPLE)):
        spec = SushiSpec(Fraction(1, 2), law, T1)
        target = float(sushi_mean(spec, A))
        mat = count_matrix(ClusterSampler(spec, A, "sushi"), [(None, A)], R,
                           Rng(SEED, 8000 + i))
        se = mat[:, 0].std(ddof=1) / math.sqrt(R)
        assert abs(mat[:, 0].mean() - target) <= 3 * se, (i, target)

        unit = SushiSpec(unit_intensity_c(law), law, T1)
        assert float(sushi_mean(unit, A)) == 6.0
        umat = count_matrix(ClusterSampler(unit, A, "sushi"), [(None, A)], R,
                            Rng(SEED, 8100 + i))
        use = umat[:, 0].std(ddof=1) / math.sqrt(R)
        rate = float(umat[:, 0].mean()) / 6.0
        assert abs(umat[:, 0].mean() - 6.0) <= 3 * use, (i, rate)
        rates.append(round(rate, 4))
    print(f"PASS criterion 8: three fixtures within 3 s.e.; "
          f"unit-scale rates {rates}")


def _round_trips_exact(spec: SushiSpec, core: Window, K_max: int,
                       stream_base: int, n_seeds: int = 1000) -> int:
    """Returns how many realizations were nonempty; asserts exactness."""
    nonempty = 0
    for s in range(n_seeds):
        v = sample_sushi(spec, core, Rng(SEED, stream_base + s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # boundary drops allowed here
            enc = phi_encode(v, spec.T, K_max)
        v2 = phi_decode(enc, spec.T, window=core)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # re-encode must be drop-free
            enc2 = phi_encode(v2, spec.T, K_max)
        assert enc2 == enc, f"seed {s}: encode(decode(encode)) differs"
        assert phi_decode(enc2, spec.T, window=core) == v2, f"seed {s}"
        nonempty += bool(enc)
    return nonempty


def test_criterion_09_coding_round_trip():
    # encode/decode round trips exact with zero tolerance on 1000 seeded
    # realizations each, for the translation and the chacon3 machine.
    tspec = SushiSpec(Fraction(1, 2), LAW_PAIR, T1)
    n_t = _round_trips_exact(tspec, Window.span(0, 8), 2, 90000)
    assert n_t >= 500, f"translation fixture too sparse: {n_t}/1000"

    m, core = chacon_level_core()
    mspec = SushiSpec(Fraction(1, 2), LAW_PAIR, m)
    n_m = _round_trips_exact(mspec, core, 2, 95000)
    assert n_m >= 100, f"machine fixture too sparse: {n_m}/1000"
    print(f"PASS criterion 9: 1000+1000 exact round trips "
          f"({n_t} and {n_m} nonempty)")


def test_criterion_10_id_identities():
    # the independent-entry sampler and the catalog sampler agree in law:
    # two-sample count test non-rejects at 0.001 on all 20 seeds; and the
    # empirical variance matches the closed form within 4 s.e.
    A = Window.span(0, 4)
    spec = SushiSpec(Fraction(1, 2), LAW_MIXED, T1)
    R = 2000
    sushi, ident = ClusterSampler(spec, A, "sushi"), ClusterSampler(spec, A, "id")
    worst = 1.0
    for s in range(20):
        xs = count_matrix(sushi, [(None, A)], R,
                          Rng(SEED, 100000 + s))[:, 0].astype(int)
        ys = count_matrix(ident, [(None, A)], R,
                          Rng(SEED, 110000 + s))[:, 0].astype(int)
        rep = two_sample_count_test(xs, ys, level=0.001, seed=SEED)
        assert rep.decision == "pass", (s, rep.to_dict())
        worst = min(worst, rep.p_value)

    A2 = Window.span(0, 2)
    target = float(sushi_variance(spec, A2))
    mat = count_matrix(ClusterSampler(spec, A2, "id"), [(None, A2)], 20000,
                       Rng(SEED, 10500))
    xs = mat[:, 0]
    s2 = xs.var(ddof=1)
    centered = xs - xs.mean()
    se = math.sqrt(max(float(np.mean(centered**4)) - s2 * s2, 0.0) / 20000)
    assert abs(s2 - target) <= 4 * se, (s2, target, se)
    print(f"PASS criterion 10: 20/20 two-sample non-rejections "
          f"(min p={worst:.3f}); variance {s2:.3f} vs {target:.3f}")


def test_criterion_11_exact_dynamics():
    # invertibility: T^-k T^k x == x exactly on 10000 random dyadic
    # points, |k| <= 32.  measure preservation: image windows keep exact
    # length and invert exactly on 512 random cell-confined windows.
    m = RankOneMachine(chacon3_recipe(), label="chacon3")
    rng = Rng(SEED, 11000)
    denom = 2**53
    nums = rng.integers(0, denom, 10000)
    mags = rng.integers(1, 33, 10000)
    signs = rng.integers(0, 2, 10000)
    for n, mag, sign in zip(nums, mags, signs):
        x = Fraction(int(n), denom)
        k = int(mag) if sign else -int(mag)
        y = m.apply(x, k)
        assert m.apply(y, -k) == x, (x, k)

    wrng = Rng(SEED, 11001)
    cells = wrng.integers(0, 27, 512)
    e1 = wrng.integers(1, 2**40, 512)
    e2 = wrng.integers(1, 2**40, 512)
    wks = wrng.integers(1, 33, 512)
    wsigns = wrng.integers(0, 2, 512)
    checked = 0
    for j, a, b, mag, sign in zip(cells, e1, e2, wks, wsigns):
        if a == b:
            continue
        u1, u2 = sorted((Fraction(int(a), 2**40), Fraction(int(b), 2**40)))
        w = Window.span((int(j) + u1) / 27, (int(j) + u2) / 27)
        k = int(mag) if sign else -int(mag)
        img = m.image_window(w, k)
        assert img.length == w.length, (w, k)
        assert m.image_window(img, -k) == w, (w, k)
        checked += 1
    assert checked >= 500
    print(f"PASS criterion 11: 10000 exact point inversions, "
          f"{checked} exact window round trips, |k| <= 32")


def test_criterion_12_determinism(tmp_path):
    # the same spec rerun with the same seed yields byte-identical
    # reports, at 1 thread and at 8 threads.
    spec = ExperimentSpec.from_dict({
        "name": "acceptance-determinism",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,6)",
        "construction": "sushi",
        "params": {"c": "1/2", "law": [
            {"prob": "1/2", "weights": {"0": "2"}},
            {"prob": "1/2", "weights": {"0": "1", "1": "1"}},
        ]},
        "battery": [
            {"test": "intensity"},
            {"test": "variance"},
            {"test": "dispersion", "level": 0.001},
        ],
        "replicates": 2000,
        "seed": SEED,
    })
    dirs = [tmp_path / name for name in ("t1", "t8", "t1b")]
    for out, threads in zip(dirs, (1, 8, 1)):
        run(spec, threads=threads, out_dir=out)

    manifests = []
    for out in dirs:
        d = json.loads((out / "manifest.json").read_text())
        d.pop("wall_time_s")
        manifests.append(json.dumps(d, sort_keys=True))
    assert manifests[0] == manifests[1], "1-thread vs 8-thread mismatch"
    assert manifests[0] == manifests[2], "rerun mismatch"

    files = sorted(p.name for p in (dirs[0] / "reports").glob("*.json"))
    assert files
    for name in files:
        b1 = (dirs[0] / "reports" / name).read_bytes()
        assert b1 == (dirs[1] / "reports" / name).read_bytes()
        assert b1 == (dirs[2] / "reports" / name).read_bytes()
    print(f"PASS criterion 12: {len(files)} reports byte-identical "
          f"across rerun and 1 vs 8 threads")
