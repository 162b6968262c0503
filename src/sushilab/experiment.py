"""Experiment orchestration: JSON specs, preset batteries, manifest output.

A spec names a transformation, an intensity, a sampling window, one
construction (poisson | split | thin | mark | sushi | id), and a battery
of named checks.  run() validates everything before sampling, executes
the battery on deterministic per-item streams, and emits a manifest whose
content is a pure function of (spec, seed): rerunning reproduces every
report byte for byte.  Wall time is the single manifest field excluded
from that contract.  Every construction counts whole blocks of replicates
at once, the cluster ones by pulling their counts back to lattice grounds,
and the exact checks run on the same blocks: ``free`` and ``dissociation``
compare grid indices, and ``round_trip`` clears each replicate whose ground
points provably code as separate clusters.  Only the replicates those
checks cannot decide on grid indices, and the realization dumps, are
sampled one at a time, on the same streams; ``round_trip`` runs its
``Fraction`` coding on those.  run() accepts ``threads`` for compatibility
only.

Numbers in spec files use exact rational literals ("3/200") and window
literals ("[0,1)+[2,3)") so configuration round-trips without float loss.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .cluster import (
    ClusterEntry,
    ClusterLaw,
    ClusterSampler,
    SushiSpec,
    cluster_buffer,
    sushi_mean,
    sushi_variance,
    unit_intensity_c,
)
from .dynamics import (
    DEFAULT_MAX_STAGE,
    OrbitError,
    RankOneMachine,
    TransformHandle,
    Translation,
    chacon3_recipe,
    infinite_chacon_recipe,
    recipe_from_arrays,
)
from .moments import (
    count_matrix,
    default_design,
    diagonal_weight,
    fit_partition_decomposition,
    partitions,
)
from .point_process import Rng, dump_csv
from .split_mark import LatticeSampler, MarkLaw, project_mark_set
from .stats import (
    TestReport,
    cesaro_factorization,
    correlation_check,
    covariance_check,
    dispersion_index_test,
    mixed_moment_factorization,
    poisson_gof,
    two_sample_count_test,
    variance_check,
    z_test_report,
)
from .windows import (
    IntensitySpec,
    Window,
    as_rat,
    format_rat,
    parse_window,
)

__all__ = [
    "ExperimentSpec",
    "RunManifest",
    "run",
    "list_presets",
    "preset_spec",
    "TRANSFORMATION_PRESETS",
    "BATTERY_PRESETS",
    "parse_law",
    "resolve_transformation",
]

ARTIFACT_VERSION = "1.0.0"

CONSTRUCTIONS = ("poisson", "split", "thin", "mark", "sushi", "id")

TRANSFORMATION_PRESETS: dict[str, str] = {
    "translation": "translation x -> x + step (default step 1)",
    "chacon3": "3-cut rank-one machine, one spacer on the middle column",
    "infinite-chacon": "3-cut rank-one machine with a growing spacer tail",
    "rank-one": "configurable machine from {cuts: [...], spacers: [[...]]}",
}


def _rat_at(field: str, value) -> Fraction:
    """value as an exact rational; a ValueError naming field otherwise."""
    try:
        return as_rat(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def resolve_transformation(obj) -> TransformHandle:
    """Transformation from a preset name or a recipe config block."""
    if isinstance(obj, str):
        name, params = obj, {}
    elif isinstance(obj, Mapping):
        params = dict(obj)
        name = params.pop("preset", "rank-one" if "cuts" in params else None)
        if name is None:
            raise ValueError("transformation: needs 'preset' or 'cuts'/'spacers'")
    else:
        raise ValueError("transformation: must be a name or a config block")
    if name == "translation":
        return Translation(_rat_at("transformation.step", params.get("step", 1)))
    if name == "chacon3":
        return RankOneMachine(chacon3_recipe(), label="chacon3")
    if name == "infinite-chacon":
        return RankOneMachine(infinite_chacon_recipe(), label="infinite-chacon")
    if name == "rank-one":
        if "cuts" not in params or "spacers" not in params:
            raise ValueError("transformation: rank-one needs cuts and spacers")
        try:
            recipe = recipe_from_arrays(params["cuts"], params["spacers"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"transformation: {exc}") from exc
        return RankOneMachine(recipe, label="rank-one")
    raise ValueError(f"transformation: unknown preset {name!r}")


def parse_law(entries) -> ClusterLaw:
    """ClusterLaw from config rows {prob, weights: {k: a_k}}, exact."""
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ValueError("params.law: must be a list of {prob, weights} entries")
    parsed = []
    for i, e in enumerate(entries):
        if not isinstance(e, Mapping) or not isinstance(e.get("weights"), Mapping):
            raise ValueError(f"params.law[{i}]: must be {{prob, weights: {{k: a_k}}}}")
        try:
            weights = {int(k): as_rat(v) for k, v in e["weights"].items()}
            parsed.append(ClusterEntry(weights, as_rat(e["prob"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"params.law[{i}]: {exc}") from exc
    return ClusterLaw(parsed)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description plus its raw dict for hashing."""

    name: str
    transformation: TransformHandle
    intensity: IntensitySpec
    window: Window
    construction: str
    params: dict
    battery: tuple[dict, ...]
    replicates: int
    seed: int
    raw: dict

    @staticmethod
    def from_dict(d: Mapping) -> "ExperimentSpec":
        def need(field, typ=None):
            if field not in d:
                raise ValueError(f"{field}: required field missing")
            v = d[field]
            if typ is not None and (not isinstance(v, typ) or isinstance(v, bool)):
                raise ValueError(f"{field}: expected {typ.__name__}")
            return v

        name = need("name", str)
        T = resolve_transformation(need("transformation"))
        try:
            intensity = IntensitySpec(as_rat(d.get("intensity", 1)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"intensity: {exc}") from exc
        try:
            window = parse_window(need("window", str))
        except ValueError as exc:
            raise ValueError(f"window: {exc}") from exc
        construction = need("construction", str)
        if construction not in CONSTRUCTIONS:
            raise ValueError(
                f"construction: {construction!r} not one of {CONSTRUCTIONS}"
            )
        params = d.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("params: must be a mapping")
        params = dict(params)
        battery = d.get("battery", [])
        if not isinstance(battery, Sequence):
            raise ValueError("battery: must be a list of test items")
        for i, item in enumerate(battery):
            if not isinstance(item, Mapping) or "test" not in item:
                raise ValueError(f"battery[{i}]: needs a 'test' name")
            if item["test"] not in _TESTS:
                raise ValueError(
                    f"battery[{i}]: unknown test {item['test']!r}"
                )
            if item.get("expect", "pass") not in ("pass", "reject"):
                raise ValueError(f"battery[{i}]: expect must be pass or reject")
            _, needs, checks = _TESTS[item["test"]]
            for key, (required, check) in {**_ANY_ITEM, **checks}.items():
                if key not in item:
                    if required:
                        raise ValueError(
                            f"battery[{i}].{key}: required for {item['test']}")
                    continue
                try:
                    check(item[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"battery[{i}].{key}: {exc}") from exc
            if construction not in needs:
                raise ValueError(
                    f"battery[{i}].test: {item['test']} needs the "
                    f"{' or '.join(needs)} construction, not {construction}")
        replicates = need("replicates", int)
        if replicates < 100:
            raise ValueError("replicates: must be at least 100")
        if replicates > MAX_REPLICATES:
            raise ValueError(f"replicates: must be at most {MAX_REPLICATES}")
        seed = need("seed", int)
        spec = ExperimentSpec(
            name=name,
            transformation=T,
            intensity=intensity,
            window=window,
            construction=construction,
            params=params,
            battery=tuple(dict(it) for it in battery),
            replicates=replicates,
            seed=seed,
            raw=_canonical_raw(d),
        )
        plan = _build_plan(spec)  # validate construction preconditions before sampling
        for i, item in enumerate(spec.battery):
            _check_selectors(plan, item, f"battery[{i}]")
            if item["test"] == "poisson_gof" and _item_R(spec, item) < 1000:
                raise ValueError(f"battery[{i}].replicates: poisson_gof needs "
                                 f"at least 1000, not {_item_R(spec, item)}")
        return spec

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        return ExperimentSpec.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _canonical_raw(d: Mapping) -> dict:
    return json.loads(json.dumps(d, sort_keys=True))


@dataclass(frozen=True)
class _Plan:
    """Resolved construction: sampler closure plus derived quantities."""

    kind: str
    T: TransformHandle
    intensity: IntensitySpec
    sampling_window: Window
    observed: Window
    sample: Callable[[Rng], object]
    probs: tuple[Fraction, ...] | None = None
    selector: str | None = None  # the item key that names a mark
    kappa: Fraction | None = None
    sushi: SushiSpec | None = None

    def mean_mass(self, w: Window) -> float:
        """Expected N(w) under this construction, closed form."""
        alpha = self.intensity.alpha
        if self.kind in ("poisson", "split", "mark"):
            return float(alpha * w.length)
        if self.kind == "thin":
            rate = float(alpha) * math.exp(-2 * float(self.kappa) * float(alpha))
            return rate * float(w.length)
        return float(sushi_mean(self.sushi, w))


def _build_plan(spec: ExperimentSpec) -> _Plan:
    T, alphaspec, W = spec.transformation, spec.intensity, spec.window
    kind, params = spec.construction, spec.params
    if kind not in ("sushi", "id"):
        _check_mean("intensity", alphaspec.alpha, W)
    if kind == "poisson":
        return _Plan(kind, T, alphaspec, W, W, LatticeSampler(alphaspec, W))
    if kind in ("split", "mark"):
        key, selector = ("probs", "component") if kind == "split" else \
            ("mark_probs", "mark")
        raw_probs = params.get(key, params.get("probs"))
        if raw_probs is None:
            raise ValueError(f"params.{key}: required for {kind}")
        if not isinstance(raw_probs, (list, tuple)):
            raise ValueError(f"params.{key}: must be a list of rationals")
        probs = tuple(_rat_at(f"params.{key}[{i}]", p)
                      for i, p in enumerate(raw_probs))
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise ValueError(f"params.{key}: must be nonnegative, summing to 1")
        # a split is sampled as its marking, with bernoulli_split's draws
        return _Plan(kind, T, alphaspec, W, W,
                     LatticeSampler(alphaspec, W, marks=MarkLaw(probs)),
                     probs=probs, selector=selector)
    if kind == "thin":
        kappa = _rat_at("params.kappa", params.get("kappa", 1))
        if kappa <= 0:
            raise ValueError("params.kappa: must be positive")
        core = W.shrink(kappa)
        if core.is_empty:
            raise ValueError(
                "window: lacks the kappa-buffer (shrunk core is empty)"
            )
        return _Plan(kind, T, alphaspec, W, core,
                     LatticeSampler(alphaspec, W, kappa=kappa), kappa=kappa)
    if kind in ("sushi", "id"):
        law = parse_law(params.get("law", ()))
        if _rat_at("params.gamma", params.get("gamma", 0)) != 0:
            raise ValueError("params.gamma: drift must be zero")
        c_raw = params.get("c")
        if c_raw is None:
            c = alphaspec.alpha
        elif c_raw == "unit":
            c = unit_intensity_c(law)
        else:
            c = _rat_at("params.c", c_raw)
        try:
            sspec = SushiSpec(c, law, T)
        except ValueError as exc:
            raise ValueError(f"params: {exc}") from exc
        field = "intensity" if c_raw is None else "params.c"
        return _Plan(kind, T, IntensitySpec(c), W, W,
                     _cluster_sampler(sspec, W, kind, field), sushi=sspec)
    raise ValueError(f"construction: unknown kind {kind}")


def _check_mean(field: str, rate: Fraction, ground: Window) -> None:
    """Refuse a replicate whose mean ground count, rate x length of its
    ground window, exceeds MAX_GROUND_MEAN, naming field, before the
    window's lattice frames are laid out."""
    mean = rate * ground.length
    if mean > MAX_GROUND_MEAN:
        raise ValueError(f"{field}: the mean ground count per replicate, "
                         f"{format_rat(rate)} x length of {ground}, is "
                         f"{float(mean):.4g}, above {MAX_GROUND_MEAN}")


def _cluster_sampler(sspec: SushiSpec, W: Window, route: str,
                     field: str = "params.c") -> ClusterSampler:
    """The cluster sampler of route on W, refusing a law whose clusters T
    cannot hang from every point of their ground window, a window outside
    T's space, and a ground mean above MAX_GROUND_MEAN, named as field.
    The sushi ground's mean bounds the id grounds' total."""
    def named(build):
        try:
            return build()
        except OrbitError as exc:
            raise ValueError(f"params.law: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"window: {exc}") from exc

    _check_mean(field, sspec.c, named(lambda: cluster_buffer(sspec, W)))
    return named(lambda: ClusterSampler(sspec, W, route))


# ---------------------------------------------------------------------------
# battery test runners: (plan, spec, item, rng) -> (reports, raw)

RawData = dict[str, np.ndarray]


def _item_R(spec: ExperimentSpec, item: Mapping) -> int:
    return item.get("replicates", spec.replicates)


def _item_window(plan: _Plan, item: Mapping) -> Window:
    if "window" in item:
        return parse_window(item["window"])
    return plan.observed


def _parse_windows(texts) -> list[Window]:
    return [parse_window(t) for t in texts]


def _int_in(lo: int, hi: float = math.inf) -> Callable:
    """Check that a parameter is an integer in lo..hi."""
    def check(v) -> None:
        if type(v) is not int or not lo <= v <= hi:
            raise ValueError(f"must be an integer in {lo}..{hi}")
    return check


def _replicates(v) -> None:
    """Check that a replicate count is an integer in 100..MAX_REPLICATES."""
    _int_in(100)(v)
    if v > MAX_REPLICATES:
        raise ValueError(f"must be at most {MAX_REPLICATES}")


def _level(v) -> None:
    """Check that a test level is a number in (0, 1)."""
    if type(v) not in (int, float) or not 0 < v < 1:
        raise ValueError("must be a number in (0, 1)")


def _boolean(v) -> None:
    if type(v) is not bool:
        raise ValueError("must be true or false")


def _alternative(v) -> None:
    if v not in ("under", "over", "two-sided"):
        raise ValueError("must be under, over or two-sided")


def _check_selectors(plan: _Plan, item: Mapping, at: str) -> None:
    """The components, marks, windows and samplers an item names exist: a
    counting test may name a ``component`` of a split or a ``mark`` of a
    mark construction; ``pair`` and ``groupings`` index components or
    marks, cesaro ``K`` its windows; every window it counts in, cesaro's
    shifted windows included, lies in the observed window."""
    test, n = item["test"], len(plan.probs or ())
    texts = [(key, item[key]) for key in ("window", "A", "B") if key in item]
    if test == "mixed_moment":
        texts += [("groupings", t) for g in item["groupings"] for t in g]
    if test == "cesaro":
        texts += [("windows", t) for t in item["windows"]]
    for key, A in ((key, parse_window(t)) for key, t in texts):
        if not plan.observed.covers(A):
            raise ValueError(f"{at}.{key}: {A} exceeds observed window "
                             f"{plan.observed}")
    indices = []  # (key, the indices it names, their bound)
    if test in ("poisson_gof", "intensity", "dispersion", "variance"):
        for key, kind in (("component", "split"), ("mark", "mark")):
            if item.get(key) is None:
                continue
            if plan.kind != kind:
                raise ValueError(f"{at}.{key}: only the {kind} construction "
                                 f"has {key}s")
            indices.append((key, [item[key]], n))
    if test in ("cross_correlation", "dissociation"):
        indices.append(("pair", item.get("pair", [0, 1]), n))
    groups = item.get("groupings")
    if test == "mixed_moment" and (not 0 < len(groups) <= n or not all(groups)):
        raise ValueError(f"{at}.groupings: must be 1 to {n} nonempty "
                         f"groups, at most one per {plan.selector}")
    if test == "cesaro":
        indices.append(("K", item.get("K", [0]), len(item["windows"])))
    if test == "two_sample_vs":
        other = _other_route(plan, item)
        if other not in _CLUSTER:
            raise ValueError(f"{at}.other: must be sushi or id")
        try:
            _cluster_sampler(plan.sushi, plan.sampling_window, other)
        except ValueError as exc:
            raise ValueError(f"{at}.other: {exc}") from exc
    if test in _INTEGER_TESTS and plan.sushi is not None:
        fraction = next((a for e in plan.sushi.law.catalog if e.prob
                         for _, a in e.weights if a.denominator != 1), None)
        if fraction is not None:
            raise ValueError(f"{at}.test: {test} needs integer counts, but "
                             f"params.law hangs the weight {fraction}")
    if test == "moment_fit":
        for A in dict.fromkeys(A for tup in default_design(item.get("n", 2))
                               for A in tup):
            if not plan.observed.covers(A):
                raise ValueError(f"{at}.n: moment_fit's design window {A} "
                                 f"exceeds observed window {plan.observed}")
    for key, values, bound in indices:
        if not isinstance(values, list) or \
                (key == "pair" and len(values) != 2) or \
                any(type(v) is not int or not 0 <= v < bound for v in values):
            what = {"pair": "two integers", "K": "a list of integers"}
            raise ValueError(f"{at}.{key}: must be "
                             f"{what.get(key, 'an integer')} in [0, {bound})")
    if test == "cesaro":
        _check_cesaro_shifts(plan, item, f"{at}.windows")
    if test == "round_trip":
        K_max, span = _K_max(plan, item), plan.sushi.law.span
        if span + K_max > MAX_K:
            raise ValueError(f"{at}.K_max: round_trip compares orbits "
                             f"{span + K_max} steps apart (the law's offsets "
                             f"span {span}, plus K_max {K_max}), above {MAX_K}")
    if test in ("dissociation", "free") and isinstance(plan.T, RankOneMachine):
        space = plan.T.space_at(DEFAULT_MAX_STAGE)
        if not space.covers(plan.observed):
            raise ValueError(f"window: {plan.observed} is not inside the space "
                             f"{space} that {plan.T} builds in {DEFAULT_MAX_STAGE} "
                             f"stages, where {at}.test {test} applies T^k")


def _other_route(plan: _Plan, item: Mapping) -> str:
    """The cluster route two_sample_vs compares the plan's with."""
    return item.get("other", "sushi" if plan.kind == "id" else "id")


def _check_cesaro_shifts(plan: _Plan, item: Mapping, at: str) -> None:
    """The windows T^-k A, k = 1..L, that cesaro counts for each of its
    windows A outside K exist and lie in the observed window."""
    K, L = set(item.get("K", [0])), item.get("L", 16)
    for i, A in enumerate(_parse_windows(item["windows"])):
        if i in K:
            continue
        for k in range(1, L + 1):
            try:
                B = plan.T.image_window(A, -k)
            except OrbitError as exc:
                raise ValueError(f"{at}: {exc}") from exc
            if not plan.observed.covers(B):
                raise ValueError(f"{at}: T^-{k} {A} = {B} exceeds observed "
                                 f"window {plan.observed}")


def _item_counts(plan, spec, item, rng) -> tuple[Window, int, np.ndarray]:
    """The item's window w, its R, and per replicate N(w) of its split
    component or mark (of the whole realization when it names none)."""
    w, R = _item_window(plan, item), _item_R(spec, item)
    return w, R, count_matrix(plan.sample, [(item.get(plan.selector), w)], R,
                              rng)[:, 0]


def _integers(vec: np.ndarray, test: str) -> np.ndarray:
    counts = vec.astype(np.int64)
    if not np.array_equal(vec, counts):
        raise ValueError(f"{test}: non-integer masses; use integer weights")
    return counts


def _expected(plan: _Plan, item: Mapping, w: Window) -> float:
    """Expected N(w) of the item's component or mark, or of the sample."""
    j = item.get(plan.selector)
    if j is None:
        return plan.mean_mass(w)
    return float(plan.intensity.alpha * plan.probs[j] * w.length)


def _exact_report(spec, item, name: str, nfail: int) -> TestReport:
    """Zero-tolerance check: statistic = the nfail failed replicates, p = 1
    when there are none, else 0."""
    return TestReport(name, float(nfail), 1.0 if nfail == 0 else 0.0,
                      float(item.get("level", 0.5)), spec.seed, _item_R(spec, item))


def _meet_report(plan, spec, item, rng, pair) -> TestReport:
    """The exact check of :meth:`LatticeSampler.meet_blocks`: free when
    pair is None, dissociation of the marks pair otherwise."""
    K = item.get("K", 8)
    blocks = plan.sample.meet_blocks(rng, _item_R(spec, item), plan.T, K, pair)
    return _exact_report(spec, item, f"{item['test']}[K={K}]",
                         sum(int(b.sum()) for b in blocks))


def _run_poisson_gof(plan, spec, item, rng):
    level = float(item.get("level", 0.01))
    j = item.get(plan.selector)
    label = "" if j is None else f"[{plan.selector} {j}]"
    w, _, vec = _item_counts(plan, spec, item, rng)
    counts = _integers(vec, "poisson_gof")
    mean = _expected(plan, item, w)
    if item.get("mean") == "empirical":
        mean = float(counts.mean())
        label += "[matched-mean]"
    elif "mean" in item:
        mean = float(as_rat(item["mean"]))
    rep = poisson_gof(counts, mean, level=level,
                      name=f"poisson_gof{label}", seed=spec.seed)
    return [rep], {"counts": counts}


def _run_intensity(plan, spec, item, rng):
    level = float(item.get("level", 0.01))
    w, R, masses = _item_counts(plan, spec, item, rng)
    if "target" in item:
        target = float(as_rat(item["target"]) * w.length)
    else:
        target = _expected(plan, item, w)
    se = float(masses.std(ddof=1) / math.sqrt(R))
    rep = z_test_report(f"intensity[{w}]",
                        float(masses.mean()), target, se, level,
                        spec.seed, R)
    return [rep], {"masses": masses}


def _run_dispersion(plan, spec, item, rng):
    level = float(item.get("level", 0.001))
    default_alt = "under" if plan.kind == "thin" else "two-sided"
    alternative = item.get("alternative", default_alt)
    counts = _integers(_item_counts(plan, spec, item, rng)[2], "dispersion")
    rep = dispersion_index_test(counts, level=level, alternative=alternative,
                                seed=spec.seed)
    return [rep], {"counts": counts}


def _run_covariance(plan, spec, item, rng):
    A = parse_window(item["A"])
    B = parse_window(item["B"])
    R = _item_R(spec, item)
    rep = covariance_check(plan.sample, A, B, plan.intensity, R, rng,
                           level=float(item.get("level", 0.01)))
    return [rep], {}


def _run_mixed_moment(plan, spec, item, rng):
    groupings = [_parse_windows(g) for g in item["groupings"]]
    R = _item_R(spec, item)
    rep = mixed_moment_factorization(plan.sample, groupings, R, rng,
                                     level=float(item.get("level", 0.01)))
    return [rep], {}


def _run_cross_correlation(plan, spec, item, rng):
    i, j = item.get("pair", (0, 1))
    w = _item_window(plan, item)
    R = _item_R(spec, item)
    mat = count_matrix(plan.sample, [(i, w), (j, w)], R, rng)
    rep = correlation_check(mat[:, 0], mat[:, 1],
                            level=float(item.get("level", 0.0027)),
                            name=f"cross_correlation[{i},{j}]", seed=spec.seed)
    return [rep], {"counts_i": mat[:, 0], "counts_j": mat[:, 1]}


def _run_dissociation(plan, spec, item, rng):
    i, j = item.get("pair", (0, 1))
    return [_meet_report(plan, spec, item, rng, (i, j))], {}


def _run_free(plan, spec, item, rng):
    return [_meet_report(plan, spec, item, rng, None)], {}


def _run_moment_fit(plan, spec, item, rng):
    n = item.get("n", 2)
    R = _item_R(spec, item)
    level = float(item.get("level", 0.01))
    design = default_design(n)
    alpha = float(plan.intensity.alpha)
    fit = fit_partition_decomposition(plan.sample, n, design, R, rng)
    reports = []
    raw = {}
    for pi in partitions(n):
        target = alpha ** pi.n_blocks
        reports.append(z_test_report(
            f"moment_fit[{pi}]", fit[pi], target, fit.stderrs[pi],
            level, spec.seed, R,
        ))
    raw["coefficients"] = np.array([fit[pi] for pi in partitions(n)])
    return reports, raw


def _run_diagonal_weight(plan, spec, item, rng):
    w = _item_window(plan, item)
    n = item.get("n", 2)
    depth = item.get("depth", 8)
    R = _item_R(spec, item)
    level = float(item.get("level", 0.01))
    res = diagonal_weight(plan.sample, w, n, depth, R, rng)
    target = float(plan.intensity.alpha * w.length)
    rep = z_test_report(f"diagonal_weight[n={n},depth={depth}]",
                        res.value, target, res.stderr, level, spec.seed, R)
    return [rep], {"refinements": np.array(res.estimates)}


def _K_max(plan: _Plan, item: Mapping) -> int:
    """The orbit scan radius of a round_trip item."""
    return item.get("K_max", 2 * plan.sushi.law.reach)


def _run_round_trip(plan, spec, item, rng):
    K_max = _K_max(plan, item)
    blocks = plan.sample.round_trip_blocks(rng, _item_R(spec, item), K_max)
    return [_exact_report(spec, item, f"round_trip[K_max={K_max}]",
                          sum(int(b.sum()) for b in blocks))], {}


def _run_two_sample_vs(plan, spec, item, rng):
    other = _other_route(plan, item)
    w = _item_window(plan, item)
    R = _item_R(spec, item)
    level = float(item.get("level", 0.001))
    other_sample = _cluster_sampler(plan.sushi, plan.sampling_window, other)
    a = count_matrix(plan.sample, [(None, w)], R, rng.child(0))[:, 0]
    b = count_matrix(other_sample, [(None, w)], R, rng.child(1))[:, 0]
    ia, ib = _integers(a, "two_sample_vs"), _integers(b, "two_sample_vs")
    rep = two_sample_count_test(ia, ib, level=level,
                                name=f"two_sample[{plan.kind} vs {other}]",
                                seed=spec.seed)
    return [rep], {"masses_a": a, "masses_b": b}


def _run_variance(plan, spec, item, rng):
    level = float(item.get("level", 0.01))
    w, _, masses = _item_counts(plan, spec, item, rng)
    if plan.kind in ("sushi", "id"):
        target = float(sushi_variance(plan.sushi, w))
    else:
        target = _expected(plan, item, w)
    rep = variance_check(masses, target, level=level,
                         name=f"variance[{w}]", seed=spec.seed)
    return [rep], {"masses": masses}


def _run_cesaro(plan, spec, item, rng):
    windows = _parse_windows(item["windows"])
    K = item.get("K", [0])
    L = item.get("L", 16)
    R = _item_R(spec, item)
    res = cesaro_factorization(plan.sample, plan.T, windows, K, L, R, rng,
                               level=float(item.get("level", 0.01)))
    return [res.report], {"terms": np.array(res.terms),
                          "averages": np.array(res.averages)}


# Largest orbit reach K of a dissociation or free item, L of a cesaro item,
# and span + K_max of a round_trip item.  Each replicate checks its points
# against 2K + 1 powers of T, cesaro computes L images of each window, and
# each power of a rank-one machine costs a piece table, so the reach bounds
# the work per replicate; the shipped, test and benchmark specs reach at
# most 16.
MAX_K = 1024
# Largest number of replicates of a spec or an item: one float64 count
# column of that many rows is 8 MB.  The shipped specs use at most 20,000.
MAX_REPLICATES = 10**6
# Largest mean ground count of one replicate, intensity x window length (c x
# ground window length for a cluster measure): a replicate's lattice frames,
# one per 700 of mean, are laid out at load, and a block holds at least one
# replicate.  The shipped and benchmark specs stay below 100, the test specs
# at or below 100,000.
MAX_GROUND_MEAN = 10**6

_MARKED = ("split", "mark")
_CLUSTER = ("sushi", "id")
# the tests that read integer counts, refused at load on a cluster law that
# hangs a non-integer weight
_INTEGER_TESTS = ("poisson_gof", "dispersion", "two_sample_vs")
_WINDOW = (True, parse_window)
# the item parameters any test may name, as {key: (required, check)}
_ANY_ITEM = {"window": (False, parse_window), "replicates": (False, _replicates),
             "level": (False, _level), "must_pass": (False, _boolean),
             "raw": (False, _boolean)}

# Each test: its runner, the constructions that can run it, and the item
# parameters it reads as {key: (required, check)}, besides those of
# _ANY_ITEM.  A test suits only some constructions when it correlates
# split or marked components, needs the orbit coding or second sampler of
# a cluster measure, a closed-form variance, or simple points (``free``).
# A split sample is its whole marked realization, so split and mark run
# the same tests: every one but the cluster tests.  ExperimentSpec.from_dict
# applies all this before any sampling, and _check_selectors the checks
# that depend on the construction.
_TESTS: dict[str, tuple[Callable, tuple[str, ...], dict]] = {
    "poisson_gof": (_run_poisson_gof, CONSTRUCTIONS,
                    {"mean": (False, lambda v: v == "empirical" or as_rat(v))}),
    "intensity": (_run_intensity, CONSTRUCTIONS, {"target": (False, as_rat)}),
    "dispersion": (_run_dispersion, CONSTRUCTIONS,
                   {"alternative": (False, _alternative)}),
    "covariance": (_run_covariance, CONSTRUCTIONS, {"A": _WINDOW, "B": _WINDOW}),
    "mixed_moment": (_run_mixed_moment, _MARKED,
                     {"groupings": (True, lambda g: list(map(_parse_windows, g)))}),
    "cross_correlation": (_run_cross_correlation, _MARKED, {}),
    "dissociation": (_run_dissociation, _MARKED, {"K": (False, _int_in(0, MAX_K))}),
    "free": (_run_free, ("poisson", "thin", *_MARKED),
             {"K": (False, _int_in(1, MAX_K))}),
    "moment_fit": (_run_moment_fit, CONSTRUCTIONS, {"n": (False, _int_in(2, 3))}),
    "diagonal_weight": (_run_diagonal_weight, CONSTRUCTIONS,
                        {"n": (False, _int_in(1, 4)),
                         "depth": (False, _int_in(0, 12))}),
    "round_trip": (_run_round_trip, _CLUSTER, {"K_max": (False, _int_in(0))}),
    "two_sample_vs": (_run_two_sample_vs, _CLUSTER, {}),
    "variance": (_run_variance, ("poisson", *_MARKED, *_CLUSTER), {}),
    "cesaro": (_run_cesaro, CONSTRUCTIONS,
               {"windows": (True, _parse_windows),
                "L": (False, _int_in(1, MAX_K))}),
}


@dataclass(frozen=True)
class RunManifest:
    """Everything a run produced; identical across reruns except wall time."""

    name: str
    spec_hash: str
    version: str
    reports: tuple[TestReport, ...]
    item_outcomes: tuple[dict, ...]
    exit_status: int
    wall_time_s: float

    def to_dict(self, with_wall_time: bool = True) -> dict:
        d = {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "artifact_version": self.version,
            "reports": [r.to_dict() for r in self.reports],
            "items": list(self.item_outcomes),
            "exit_status": self.exit_status,
        }
        if with_wall_time:
            d["wall_time_s"] = self.wall_time_s
        return d

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        (out / "reports").mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        for i, rep in enumerate(self.reports):
            slug = "".join(ch if ch.isalnum() else "_" for ch in rep.name)
            path = out / "reports" / f"{i:03d}_{slug}.json"
            path.write_text(
                json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
            )


def _write_raw(out_dir, idx: int, test: str, raw: RawData) -> None:
    raw_dir = Path(out_dir) / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    for key, arr in raw.items():
        path = raw_dir / f"{idx:03d}_{test}_{key}.csv"
        with path.open("w") as fh:
            fh.write(f"replicate,{key}\n")
            for r, v in enumerate(np.asarray(arr).ravel()):
                fh.write(f"{r},{v!r}\n")


def run(spec: ExperimentSpec, threads: int = 1, out_dir=None,
        write_raw: bool = False) -> RunManifest:
    """Execute the spec's battery; optionally write manifest/report files.

    Battery item i draws from the dedicated stream Rng(seed, i + 1), so
    items are independent and insertion-order stable.  exit_status is 0
    iff every must_pass item met its expectation ("pass" by default;
    counterexample items declare expect="reject").  ``threads`` is accepted
    for compatibility and has no effect.
    """
    start = time.monotonic()
    plan = _build_plan(spec)
    reports: list[TestReport] = []
    outcomes: list[dict] = []
    status = 0
    for i, item in enumerate(spec.battery):
        runner = _TESTS[item["test"]][0]
        item_rng = Rng(spec.seed, i + 1)
        try:
            reps, raw = runner(plan, spec, item, item_rng)
        except OrbitError as exc:  # a point no load check could foresee
            exc.args = (f"battery[{i}]: {exc}",)
            raise
        reports.extend(reps)
        expect = item.get("expect", "pass")
        met = all(r.decision == expect for r in reps)
        must = bool(item.get("must_pass", True))
        if must and not met:
            status = 1
        outcomes.append({
            "index": i,
            "test": item["test"],
            "expect": expect,
            "must_pass": must,
            "met": met,
            "reports": [r.name for r in reps],
        })
        if out_dir is not None and (write_raw or item.get("raw")):
            _write_raw(out_dir, i, item["test"], raw)
    manifest = RunManifest(
        name=spec.name,
        spec_hash=spec.spec_hash(),
        version=ARTIFACT_VERSION,
        reports=tuple(reports),
        item_outcomes=tuple(outcomes),
        exit_status=status,
        wall_time_s=time.monotonic() - start,
    )
    if out_dir is not None:
        manifest.write(out_dir)
        _dump_realization(plan, spec, Path(out_dir) / "raw")
    return manifest


def _dump_realization(plan: _Plan, spec: ExperimentSpec, raw_dir: Path) -> None:
    """One seeded realization CSV per construction output, for inspection."""
    raw_dir.mkdir(parents=True, exist_ok=True)
    sample = plan.sample(Rng(spec.seed, 0))
    if plan.kind == "split":
        files = {f"realization_component{j}.csv": project_mark_set(sample, {j})
                 for j in range(sample.mark_count)}
    else:
        files = {f"realization{'_marks' if plan.kind == 'mark' else ''}.csv": sample}
    for name, c in files.items():
        with (raw_dir / name).open("w") as fh:  # a mark file names no intensity
            dump_csv(c, fh, seed=spec.seed, stream_id=0,
                     intensity=None if plan.kind == "mark" else plan.intensity)


# ---------------------------------------------------------------------------
# shipped preset batteries

_PAIR_LAW_ROWS = [{"prob": "1", "weights": {"0": "1", "1": "1"}}]
_MIXED_LAW_ROWS = [
    {"prob": "1/2", "weights": {"0": "2"}},
    {"prob": "1/2", "weights": {"0": "1", "1": "1"}},
]

BATTERY_PRESETS: dict[str, dict] = {
    "splitting-independence": {
        "name": "splitting-independence",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,10)",
        "construction": "split",
        "params": {"probs": ["1/2", "1/2"]},
        "replicates": 4000,
        "seed": 20260823,
        "battery": [
            {"test": "poisson_gof", "component": 0},
            {"test": "poisson_gof", "component": 1},
            {"test": "mixed_moment", "groupings": [["[0,10)"], ["[0,10)"]]},
            {"test": "cross_correlation", "pair": [0, 1]},
            {"test": "dissociation", "K": 8, "replicates": 2000},
        ],
    },
    "thinning-counterexample": {
        "name": "thinning-counterexample",
        "transformation": "translation",
        "intensity": "1",
        "window": "[-1,51)",
        "construction": "thin",
        "params": {"kappa": "1"},
        "replicates": 4000,
        "seed": 20260823,
        "battery": [
            {"test": "intensity"},
            {"test": "dispersion", "alternative": "under", "level": 0.001,
             "expect": "reject"},
            {"test": "poisson_gof", "mean": "empirical", "expect": "reject",
             "must_pass": False},
        ],
    },
    "sushi-identities": {
        "name": "sushi-identities",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,8)",
        "construction": "sushi",
        "params": {"c": "1/2", "law": _PAIR_LAW_ROWS},
        "replicates": 3000,
        "seed": 20260823,
        "battery": [
            {"test": "intensity"},
            {"test": "variance"},
            {"test": "round_trip", "K_max": 2, "replicates": 300},
        ],
    },
    "moment-decomposition": {
        "name": "moment-decomposition",
        "transformation": "translation",
        "intensity": "1/2",
        "window": "[-9,3)",
        "construction": "poisson",
        "replicates": 20000,
        "seed": 20260823,
        "battery": [
            {"test": "moment_fit", "n": 2},
            {"test": "diagonal_weight", "n": 2, "depth": 6,
             "window": "[0,1)", "replicates": 4000},
            {"test": "cesaro", "windows": ["[0,1)", "[0,1)"], "K": [0],
             "L": 8, "replicates": 3000},
        ],
    },
    "id-identities": {
        "name": "id-identities",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,8)",
        "construction": "id",
        "params": {"c": "1/2", "law": _MIXED_LAW_ROWS},
        "replicates": 3000,
        "seed": 20260823,
        "battery": [
            {"test": "intensity"},
            {"test": "variance"},
            {"test": "two_sample_vs", "other": "sushi", "level": 0.001},
        ],
    },
}


def list_presets() -> list[tuple[str, str]]:
    """(name, description) rows: transformations first, then batteries."""
    rows = [(name, f"transformation: {desc}")
            for name, desc in TRANSFORMATION_PRESETS.items()]
    for name, d in BATTERY_PRESETS.items():
        tests = ", ".join(it["test"] for it in d["battery"])
        rows.append((name, f"battery: {d['construction']} + {tests}"))
    return rows


def preset_spec(name: str) -> ExperimentSpec:
    if name not in BATTERY_PRESETS:
        raise ValueError(f"unknown battery preset {name!r}")
    return ExperimentSpec.from_dict(BATTERY_PRESETS[name])
