"""Command line front end: run experiment specs and inspect constructions.

Subcommands
  run             execute a spec file or shipped battery preset
  presets         list transformation recipes and battery presets
  orbit           dump an orbit segment as CSV (exact rationals)
  split           summarize an independent splitting of a Poisson sample
  thin-separation summarize hard-core separation thinning
  mark            summarize independent mark attachment
  sushi           compare a cluster measure against its closed forms

The summary subcommands turn their flags into a battery-free experiment
spec and sample through the same construction plan as `run`.  All JSON
output uses sorted keys, so repeated invocations with the same arguments
are byte-identical.  Exit status for `run` mirrors the manifest:
0 iff every must_pass battery item met its expectation.  Bad input, and an
orbit the transformation cannot resolve within its stage budget, print an
`error:` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .cluster import sushi_mean, sushi_variance, unit_intensity_c
from .experiment import (
    BATTERY_PRESETS,
    ExperimentSpec,
    _build_plan,
    _dump_realization,
    list_presets,
    preset_spec,
    resolve_transformation,
    run,
)
from .dynamics import DEFAULT_MAX_STAGE, OrbitError, orbit
from .moments import count_matrix
from .point_process import Rng
from .stats import correlation_check, dispersion_index_test
from .windows import as_rat, format_rat

__all__ = ["main"]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _report_brief(rep) -> dict:
    return {"decision": rep.decision, "p_value": rep.p_value,
            "statistic": rep.statistic}


def _json_or_text(text: str):
    """A JSON object literal parsed, anything else as the plain string."""
    return json.loads(text) if text.strip().startswith("{") else text


def _cmd_run(args) -> int:
    path = Path(args.spec)
    if path.exists():
        spec = ExperimentSpec.from_json(path.read_text())
    elif args.spec in BATTERY_PRESETS:
        spec = preset_spec(args.spec)
    else:
        raise ValueError(
            f"{args.spec!r} is neither a spec file nor a battery preset"
        )
    manifest = run(spec, out_dir=args.out, write_raw=args.raw)
    for rep in manifest.reports:
        print(f"{rep.decision:7s} p={rep.p_value:<12.6g} {rep.name}")
    print(f"spec_hash: {manifest.spec_hash}")
    print(f"exit_status: {manifest.exit_status}")
    if args.out:
        print(f"artifacts written to {args.out}")
    return manifest.exit_status


def _cmd_presets(_args) -> int:
    for name, desc in list_presets():
        print(f"{name:26s} {desc}")
    return 0


def _cmd_orbit(args) -> int:
    T = resolve_transformation(_json_or_text(args.transformation))
    rows = orbit(T, as_rat(args.x), args.k, max_stage=args.max_stage)
    print("k,x_k")
    for j, y in rows:
        print(f"{j},{format_rat(y)}")
    return 0


def _summary_spec(args, construction: str, params: dict,
                  transformation="translation"):
    """The battery-free experiment spec a summary subcommand's flags name,
    with its construction plan."""
    spec = ExperimentSpec.from_dict({
        "name": args.command,
        "transformation": transformation,
        "intensity": args.intensity,
        "window": args.window,
        "construction": construction,
        "params": params,
        "replicates": args.replicates,
        "seed": args.seed,
        "battery": [],
    })
    return spec, _build_plan(spec)


def _summary_matrix(spec, plan, columns):
    """Count matrix on Rng(seed, 1), the stream of battery item 0."""
    return count_matrix(plan.sample, columns, spec.replicates, Rng(spec.seed, 1))


def _finish(summary: dict, spec, plan, out) -> int:
    """Print the summary; with --out, write the seeded realization as
    ``run --out`` writes it under raw/."""
    _emit(summary)
    if out:
        _dump_realization(plan, spec, Path(out))
    return 0


def _cmd_split(args) -> int:
    """The split or mark summary: the rate of each component or mark."""
    kind = args.command
    key, rates = (("probs", "component_rates") if kind == "split"
                  else ("mark_probs", "mark_rates"))
    spec, plan = _summary_spec(args, kind, {key: args.probs.split(",")})
    W, probs, alpha = plan.observed, plan.probs, spec.intensity.alpha
    mat = _summary_matrix(spec, plan, [(j, W) for j in range(len(probs))])
    length = float(W.length)
    summary = {
        "window": str(W),
        "intensity": format_rat(alpha),
        key: [format_rat(p) for p in probs],
        "replicates": spec.replicates,
        "seed": spec.seed,
        rates: [float(c) / length for c in mat.mean(axis=0)],
        "target_rates": [float(alpha * p) for p in probs],
    }
    if len(probs) >= 2:
        summary["cross_correlation"] = _report_brief(
            correlation_check(mat[:, 0], mat[:, 1]))
    return _finish(summary, spec, plan, args.out)


def _cmd_thin(args) -> int:
    spec, plan = _summary_spec(args, "thin", {"kappa": args.kappa})
    core, alpha = plan.observed, spec.intensity.alpha
    mat = _summary_matrix(spec, plan, [(None, core)])
    counts = mat[:, 0].astype(int)
    a = float(alpha)
    summary = {
        "window": str(spec.window),
        "core": str(core),
        "kappa": format_rat(plan.kappa),
        "intensity": format_rat(alpha),
        "replicates": spec.replicates,
        "seed": spec.seed,
        "kept_rate": float(counts.mean()) / float(core.length),
        "target_rate": a * math.exp(-2 * float(plan.kappa) * a),
        "dispersion": _report_brief(
            dispersion_index_test(counts, alternative="under")),
    }
    return _finish(summary, spec, plan, args.out)


def _cmd_sushi(args) -> int:
    law = Path(args.law).read_text() if Path(args.law).exists() else args.law
    spec, plan = _summary_spec(args, "sushi",
                               {"c": args.c, "law": json.loads(law)},
                               transformation=_json_or_text(args.transformation))
    W, sspec = plan.observed, plan.sushi
    mean = sushi_mean(sspec, W)
    var = sushi_variance(sspec, W)
    mat = _summary_matrix(spec, plan, [(None, W)])
    masses = mat[:, 0]
    R = spec.replicates
    emp_mean = float(masses.mean())
    emp_var = float(masses.var(ddof=1))
    se = float(masses.std(ddof=1)) / math.sqrt(R)
    summary = {
        "transformation": str(plan.T),
        "window": str(W),
        "c": format_rat(sspec.c),
        "unit_c": format_rat(unit_intensity_c(sspec.law)),
        "replicates": R,
        "seed": spec.seed,
        "closed_form": {"mean": float(mean), "variance": float(var)},
        "empirical": {"mean": emp_mean, "mean_stderr": se,
                      "variance": emp_var},
        "z_mean": 0.0 if se == 0 else (emp_mean - float(mean)) / se,
    }
    return _finish(summary, spec, plan, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sushi-lab",
        description="equivariant point-process simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a spec file or battery preset")
    p.add_argument("spec", help="path to a JSON spec, or a preset name")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; replicates run serially")
    p.add_argument("--out", default=None, help="directory for artifacts")
    p.add_argument("--raw", action="store_true",
                   help="also write per-replicate CSVs for every item")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("presets", help="list shipped presets")
    p.set_defaults(fn=_cmd_presets)

    p = sub.add_parser("orbit", help="orbit segment as CSV")
    p.add_argument("transformation", help="preset name or JSON recipe block")
    p.add_argument("x", help="starting point, exact rational literal")
    p.add_argument("k", type=int, help="last power (may be negative)")
    p.add_argument("--max-stage", type=int, default=DEFAULT_MAX_STAGE)
    p.set_defaults(fn=_cmd_orbit)

    def common(p, window="[0,10)"):
        p.add_argument("--intensity", default="1")
        p.add_argument("--window", default=window)
        p.add_argument("--replicates", type=int, default=2000)
        p.add_argument("--seed", type=int, default=20260823)
        p.add_argument("--out", default=None)

    p = sub.add_parser("split", help="independent splitting summary")
    common(p)
    p.add_argument("--probs", default="1/2,1/2")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("thin-separation", help="hard-core thinning summary")
    common(p, window="[-1,51)")
    p.add_argument("--kappa", default="1")
    p.set_defaults(fn=_cmd_thin)

    p = sub.add_parser("mark", help="independent marking summary")
    common(p)
    p.add_argument("--probs", default="1/2,1/3,1/6")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("sushi", help="cluster measure vs closed forms")
    common(p, window="[0,8)")
    p.add_argument("--c", default="1/2", help="ground scale, or 'unit'")
    p.add_argument("--law",
                   default='[{"prob": "1", "weights": {"0": "1", "1": "1"}}]',
                   help="catalog rows as inline JSON or a file path")
    p.add_argument("--transformation", default="translation")
    p.set_defaults(fn=_cmd_sushi)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OrbitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
