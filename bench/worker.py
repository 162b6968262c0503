"""One run of a workload in a fresh interpreter; run.py starts it.

    python bench/worker.py <workload> <setup|run|trace> <battery,battery,...>

Times ``import sushilab`` and the building of every spec (set-up), then,
unless the mode is ``setup``, runs the batteries in the given order, one at
a time, and checks each output against its golden hash after the clock has
stopped.  In ``trace`` mode the public functions listed in layers.py are
wrapped before the specs are built, and the per-layer metrics and the span
file are produced after the run.  The last line of standard output is one
JSON object with the results.
"""

import gc
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "sushilab"


def _manifest_hash(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:12]


def _artifacts_hash(out_dir: Path) -> str:
    files = sorted(p for sub in ("raw", "reports")
                   for p in (out_dir / sub).rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def _check(name, status, manifest_hash, artifacts_hash=None):
    """None when the battery's output is as expected, else the reason."""
    if status != workloads.EXPECTED_EXIT_STATUS:
        return f"exit status {status}"
    if manifest_hash != workloads.GOLDEN_MANIFEST[name]:
        return f"manifest hash {manifest_hash}"
    if artifacts_hash is not None and artifacts_hash != workloads.GOLDEN_ARTIFACTS[name]:
        return f"artifact hash {artifacts_hash}"
    return None


def _run_in_memory(sushilab, specs, order):
    """Time experiment.run over the batteries; check outputs afterwards.

    Each spec is dropped once its battery has run, as in
    ``run(preset_spec(name))``: a chacon3 tower left alive would slow the
    garbage collector in the batteries after it, so the order would matter.
    Returns wall time, failures and the stage each machine reached.
    """
    manifests, errors, stages = {}, {}, {}
    t0 = time.perf_counter()
    for name in order:
        spec = specs.pop(name)
        try:
            manifests[name] = sushilab.run(spec, threads=1)
        except Exception as exc:  # a battery that raises counts as failed
            errors[name] = f"raised {exc!r}"
        stages[name] = getattr(spec.transformation, "stage", 0)
        del spec
    wall = time.perf_counter() - t0
    failures = {}
    for name in order:
        if name in errors:
            failures[name] = errors[name]
            continue
        m = manifests[name]
        why = _check(name, m.exit_status,
                     _manifest_hash(m.to_dict(with_wall_time=False)))
        if why:
            failures[name] = why
    return wall, failures, stages


def _run_cli(sushilab, order):
    """Time the CLI over the batteries; check the files it wrote afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        codes, errors = {}, {}
        t0 = time.perf_counter()
        for name in order:
            argv = ["run", name, "--threads", str(workloads.CLI_THREADS),
                    "--out", str(tmp / name), "--raw"]
            try:
                codes[name] = sushilab.cli.main(argv)
            except Exception as exc:
                errors[name] = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        failures = {}
        for name in order:
            if name in errors:
                failures[name] = errors[name]
                continue
            path = tmp / name / "manifest.json"
            if not path.is_file():
                failures[name] = f"exit status {codes[name]}, no manifest.json"
                continue
            manifest = json.loads(path.read_text())
            manifest.pop("wall_time_s", None)
            why = _check(name, codes[name], _manifest_hash(manifest),
                         _artifacts_hash(tmp / name))
            if why:
                failures[name] = why
        artifact_bytes = sum(p.stat().st_size for p in tmp.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return wall, failures, artifact_bytes


def _dynamics_probes(sushilab, stages):
    """Stage reached, tower height and fresh growth time per chacon3 spec.

    Height and growth time come from a fresh machine grown to the stage the
    run reached; growth is a function of the stage alone.
    """
    out = {}
    for name in workloads.CHACON3_SPECS:
        stage = stages.get(name, 0)
        levels = grow = 0
        if stage:
            fresh = sushilab.RankOneMachine(sushilab.chacon3_recipe())
            t0 = time.perf_counter()
            fresh.grow_to(stage)
            grow = time.perf_counter() - t0
            levels = fresh.tower[1]
        out[f"dynamics.stage_reached.{name}"] = stage
        out[f"dynamics.levels.{name}"] = levels
        out[f"dynamics.grow_s.{name}"] = grow
    return out


def main(argv):
    workload, mode, order = argv[0], argv[1], argv[2].split(",")
    via = workloads.WORKLOADS[workload]["via"]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sushilab
    if via == "cli":
        import sushilab.cli
    import_s = time.perf_counter() - t0
    if not Path(sushilab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sushilab was imported from {sushilab.__file__}, "
                         f"not from {SRC}")

    tracer = None
    if mode == "trace":
        import layers
        import tracing
        tracer = tracing.Tracer()
        layers.install(tracer)

    t0 = time.perf_counter()
    specs = {}
    for name in order:
        if name in workloads.CHACON3_SPECS:
            specs[name] = sushilab.ExperimentSpec.from_dict(workloads.CHACON3_SPECS[name])
        else:
            specs[name] = sushilab.preset_spec(name)
    spec_s = time.perf_counter() - t0

    result = {"import_s": import_s, "spec_s": spec_s,
              "replicates": sum(workloads.replicates(s.raw) for s in specs.values())}
    if mode != "setup":
        artifact_bytes, stages = 0, {}
        if via == "cli":
            wall, failures, artifact_bytes = _run_cli(sushilab, order)
        else:
            wall, failures, stages = _run_in_memory(sushilab, specs, order)
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update({
            "wall_s": wall,
            "attempted": len(order),
            "failures": failures,
            "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024,
            "cpu_s": own.ru_utime + own.ru_stime
                     + children.ru_utime + children.ru_stime,
        })
        if tracer is not None:
            metrics = layers.traced_metrics(tracer)
            metrics["experiment.artifact_bytes"] = artifact_bytes
            OUT.mkdir(parents=True, exist_ok=True)
            path = OUT / f"trace-{workload}.json.gz"
            tracer.write(path, {"workload": workload, "order": order,
                                "wall_s": wall, "metrics": metrics})
            result["trace_file"] = str(path.relative_to(ROOT))
            # Grow fresh machines without the spans on the heap, whose size
            # would slow the garbage collector.
            tracer.clear()
            gc.collect()
            metrics.update(_dynamics_probes(sushilab, stages))
            result["layers"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
