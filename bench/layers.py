"""The layers the traced run measures.

WRAPPED lists the public functions whose calls become spans, with the
statistics reported for each as ``<module>.<Class.>function.<stat>``.
catalogue() is the complete, ordered list of per-layer metrics; the
per_layer list of BENCHMARK.json is this list.
"""

import sys

from workloads import ALL_BATTERIES, CHACON3_SPECS

WRAPPED = (
    ("windows", "Window.__contains__", ("calls", "self_s")),
    ("windows", "Window.__init__", ("calls", "self_s")),
    ("windows", "Window.intersect", ("calls", "self_s")),
    ("windows", "Window.difference", ("calls", "self_s")),
    ("dynamics", "RankOneMachine.apply", ("calls", "self_s")),
    ("dynamics", "RankOneMachine.image_window", ("calls", "self_s")),
    ("dynamics", "Translation.apply", ("calls",)),
    ("dynamics", "Translation.image_window", ("calls",)),
    ("point_process", "Rng.__init__", ("calls", "self_s")),
    ("point_process", "poisson_cdf_table", ("calls", "self_s")),
    ("point_process", "sample_poisson", ("calls", "self_s", "points")),
    ("point_process", "count", ("calls", "self_s")),
    ("point_process", "count_replicates", ("self_s",)),
    ("point_process", "dissociation_check", ("self_s",)),
    ("point_process", "dump_csv", ("calls", "self_s")),
    ("split_mark", "separation_thin", ("calls", "self_s")),
    ("split_mark", "project_mark_set", ("calls", "self_s")),
    ("split_mark", "attach_marks", ("self_s",)),
    ("cluster", "sample_sushi", ("self_s",)),
    ("cluster", "sample_id_measure", ("self_s",)),
    ("cluster", "phi_encode", ("calls", "self_s")),
    ("cluster", "phi_decode", ("self_s",)),
    ("cluster", "sushi_variance", ("self_s",)),
    ("moments", "replicate_matrix",
     ("calls", "rows", "self_s", "busy_s", "parallel_efficiency")),
    ("moments", "fit_partition_decomposition", ("self_s",)),
    ("moments", "diagonal_weight", ("self_s",)),
    ("stats", "poisson_gof", ("self_s",)),
    ("stats", "dispersion_index_test", ("self_s",)),
    ("stats", "mixed_moment_factorization", ("self_s",)),
    ("stats", "cesaro_factorization", ("self_s",)),
    ("stats", "two_sample_count_test", ("self_s",)),
    ("stats", "variance_check", ("self_s",)),
    ("stats", "z_test_report", ("self_s",)),
    # experiment.run is reported per battery, as experiment.run.<battery>.total_s
    ("experiment", "run", ()),
    ("experiment", "ExperimentSpec.from_dict", ("total_s",)),
    ("experiment", "RunManifest.write", ("total_s",)),
    ("cli", "main", ("total_s",)),
)

_UNITS = {
    "parallel_efficiency": "share", "stage_reached": "stage",
    "artifact_bytes": "bytes", "replicates_per_s": "1/s",
}
_HIGHER = {"parallel_efficiency", "replicates_per_s"}


def _entry(name, stat):
    unit = _UNITS.get(stat, "s" if stat.endswith("_s") else "count")
    return {"name": name, "unit": unit,
            "better": "higher" if stat in _HIGHER else "lower"}


def catalogue():
    """Every per-layer metric as {name, unit, better}, in report order."""
    out = []
    for module, attr, stats in WRAPPED:
        if attr == "run":
            out += [_entry(f"experiment.run.{b}.total_s", "total_s")
                    for b in ALL_BATTERIES]
        out += [_entry(f"{module}.{attr}.{s}", s) for s in stats]
    for stat in ("stage_reached", "levels", "grow_s"):
        out += [_entry(f"dynamics.{stat}.{spec}", stat) for spec in CHACON3_SPECS]
    out += [_entry("experiment.artifact_bytes", "artifact_bytes"),
            _entry("experiment.replicates_per_s", "replicates_per_s")]
    out += [_entry(name, name.rsplit(".", 1)[1]) for name in
            ("setup.import_s", "setup.spec_s", "process.cpu_s", "trace.overhead_s")]
    return out


def install(tracer):
    """Wrap every WRAPPED function of the loaded sushilab modules.

    A function is rebound in every sushilab namespace that holds it, since
    modules import each other's functions by name; a method is rebound on
    its class.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "sushilab" or n.startswith("sushilab.")]
    for module, attr, _ in WRAPPED:
        mod = sys.modules.get(f"sushilab.{module}")
        if mod is None:
            continue
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        orig = getattr(mod, attr)
        if attr == "replicate_matrix":
            wrapped = tracer.wrap_executor(name, orig)
        elif attr == "sample_poisson":
            wrapped = tracer.wrap(name, orig,
                                  count=(f"{name}.points", lambda c: len(c.points)))
        elif attr == "run":
            wrapped = tracer.wrap(name, orig, name_of=_run_span)
        else:
            wrapped = tracer.wrap(name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)


def _run_span(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"experiment.run.{spec.name}"


def traced_metrics(tracer):
    """Per-layer values the tracer can give, keyed by metric name."""
    totals = tracer.totals()
    counters = tracer.counters()
    out = {}
    for module, attr, stats in WRAPPED:
        name = f"{module}.{attr}"
        calls, total_ns, self_ns = totals.get(name, (0, 0, 0))
        values = {"calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9}
        if attr == "sample_poisson":
            values["points"] = counters.get(f"{name}.points", 0)
        if attr == "replicate_matrix":
            busy = counters.get(f"{name}.busy_ns", 0)
            capacity = counters.get(f"{name}.capacity_ns", 0)
            values["rows"] = counters.get(f"{name}.rows", 0)
            values["busy_s"] = busy / 1e9
            values["parallel_efficiency"] = busy / capacity if capacity else 0.0
        for s in stats:
            out[f"{name}.{s}"] = values[s]
    for b in ALL_BATTERIES:
        out[f"experiment.run.{b}.total_s"] = \
            totals.get(f"experiment.run.{b}", (0, 0, 0))[1] / 1e9
    return out
