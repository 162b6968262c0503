"""The names the benchmark harness under bench/ binds in sushilab still exist.

The traced run wraps the functions listed in ``bench/layers.py`` by module
and attribute name, binds the replicate executor's arguments by name, and
the worker calls ``run`` and the CLI with ``threads`` and reads a machine's
``tower``.  A rename there would crash the benchmark and fail no other
test, so these tests read the harness's own tables and check each binding.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import sushilab
from sushilab import cli
from sushilab.experiment import BATTERY_PRESETS, ExperimentSpec
from sushilab.moments import replicate_matrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    # layers.py imports workloads as a top-level module, as the worker does
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(monkeypatch):
    layers = _load("layers", monkeypatch)
    assert layers.WRAPPED
    for module, attr, _ in layers.WRAPPED:
        obj = importlib.import_module(f"sushilab.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"sushilab.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"sushilab.{module}.{attr}"


def test_replicate_matrix_binds_the_traced_arguments():
    # the tracer binds a positional call, applies defaults, then reads and
    # replaces these four arguments by name
    bound = inspect.signature(replicate_matrix).bind(
        lambda rng: None, lambda s: [0.0], 1, 100, sushilab.Rng(1))
    bound.apply_defaults()
    assert {"sampler", "evaluate", "R", "threads"} <= set(bound.arguments)


def test_run_and_the_cli_take_threads():
    inspect.signature(sushilab.run).bind(object(), threads=1)
    args = cli._build_parser().parse_args(["run", "spec.json", "--threads", "2"])
    assert args.threads == 2


def test_rank_one_machine_exposes_its_tower():
    m = sushilab.RankOneMachine(sushilab.chacon3_recipe())
    m.grow_to(2)
    assert m.tower[1] > 0


def test_every_workload_battery_loads(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    for name in workloads.ALL_BATTERIES:
        d = BATTERY_PRESETS.get(name) or workloads.CHACON3_SPECS[name]
        assert ExperimentSpec.from_dict(d).name == name
    for w in workloads.WORKLOADS.values():
        assert set(w["batteries"]) <= set(workloads.ALL_BATTERIES)

