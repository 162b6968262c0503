"""The shipped preset batteries, and two rank-one specs, reproduce their
recorded manifests bit for bit, and three presets their raw artifacts.

A manifest hash is the first 12 hex digits of the sha256 of the manifest
without its wall time, as JSON with sorted keys.  Any change to the draw
order, to a sampler or to a statistic moves it.
"""

import hashlib
import json

import pytest

from sushilab.cli import main
from sushilab.experiment import ExperimentSpec, preset_spec, run

GOLDEN_MANIFEST = {
    "splitting-independence": "9d28726deafb",
    "thinning-counterexample": "223d3ea77336",
    "sushi-identities": "790287ee9268",
    "moment-decomposition": "11e361df3ea4",
    "id-identities": "1f50bbccae47",
}


# The chacon3 specs of the benchmark (bench/workloads.py): a rank-one split
# and a rank-one cluster measure, each with its manifest hash.
CHACON3_SPECS = {
    "chacon3-split": ({
        "name": "chacon3-split",
        "transformation": "chacon3",
        "intensity": "8",
        "window": "[0,1)",
        "construction": "split",
        "params": {"probs": ["1/2", "1/2"]},
        "replicates": 1000,
        "seed": 20260823,
        "battery": [
            {"test": "dissociation", "K": 8, "replicates": 400},
            {"test": "intensity", "component": 0},
            {"test": "cross_correlation", "pair": [0, 1]},
        ],
    }, "c91a41b8186b"),
    "chacon3-sushi": ({
        "name": "chacon3-sushi",
        "transformation": "chacon3",
        "intensity": "1",
        # stage-2 levels 2..10 of the chacon3 tower
        "window": "[1/9,1/3)+[4/9,8/9)+[1,11/9)+[4/3,13/9)",
        "construction": "sushi",
        "params": {
            "c": "1/2",
            "law": [{"prob": "1", "weights": {"0": "1", "1": "1"}}],
        },
        "replicates": 3000,
        "seed": 20260823,
        "battery": [
            {"test": "intensity"},
            {"test": "variance"},
            {"test": "round_trip", "K_max": 3, "replicates": 250},
        ],
    }, "10a9eb050c03"),
}


def manifest_hash(spec):
    manifest = run(spec)
    text = json.dumps(manifest.to_dict(with_wall_time=False), sort_keys=True)
    assert manifest.exit_status == 0
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("name", sorted(GOLDEN_MANIFEST))
def test_preset_manifest_hash(name):
    assert manifest_hash(preset_spec(name)) == GOLDEN_MANIFEST[name]


@pytest.mark.parametrize("name", sorted(CHACON3_SPECS))
def test_chacon3_manifest_hash(name):
    d, digest = CHACON3_SPECS[name]
    assert manifest_hash(ExperimentSpec.from_dict(d)) == digest


# First 12 hex digits of the sha256 of the bytes of every file under raw/
# and reports/ of ``sushi-lab run <preset> --out DIR --raw``, in sorted path
# order.  The raw files hold every replicate's counts, which the manifest
# only summarizes.
GOLDEN_RAW_ARTIFACTS = {
    "splitting-independence": "10acb35793c3",
    "thinning-counterexample": "9bb57a28d597",
    "moment-decomposition": "d06bf1458e39",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RAW_ARTIFACTS))
def test_preset_raw_artifact_hash(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", name, "--out", str(out), "--raw"]) == 0
    files = sorted(p for sub in ("raw", "reports")
                   for p in (out / sub).rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(p.read_bytes())
    assert h.hexdigest()[:12] == GOLDEN_RAW_ARTIFACTS[name]
