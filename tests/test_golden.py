"""The shipped preset batteries, and two rank-one specs, reproduce their
recorded manifests bit for bit, every preset its raw artifacts, and seeded
cluster realizations their exact orbit codings; rank-one orbits and image
windows are pinned as exact text.

A manifest hash is the first 12 hex digits of the sha256 of the manifest
without its wall time, as JSON with sorted keys.  Any change to the draw
order, to a sampler or to a statistic moves it.
"""

import contextlib
import hashlib
import io
import json
import warnings
from fractions import Fraction as F

import pytest

from sushilab.cli import main
from sushilab.cluster import ClusterEntry, ClusterLaw, SushiSpec, phi_encode, sample_sushi
from sushilab.dynamics import (OrbitError, RankOneMachine, Translation, chacon3_recipe,
                               infinite_chacon_recipe)
from sushilab.experiment import ExperimentSpec, preset_spec, run
from sushilab.point_process import Rng
from sushilab.windows import parse_window

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
    "sushi-identities": "86e2efb7e0f3",
    "id-identities": "142a12965c16",
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


# First 12 hex digits of the sha256 of repr(phi_encode(v)) over seeded
# sample_sushi realizations v of the pair law {0: 1, 1: 1}: on translation,
# the sushi-identities law and window with K_max 2; on chacon3, the
# chacon3-sushi window with K_max 3, at ground scale 8 so that whole
# clusters lie inside it.  Every origin and weight is exact, so the repr
# pins the coding bit for bit.
PHI_ENCODE_CASES = {
    "translation": (Translation(1), F(1, 2), "[0,8)", 2, 60, "5bc731c71186"),
    "chacon3": (RankOneMachine(chacon3_recipe(), label="chacon3"), F(8),
                "[1/9,1/3)+[4/9,8/9)+[1,11/9)+[4/3,13/9)", 3, 30, "ba0743055c03"),
}


@pytest.mark.parametrize("name", sorted(PHI_ENCODE_CASES))
def test_phi_encode_hash(name):
    T, c, core, K_max, n, digest = PHI_ENCODE_CASES[name]
    spec = SushiSpec(c, ClusterLaw([ClusterEntry({0: 1, 1: 1}, 1)]), T)
    core = parse_window(core)
    h, clusters = hashlib.sha256(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(n):
            enc = phi_encode(sample_sushi(spec, core, Rng(20260823, seed)), T, K_max)
            clusters += len(enc)
            h.update(repr(enc).encode())
    assert clusters > n  # the pin covers many encoded clusters
    assert h.hexdigest()[:12] == digest


# Exact rank-one arithmetic: the CSV that ``sushi-lab orbit`` prints, and the
# image windows T^k w of multi-part windows, with the text of each OrbitError
# where T^k w does not resolve.  Each value is the first 12 hex digits of the
# sha256 of the text.
ORBIT_CSV = {
    ("chacon3", "97/200", "6"): "b4a8c414e642",
    ("chacon3", "1/3", "30"): "f708b6a321e7",
    ("infinite-chacon", "97/200", "40"): "c7da76c63381",
    ("infinite-chacon", "5/9", "-12"): "bc108b309a29",
}

IMAGE_WINDOWS = {
    ("chacon3", "[1/9,1/3)+[4/9,8/9)+[1,11/9)+[4/3,13/9)", tuple(range(-3, 4))):
        "9ca5e554d12d",
    ("chacon3", "[0,1/3)+[1/2,5/9)+[7/6,4/3)", (-2, -1, 1, 2)): "70c489706296",
    ("infinite-chacon", "[5/9,2/3)+[8/9,1)+[11/9,4/3)+[14/9,5/3)",
     tuple(range(-16, 21))): "09889454245d",
    ("infinite-chacon", "[2,7/3)+[3,4)+[10,12)", (-8, -3, -1, 1, 3, 8)):
        "82882583d562",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_orbit_csv_of_chacon3():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orbit", "chacon3", "97/200", "6"]) == 0
    assert out.getvalue() == ("k,x_k\n0,97/200\n1,691/600\n2,491/600\n"
                              "3,2473/1800\n4,473/1800\n5,1073/1800\n6,2273/1800\n")


@pytest.mark.parametrize("args", sorted(ORBIT_CSV))
def test_orbit_csv_hash(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["orbit", *args]) == 0
    assert _digest(out.getvalue()) == ORBIT_CSV[args]


@pytest.mark.parametrize("case", sorted(IMAGE_WINDOWS))
def test_image_window_hash(case):
    name, w, ks = case
    T = RankOneMachine(chacon3_recipe() if name == "chacon3"
                       else infinite_chacon_recipe(), label=name)
    rows = []
    for k in ks:
        try:
            rows.append(f"{k}:{T.image_window(parse_window(w), k)}")
        except OrbitError as exc:
            rows.append(f"{k}:E {exc}")
    assert _digest("\n".join(rows)) == IMAGE_WINDOWS[case]
