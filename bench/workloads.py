"""The benchmark's workloads: which batteries each runs, and their golden hashes.

Every battery is pinned to seed 20260823, so its output is a pure function
of its spec and is checked against a golden hash recorded at the commit that
defined the benchmark.  The benchmark's own ``--seed`` chooses the order in
which a workload's batteries run; it never reaches a battery's spec.

This module imports nothing from sushilab, so a worker can import it before
it times ``import sushilab``.
"""

SEED = 20260823

# The five shipped BATTERY_PRESETS, in their shipped order.
PRESETS = (
    "splitting-independence",
    "thinning-counterexample",
    "sushi-identities",
    "moment-decomposition",
    "id-identities",
)

# Rank-one specs: the cost sits in the chacon3 machine, point counts are tiny.
CHACON3_SPECS = {
    "chacon3-split": {
        "name": "chacon3-split",
        "transformation": "chacon3",
        "intensity": "8",
        "window": "[0,1)",
        "construction": "split",
        "params": {"probs": ["1/2", "1/2"]},
        "replicates": 1000,
        "seed": SEED,
        "battery": [
            {"test": "dissociation", "K": 8, "replicates": 400},
            {"test": "intensity", "component": 0},
            {"test": "cross_correlation", "pair": [0, 1]},
        ],
    },
    "chacon3-sushi": {
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
        "seed": SEED,
        "battery": [
            {"test": "intensity"},
            {"test": "variance"},
            {"test": "round_trip", "K_max": 3, "replicates": 250},
        ],
    },
}

# via "run": experiment.run(spec, threads=1) in memory.
# via "cli": sushilab.cli.main(["run", name, "--threads", "2", "--out", dir, "--raw"]).
# runs: the fewest untraced runs one invocation makes, whatever --seconds is.
# cli-threads2 makes three, because its two executor threads hand the GIL
# back and forth, so one run of it moves most with the load on the host.
WORKLOADS = {
    "presets-serial": {"via": "run", "runs": 1, "batteries": PRESETS},
    "chacon3-orbits": {"via": "run", "runs": 1, "batteries": tuple(CHACON3_SPECS)},
    "cli-threads2": {"via": "cli", "runs": 3,
                     "batteries": ("sushi-identities", "id-identities")},
}

ALL_BATTERIES = PRESETS + tuple(CHACON3_SPECS)

CLI_THREADS = 2

# Every battery must end with this manifest exit status.
EXPECTED_EXIT_STATUS = 0

# First 12 hex digits of
# sha256(json.dumps(run(spec).to_dict(with_wall_time=False), sort_keys=True)).
# The CLI's manifest.json, less wall_time_s, must hash to the same value.
GOLDEN_MANIFEST = {
    "splitting-independence": "9d28726deafb",
    "thinning-counterexample": "223d3ea77336",
    "sushi-identities": "790287ee9268",
    "moment-decomposition": "11e361df3ea4",
    "id-identities": "1f50bbccae47",
    "chacon3-split": "c91a41b8186b",
    "chacon3-sushi": "10a9eb050c03",
}

# First 12 hex digits of the sha256 of the bytes of every file under the
# CLI's raw/ and reports/ directories, concatenated in sorted path order.
# Equal to the output of the same command at --threads 1.
GOLDEN_ARTIFACTS = {
    "sushi-identities": "86e2efb7e0f3",
    "id-identities": "142a12965c16",
}


def replicates(spec):
    """Replicates requested by the spec's battery items, summed."""
    return sum(int(item.get("replicates", spec["replicates"]))
               for item in spec["battery"])
