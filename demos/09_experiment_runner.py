"""Declarative experiments: spec in, manifest out.

A JSON-able dict names the transformation, the construction, and a
battery of checks.  Running it produces TestReports and a manifest whose
hash covers the spec; the same spec and seed reproduce every report
byte for byte.  Replicates run serially; run() accepts ``threads`` for
compatibility only.  The same runner backs the `sushi-lab run` command.
"""

import json

from sushilab import ExperimentSpec, run

spec = ExperimentSpec.from_dict({
    "name": "demo-run",
    "transformation": "translation",
    "intensity": "1",
    "window": "[0,8)",
    "construction": "sushi",
    "params": {
        "c": "1/2",
        "law": [{"prob": "1", "weights": {"0": "1", "1": "1"}}],
    },
    "battery": [
        {"test": "intensity"},
        {"test": "variance"},
        {"test": "round_trip", "K_max": 2, "replicates": 200},
        # counterexample items invert the pass criterion explicitly
        {"test": "intensity", "target": "10", "expect": "reject"},
    ],
    "replicates": 2000,
    "seed": 20260823,
})

m1 = run(spec)
m2 = run(spec)

print(f"spec hash {m1.spec_hash[:20]}...")
for rep, outcome in zip(m1.reports, m1.item_outcomes):
    print(f"  {rep.decision:7s} (expect {outcome['expect']:6s}) "
          f"p={rep.p_value:<10.4g} {rep.name}")
print(f"exit status {m1.exit_status}")

same = (json.dumps(m1.to_dict(with_wall_time=False), sort_keys=True)
        == json.dumps(m2.to_dict(with_wall_time=False), sort_keys=True))
print(f"rerun manifests identical: {same}")
