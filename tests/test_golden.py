"""The shipped preset batteries reproduce their recorded manifests bit for bit.

A hash is the first 12 hex digits of the sha256 of the manifest without its
wall time, as JSON with sorted keys.  Any change to the draw order, to a
sampler or to a statistic moves it.
"""

import hashlib
import json

import pytest

from sushilab.experiment import preset_spec, run

GOLDEN_MANIFEST = {
    "splitting-independence": "9d28726deafb",
    "thinning-counterexample": "223d3ea77336",
    "sushi-identities": "790287ee9268",
    "moment-decomposition": "11e361df3ea4",
    "id-identities": "1f50bbccae47",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MANIFEST))
def test_preset_manifest_hash(name):
    manifest = run(preset_spec(name))
    text = json.dumps(manifest.to_dict(with_wall_time=False), sort_keys=True)
    assert manifest.exit_status == 0
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == GOLDEN_MANIFEST[name]
