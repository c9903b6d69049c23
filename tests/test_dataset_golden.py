"""Tier-1 fidelity golden: a cold ``unit`` labelling campaign.

Builds the ``unit`` dataset from nothing (an empty cache directory, two
worker processes) and checks that every byte it writes equals the
tracked ``.repro_cache``: the labelled dataset JSON, and every
simulation-cache entry (the raw counters of all eight team sizes of
each sample).  The build runs the whole labelling pipeline: lowering,
the fast simulator engine, energy accounting, static and dynamic
features, and the largest-first parallel scheduling with its merge
back into registry order.

Any change that moves a counter, an energy, a feature or a label fails
here; such a change must regenerate the tracked cache deliberately
(and bump ``CODE_VERSION`` when simulation semantics change) and say
why.
"""

import json
from pathlib import Path

import pytest

from repro.dataset.build import build_dataset

TRACKED_CACHE = Path(__file__).resolve().parents[1] / ".repro_cache"
DATASET = "dataset_unit-112-ea0f08eafe.json"


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cold") / "cache"
    cache.mkdir()
    dataset = build_dataset("unit", cache_dir=str(cache), jobs=2)
    assert len(dataset) == 112
    return cache


def test_dataset_json_byte_identical(cold_cache):
    assert (cold_cache / DATASET).read_bytes() \
        == (TRACKED_CACHE / DATASET).read_bytes()


def test_every_sim_cache_entry_equals_tracked(cold_cache):
    fresh = sorted(p.name for p in cold_cache.iterdir()
                   if p.name != DATASET)
    tracked = sorted(p.name for p in TRACKED_CACHE.glob("*.json")
                     if p.name != DATASET)
    assert len(fresh) == 112
    assert fresh == tracked
    for name in fresh:
        entry = json.loads((cold_cache / name).read_text())
        assert entry == json.loads((TRACKED_CACHE / name).read_text()), name
