"""Dataset inputs and output gates shared by the workloads.

* canonical digests of a labelled dataset (samples sorted by id, so the
  digest does not depend on the order samples were submitted in);
* the warm rebuild of the ``unit`` dataset from a copy of the tracked
  simulation cache, with a guard that nothing was simulated.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

from common import ROOT, Checks, canonical_digest

#: the simulation cache tracked in the repository (``unit`` profile).
TRACKED_CACHE = os.path.join(ROOT, ".repro_cache")


def sample_digest(sample) -> str:
    text = json.dumps(sample.as_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def dataset_pin(dataset) -> dict:
    """The pinned form of a dataset: per-sample digests plus one digest
    over the sorted samples, the profile and the team sizes."""
    samples = {s.sample_id: sample_digest(s) for s in dataset.samples}
    return {
        "profile": dataset.profile,
        "n_samples": len(dataset.samples),
        "digest": canonical_digest({
            "profile": dataset.profile,
            "team_sizes": list(dataset.team_sizes),
            "samples": sorted(samples.items()),
        }),
        "samples": dict(sorted(samples.items())),
    }


def check_dataset(checks: Checks, dataset, pin: dict, what: str) -> str:
    """Compare every sample and the whole-dataset digest with *pin*.

    Each sample is one operation; a sample that is missing, extra or
    different counts as failed.  Returns the dataset digest.
    """
    got = dataset_pin(dataset)
    want = pin["samples"]
    ids = set(want) | set(got["samples"])
    bad = sorted(i for i in ids if got["samples"].get(i) != want.get(i))
    checks.count(len(ids), len(bad), f"{what} samples differ from the "
                 f"pin (first: {bad[:3]})")
    checks.check(len(dataset.samples) == len(got["samples"]),
                 f"{what}: duplicate sample ids")
    checks.check(got["digest"] == pin["digest"],
                 f"{what}: dataset digest {got['digest'][:12]} != pinned "
                 f"{pin['digest'][:12]}")
    return got["digest"]


def sim_entries(cache_dir: str) -> dict:
    """name -> (size, mtime) of the simulation entries in *cache_dir*."""
    out = {}
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if (name.endswith(".json") and not name.startswith("dataset_")
                and os.path.isfile(path)):
            stat = os.stat(path)
            out[name] = (stat.st_size, stat.st_mtime_ns)
    return out


def copy_tracked_cache(dest: str) -> int:
    """Copy the tracked simulation entries (not the dataset file, so the
    dataset must be rebuilt) into *dest*; returns the entry count."""
    os.makedirs(dest)
    names = sim_entries(TRACKED_CACHE)
    for name in names:
        shutil.copy2(os.path.join(TRACKED_CACHE, name),
                     os.path.join(dest, name))
    return len(names)


def warm_rebuild(cache_dir: str, jobs: int):
    """Rebuild the ``unit`` dataset from a copied warm cache.

    Returns ``(dataset, seconds, warm)``; *warm* is False when the build
    simulated anything (a simulation entry was added or rewritten),
    i.e. the tracked cache was stale and set-up measured simulation.
    """
    from repro.dataset.build import build_dataset

    before = sim_entries(cache_dir)
    start = time.perf_counter()
    dataset = build_dataset("unit", cache_dir=cache_dir, jobs=jobs)
    seconds = time.perf_counter() - start
    warm = bool(before) and sim_entries(cache_dir) == before
    return dataset, seconds, warm
