"""Regenerate ``perfbench/pins.json``: the outputs the benchmark gates on.

Run from the root of a checkout, only when a change is *meant* to alter
the program's outputs (and say so in the change)::

    python3 perfbench/pin.py

It pins the ``quick`` campaign's dataset (per-sample digests and one
digest over the samples sorted by id), the ``unit`` dataset rebuilt
from the tracked simulation cache, and the seed-0 results of the
evaluation protocol (headline curves, pruned feature sets and the
digest of every prediction matrix).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from common import PINS_PATH, ROOT, SRC, nproc
from data import copy_tracked_cache, dataset_pin, warm_rebuild


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.dataset.build import build_dataset
    from repro.experiments.headline import run_headline

    import campaign
    import train_eval

    jobs = nproc()
    os.environ["REPRO_JOBS"] = str(jobs)
    os.environ.pop("REPRO_CV_REPEATS", None)
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench_pin-") as tmp:
        quick = build_dataset(campaign.PROFILE,
                              cache_dir=os.path.join(tmp, "quick"),
                              jobs=jobs)
        copy_tracked_cache(os.path.join(tmp, "unit"))
        unit, _, warm = warm_rebuild(os.path.join(tmp, "unit"), jobs)
        if not warm:
            raise SystemExit("the tracked .repro_cache is stale: "
                             "regenerate it before pinning")
        with train_eval.captured_reports() as reports:
            result = run_headline(unit, seed=train_eval.PINNED_SEED)
    pins = {
        "campaign_cold": dataset_pin(quick),
        "unit_dataset": dataset_pin(unit),
        "train_eval": train_eval.headline_pin(result, reports),
    }
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(PINS_PATH)}: quick "
          f"{pins['campaign_cold']['digest'][:12]}, unit "
          f"{pins['unit_dataset']['digest'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
