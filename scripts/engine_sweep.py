"""Exactness sweep: the fast simulator engine against the reference.

Lowers every sample of a dataset profile at every team size, runs the
lowered program on both engines (:func:`repro.sim.engine.run_lowered`,
which takes the fast engine, and :func:`repro.sim.engine.run_reference`)
and compares their ``ClusterCounters`` field by field.  Prints the
number of simulations, the mismatches, and each engine's host time per
team size; exits 1 on any mismatch.

This is the gate the fast engine was landed on, too slow for tier-1
(the ``quick`` grid is 2688 simulations, a few minutes serial)::

    PYTHONPATH=src python scripts/engine_sweep.py --profile quick
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.dataset.registry import all_kernel_specs
from repro.dataset.spec import enumerate_samples, profile_sizes
from repro.platform.config import ClusterConfig
from repro.sim.engine import lower_kernel, run_lowered, run_reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="quick")
    args = parser.parse_args(argv)

    config = ClusterConfig()
    teams = range(1, config.n_cores + 1)
    fast_s = dict.fromkeys(teams, 0.0)
    ref_s = dict.fromkeys(teams, 0.0)
    runs = mismatches = 0
    for spec in enumerate_samples(all_kernel_specs(),
                                  profile_sizes(args.profile)):
        kernel = spec.build()
        for team in teams:
            lowered = lower_kernel(kernel, team, config)
            start = time.perf_counter()
            fast = run_lowered(lowered, config).as_dict()
            mid = time.perf_counter()
            ref = run_reference(lowered, config).as_dict()
            fast_s[team] += mid - start
            ref_s[team] += time.perf_counter() - mid
            runs += 1
            if fast != ref:
                mismatches += 1
                print(f"MISMATCH {spec.sample_id} team {team}")

    print(f"{runs} simulations, {mismatches} mismatches")
    print("team  fast_s  reference_s  speedup")
    for team in teams:
        print(f"{team:4d} {fast_s[team]:7.2f} {ref_s[team]:12.2f} "
              f"{ref_s[team] / fast_s[team]:8.2f}x")
    total_fast, total_ref = sum(fast_s.values()), sum(ref_s.values())
    print(f" all {total_fast:7.2f} {total_ref:12.2f} "
          f"{total_ref / total_fast:8.2f}x")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
