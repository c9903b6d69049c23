"""The labelling campaign: steps (A)-(F) of the paper's workflow.

For every sample (kernel x dtype x size):

1. build the kernel IR and extract the static features (RAW+AGG+MCA);
2. simulate it at every team size 1..8 (cached on disk);
3. integrate the Table-I energy model over each run's counters;
4. extract the Table-III dynamic features from each run;
5. label the sample with the minimum-energy team size.

The assembled :class:`Dataset` also caches itself as one JSON file, so
experiments re-open in milliseconds.

The campaign is embarrassingly parallel (one task per sample), so
:func:`build_dataset` fans it out over a process pool when ``jobs > 1``.
Workers share the on-disk :class:`SimCache` (whose writes are atomic and
collision-free) and results are merged back in spec order, so a parallel
build produces a dataset byte-identical to a serial one.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.cache import CODE_VERSION, SimCache, kernel_fingerprint
from repro.dataset.registry import all_kernel_specs
from repro.dataset.spec import SampleSpec, enumerate_samples, profile_sizes
from repro.energy.accounting import compute_energy
from repro.energy.model import EnergyModel
from repro.errors import DatasetError
from repro.features.dynamic import extract_dynamic, flatten_dynamic
from repro.features.mca import extract_mca
from repro.features.sets import sample_vector
from repro.features.static_agg import agg_from_raw
from repro.features.static_raw import extract_raw
from repro.parallel import resolve_jobs
from repro.platform.config import ClusterConfig
from repro.sim.counters import ClusterCounters
from repro.sim.engine import simulate

DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass
class Sample:
    """One labelled dataset sample."""

    sample_id: str
    kernel: str
    suite: str
    dtype: str
    size_bytes: int
    label: int                       # minimum-energy team size (1..8)
    energy_fj: list                  # E(team) for team = 1..8
    cycles: list                     # runtime(team) for team = 1..8
    static: dict = field(default_factory=dict)
    dynamic: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "sample_id": self.sample_id, "kernel": self.kernel,
            "suite": self.suite, "dtype": self.dtype,
            "size_bytes": self.size_bytes, "label": self.label,
            "energy_fj": self.energy_fj, "cycles": self.cycles,
            "static": self.static, "dynamic": self.dynamic,
        }

    @staticmethod
    def from_dict(data: dict) -> "Sample":
        return Sample(**data)


@dataclass
class Dataset:
    """The assembled, labelled dataset."""

    samples: list
    profile: str
    team_sizes: tuple = tuple(range(1, 9))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([s.label for s in self.samples], dtype=int)

    @property
    def energy_matrix(self) -> np.ndarray:
        return np.asarray([s.energy_fj for s in self.samples],
                          dtype=np.float64)

    def matrix(self, feature_names: list) -> np.ndarray:
        """Feature matrix (n_samples, n_features) for the given names."""
        rows = [sample_vector(s.static, s.dynamic, feature_names)
                for s in self.samples]
        return np.asarray(rows, dtype=np.float64)

    def class_distribution(self) -> dict[int, int]:
        dist: dict[int, int] = {team: 0 for team in self.team_sizes}
        for sample in self.samples:
            dist[sample.label] += 1
        return dist

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Atomically publish the dataset JSON (mkstemp staging, so two
        concurrent cold builds of the same profile race benignly)."""
        payload = {
            "profile": self.profile,
            "team_sizes": list(self.team_sizes),
            "samples": [s.as_dict() for s in self.samples],
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)),
            prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def load(path: str) -> "Dataset":
        with open(path) as handle:
            payload = json.load(handle)
        return Dataset(
            samples=[Sample.from_dict(s) for s in payload["samples"]],
            profile=payload["profile"],
            team_sizes=tuple(payload["team_sizes"]),
        )


def build_sample(spec: SampleSpec, config: ClusterConfig,
                 model: EnergyModel, cache: SimCache | None) -> Sample:
    """Run the full labelling pipeline for one sample."""
    kernel = spec.build()
    fingerprint = kernel_fingerprint(kernel, config)
    cached = cache.load(spec.sample_id, fingerprint) if cache else {}

    raw = extract_raw(kernel)
    static = dict(raw)
    static.update(agg_from_raw(raw))
    static.update(extract_mca(kernel))

    energies: list[float] = []
    cycles: list[int] = []
    per_team_dynamic: dict[int, dict] = {}
    teams_payload: dict[str, dict] = {}
    dirty = False
    for team in range(1, config.n_cores + 1):
        key = str(team)
        if key in cached:
            counters = ClusterCounters.from_dict(cached[key])
            teams_payload[key] = cached[key]
        else:
            counters = simulate(kernel, team, config)
            teams_payload[key] = counters.as_dict()
            dirty = True
        energies.append(compute_energy(counters, model).total)
        cycles.append(counters.cycles)
        per_team_dynamic[team] = extract_dynamic(counters)

    if cache and dirty:
        cache.store(spec.sample_id, fingerprint, teams_payload)

    label = int(np.argmin(energies)) + 1
    return Sample(
        sample_id=spec.sample_id,
        kernel=spec.kernel.name,
        suite=spec.kernel.suite,
        dtype=spec.dtype.value,
        size_bytes=spec.size_bytes,
        label=label,
        energy_fj=[float(e) for e in energies],
        cycles=[int(c) for c in cycles],
        static={k: float(v) for k, v in static.items()},
        dynamic=flatten_dynamic(per_team_dynamic),
    )


def _build_sample_task(task) -> Sample:
    """Process-pool entry point: label one sample.

    Each worker opens its own :class:`SimCache` handle on the shared
    directory; the cache's atomic, collision-free writes make that safe.
    """
    spec, config, model, cache_dir = task
    cache = SimCache(cache_dir) if cache_dir is not None else None
    return build_sample(spec, config, model, cache)


def _build_samples_parallel(sample_specs, config, model, cache_dir,
                            jobs: int, progress) -> list:
    """Fan the campaign out over *jobs* worker processes.

    Per-sample costs are long-tailed, so samples are handed out largest
    payload first (longest processing time first, stable among equal
    sizes): the big samples cannot end up queued behind the small ones
    at the end of the campaign, and the chunks handed out last hold the
    cheapest samples.  Chunks stay several samples long because every
    task is a process round trip, which a rebuild from a warm simulation
    cache (a few milliseconds per sample) would otherwise pay per
    sample.  Results are put back in *sample_specs* order, so the merged
    sample list — and therefore the saved dataset JSON — is identical
    to a serial build's.
    """
    order = sorted(range(len(sample_specs)),
                   key=lambda i: -sample_specs[i].size_bytes)
    tasks = [(sample_specs[i], config, model, cache_dir) for i in order]
    chunksize = max(1, len(tasks) // (jobs * 4))
    samples: list = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for idx, (slot, sample) in enumerate(zip(order, pool.map(
                _build_sample_task, tasks, chunksize=chunksize))):
            if progress is not None:
                progress(f"[{idx + 1}/{len(tasks)}] {sample.sample_id}")
            samples[slot] = sample
    return samples


def build_dataset(profile: str = "paper",
                  config: ClusterConfig | None = None,
                  model: EnergyModel | None = None,
                  cache_dir: str | None = DEFAULT_CACHE_DIR,
                  specs=None, progress=None,
                  jobs: int | None = None) -> Dataset:
    """Build (or reload) the labelled dataset for *profile*.

    With the default cache directory, a fully-cached rebuild takes
    seconds; cold builds simulate everything and may take minutes for
    the ``paper`` profile.

    *jobs* (default ``$REPRO_JOBS`` or 1) selects how many worker
    processes run the campaign; 0 or a negative value means one per
    CPU.  Any value produces the same dataset.
    """
    config = config or ClusterConfig()
    model = model or EnergyModel.paper_table1()
    sizes = profile_sizes(profile)
    specs = specs if specs is not None else all_kernel_specs()
    sample_specs = enumerate_samples(specs, sizes)

    dataset_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        import hashlib
        digest = hashlib.sha1(
            (f"v{CODE_VERSION}|" + config.cache_key() + "|"
             + model.cache_key()).encode()
        ).hexdigest()[:10]
        tag = f"{profile}-{len(sample_specs)}-{digest}"
        dataset_path = os.path.join(cache_dir, f"dataset_{tag}.json")
        if os.path.exists(dataset_path):
            try:
                return Dataset.load(dataset_path)
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                pass  # stale/corrupt dataset cache: rebuild below

    jobs = resolve_jobs(jobs)
    samples = None
    if jobs > 1 and len(sample_specs) > 1:
        try:
            samples = _build_samples_parallel(
                sample_specs, config, model, cache_dir, jobs, progress)
        except (pickle.PicklingError, AttributeError) as exc:
            # e.g. kernel builders defined in a non-importable scope;
            # correctness beats speed, so fall back to the serial path.
            warnings.warn(f"parallel build unavailable ({exc}); "
                          f"falling back to a serial campaign",
                          RuntimeWarning)
            samples = None
    if samples is None:
        cache = SimCache(cache_dir) if cache_dir is not None else None
        samples = []
        for idx, spec in enumerate(sample_specs):
            if progress is not None:
                progress(
                    f"[{idx + 1}/{len(sample_specs)}] {spec.sample_id}")
            samples.append(build_sample(spec, config, model, cache))

    if not samples:
        raise DatasetError("no samples were built")
    dataset = Dataset(samples=samples, profile=profile,
                      team_sizes=tuple(range(1, config.n_cores + 1)))
    if dataset_path is not None:
        dataset.save(dataset_path)
    return dataset
