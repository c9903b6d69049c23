"""Tier-1 fidelity golden: the paper's headline protocol on ``unit``.

Runs ``run_headline`` (Figure 2's left panel: repeated stratified
10-fold CV over four learned feature sets, both ``*-opt`` prunings and
the always-8 baseline) on the ``unit`` dataset loaded warm from a copy
of the tracked ``.repro_cache``, and pins its outputs: the five
accuracy-vs-tolerance series, the two pruned feature lists and a sha256
of every learned series' out-of-fold prediction matrix.  The repeats
are passed explicitly and the protocol runs at one job, so the result
does not depend on ``REPRO_CV_REPEATS`` or ``REPRO_JOBS``.

Any change to tree fitting, CV splitting, feature pruning or the
tolerance metric that moves a prediction fails here; such a change must
update these values deliberately and say why.  The values equal the
``train_eval`` pin in ``perfbench/pins.json``.
"""

import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.figure2 as figure2
from repro.dataset.build import build_dataset
from repro.experiments.headline import run_headline

TRACKED_CACHE = Path(__file__).resolve().parents[1] / ".repro_cache"
LEARNED = ("static-agg", "static-opt", "dynamic", "dynamic-opt")

#: Figure 2 (left) accuracy-vs-tolerance series, seed 0, 10 repeats.
SERIES = {
    "static-agg": [
        0.8160714285714284,
        0.8348214285714285,
        0.8482142857142858,
        0.8696428571428572,
        0.8892857142857142,
        0.9062499999999998,
        0.9160714285714286,
        0.9348214285714287,
        0.94375,
    ],
    "static-opt": [
        0.8169642857142858,
        0.8366071428571429,
        0.8625,
        0.8794642857142858,
        0.9098214285714288,
        0.9339285714285713,
        0.9392857142857143,
        0.9419642857142858,
        0.94375,
    ],
    "dynamic": [
        0.7991071428571429,
        0.8464285714285715,
        0.8678571428571427,
        0.8883928571428573,
        0.8928571428571429,
        0.8982142857142857,
        0.9035714285714287,
        0.9125,
        0.91875,
    ],
    "dynamic-opt": [
        0.8151785714285713,
        0.8669642857142857,
        0.8830357142857143,
        0.9008928571428572,
        0.9026785714285713,
        0.9125,
        0.9178571428571427,
        0.9223214285714285,
        0.9258928571428571,
    ],
    "always-8": [
        0.13392857142857142,
        0.14285714285714285,
        0.22321428571428573,
        0.36607142857142855,
        0.44642857142857145,
        0.5357142857142857,
        0.5982142857142857,
        0.6964285714285714,
        0.7678571428571429,
    ],
}

#: the features each ``*-opt`` series keeps, in ranking order.
OPT_FEATURES = {
    "static-opt": [
        "op",
        "avgws",
        "tcdm",
        "RP5",
        "IPC",
        "transfer",
        "F4",
        "RBP",
        "uOPSpc",
    ],
    "dynamic-opt": [
        "PE_sleep@2",
        "PE_idle@1",
        "PE_sleep@6",
        "PE_sleep@5",
        "PE_sleep@4",
        "PE_idle@4",
        "PE_sleep@8",
        "PE_idle@6",
        "L1_conflicts@5",
        "PE_idle@5",
        "L1_conflicts@2",
        "PE_l1@1",
        "PE_sleep@3",
        "L1_conflicts@4",
        "PE_idle@2",
        "PE_idle@7",
    ],
}

#: sha256 of each learned series' (repeats x samples) prediction matrix.
PREDICTIONS = {
    "static-agg": "4434203170ef512ee141adf436548db47d4531b2278f48056d920ddda1a9068e",
    "static-opt": "6827b369d11d2def7def4a908da2fb7710bb9eb35397e2ed2af0b880767f1470",
    "dynamic": "2a78eff0f873090a570d869958aa9788c54fb6fbbed35732d160619ebd1eeb51",
    "dynamic-opt": "f7bc9d84c3d00a4403818ba8441ee589933c0be7d597b2863595b29916095532",
}


def _digest(predictions) -> str:
    matrix = np.ascontiguousarray(predictions, dtype="<i8")
    return hashlib.sha256(matrix.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """``(result, reports)`` of one seed-0 headline run; *reports* are
    the learned series' evaluation reports in panel order."""
    cache = tmp_path_factory.mktemp("golden") / "cache"
    shutil.copytree(TRACKED_CACHE, cache,
                    ignore=shutil.ignore_patterns("models"))
    dataset = build_dataset("unit", cache_dir=str(cache))
    reports = []
    original = figure2.evaluate_features

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JOBS", "1")
        patch.setattr(figure2, "evaluate_features", capture)
        result = run_headline(dataset, seed=0, repeats=10)
    return result, reports


def test_series(headline):
    result, _ = headline
    series = result.figure2.series
    assert list(series) == list(SERIES)
    for name, curve in SERIES.items():
        assert series[name] == pytest.approx(curve, rel=0, abs=1e-12), name
    assert result.learned_beats_always8


def test_opt_feature_lists(headline):
    result, _ = headline
    assert result.figure2.opt_features == OPT_FEATURES


def test_prediction_digests(headline):
    _, reports = headline
    assert len(reports) == len(LEARNED)
    for name, report in zip(LEARNED, reports):
        assert np.shape(report.predictions) == (10, 112), name
        assert _digest(report.predictions) == PREDICTIONS[name], name
