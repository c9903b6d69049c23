"""Presorted CART split search: differential tests against the seed's
per-feature search (``_fit_reference``), and non-finite input.

The presorted search must grow bit-identical trees, so every comparison
is on the JSON text of ``to_dict()`` (which tells ``-0.0`` from ``0.0``
and prints floats round-trip exactly) and on the raw bytes of the
feature importances.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError
from repro.ml import DecisionTreeClassifier, RandomForestClassifier

#: non-contiguous class labels, so the label encoding is exercised.
LABELS = (-3, 2, 7, 100)

finite = st.floats(allow_nan=False, allow_infinity=False)


def _column(draw, n: int) -> np.ndarray:
    kind = draw(st.sampled_from(["constant", "ties", "ulp", "any"]))
    if kind == "constant":
        return np.full(n, draw(finite))
    if kind == "any":
        return np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    if kind == "ties":
        pool = draw(st.lists(finite, min_size=1, max_size=3))
    else:
        # one-ulp neighbours (towards zero, so never past the finite range)
        base = draw(finite)
        pool = [base, np.nextafter(base, 0.0)]
        pool.append(np.nextafter(pool[-1], 0.0))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64)


@st.composite
def training_sets(draw):
    """``(X, y, params)``: small data full of ties, duplicate rows,
    constant columns and one-ulp gaps, plus tree hyper-parameters."""
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    X = np.column_stack([_column(draw, n) for _ in range(n_features)])
    copies = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in draw(st.lists(copies, max_size=6)):
        X[dst] = X[src]  # duplicate rows, possibly with another label
    classes = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                            unique=True))
    y = np.array(draw(st.lists(st.sampled_from(classes), min_size=n,
                               max_size=n)))
    params = {
        "max_depth": draw(st.one_of(st.none(), st.integers(1, 4))),
        "min_samples_split": draw(st.integers(2, 6)),
        "min_samples_leaf": draw(st.integers(1, 4)),
        "max_features": draw(st.one_of(
            st.none(), st.integers(1, n_features),
            st.sampled_from(["sqrt", "log2"]))),
        "random_state": draw(st.integers(0, 2**31 - 1)),
    }
    return X, y, params


def _text(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def _assert_identical(fast, ref) -> None:
    assert _text(fast) == _text(ref)
    assert (fast.feature_importances_.tobytes()
            == ref.feature_importances_.tobytes())


class TestMatchesReference:
    @given(training_sets())
    @settings(max_examples=300, deadline=None)
    def test_tree(self, case):
        X, y, params = case
        # midpoints of huge neighbours may overflow; both searches
        # compute (and handle) them the same way
        with np.errstate(over="ignore"):
            fast = DecisionTreeClassifier(**params).fit(X, y)
            ref = DecisionTreeClassifier(**params)._fit_reference(X, y)
        _assert_identical(fast, ref)
        assert fast.n_nodes_ == ref.n_nodes_

    def test_no_features_is_one_leaf(self):
        X, y = np.zeros((6, 0)), np.array([2, 7, 7, 2, 7, 7])
        fast = DecisionTreeClassifier().fit(X, y)
        ref = DecisionTreeClassifier()._fit_reference(X, y)
        _assert_identical(fast, ref)
        assert fast.n_leaves() == 1

    def test_forest(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 4, size=(80, 6)).astype(float)
        X[:, 2] = 1.5  # a constant column
        y = np.array(LABELS)[rng.integers(0, len(LABELS), size=80)]
        params = {"n_estimators": 12, "min_samples_leaf": 2,
                  "random_state": 11}
        fast = RandomForestClassifier(**params).fit(X, y)
        monkeypatch.setattr(DecisionTreeClassifier, "fit",
                            DecisionTreeClassifier._fit_reference)
        ref = RandomForestClassifier(**params).fit(X, y)
        _assert_identical(fast, ref)


class TestThreshold:
    def test_one_ulp_neighbours_split_on_the_lower_value(self):
        # the midpoint of lo (odd last mantissa bit) and its upper
        # neighbour rounds up to hi, which would send every row left
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        X = np.array([[lo], [hi]] * 3)
        y = np.array([2, 7] * 3)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.to_dict()["nodes"]["threshold"][0] == lo
        assert (tree.predict(X) == y).all()


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tree_rejects(self, bad):
        X = np.arange(12.0).reshape(6, 2)
        X[3, 1] = bad
        with pytest.raises(MLError, match="NaN or infinite"):
            DecisionTreeClassifier().fit(X, [1, 1, 1, 2, 2, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forest_rejects(self, bad):
        # the one bootstrap sample of random_state=2 misses row 0, so
        # only the forest's own up-front check can see the bad value
        X = np.arange(40.0).reshape(20, 2)
        X[0, 0] = bad
        forest = RandomForestClassifier(n_estimators=1, random_state=2)
        with pytest.raises(MLError, match="NaN or infinite"):
            forest.fit(X, [1, 2] * 10)
