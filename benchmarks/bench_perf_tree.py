"""P1b — decision-tree performance: fit and predict latency.

Tracks the CART implementation's cost on the real dataset matrices.
"""

from repro.features.sets import feature_names
from repro.ml.tree import DecisionTreeClassifier


def test_tree_fit_static(dataset, benchmark):
    X = dataset.matrix(feature_names("static-all"))
    y = dataset.labels
    tree = benchmark(lambda: DecisionTreeClassifier(random_state=0)
                     .fit(X, y))
    assert tree.n_leaves() > 1


def test_tree_fit_dynamic(dataset, benchmark):
    X = dataset.matrix(feature_names("dynamic"))
    y = dataset.labels
    tree = benchmark(lambda: DecisionTreeClassifier(random_state=0)
                     .fit(X, y))
    assert tree.depth() >= 1


def test_tree_fit_dynamic_reference(dataset, benchmark):
    """The per-feature split search (re-sorts every feature at every
    node) on the same matrix: the baseline for the presorted ``fit``."""
    X = dataset.matrix(feature_names("dynamic"))
    y = dataset.labels
    tree = benchmark(lambda: DecisionTreeClassifier(random_state=0)
                     ._fit_reference(X, y))
    assert tree.depth() >= 1


def test_tree_predict(dataset, benchmark):
    X = dataset.matrix(feature_names("static-all"))
    y = dataset.labels
    tree = DecisionTreeClassifier(random_state=0).fit(X, y)
    preds = benchmark(tree.predict, X)
    assert len(preds) == len(y)
