"""CART decision tree with gini impurity (numpy implementation).

Supports the knobs the reproduction needs: depth/leaf-size limits,
per-node feature subsampling (for the random forest), deterministic
tie-breaking, gini feature importances normalised to sum to one.

Fitting uses a *presorted* split search.  ``fit`` argsorts every
feature once with a stable sort, and each node carries an
``(n_features, n_node)`` matrix of its row indices, one row per feature
in that feature's sorted order.  A stable boolean partition of that
matrix gives each child's matrix: a stable partition of a stable sort
equals a stable sort of the subset, so no node re-sorts.  At a node all
candidate features are scored at once with whole-array operations: the
left/right sums of squared class counts are accumulated class by class
from int64 cumulative sums (temporaries stay O(n_node * n_features)),
the gini gains follow elementwise, invalid cuts (equal neighbours, leaf
size bounds) are masked to ``-inf``, and the first argmax per feature
then across features picks the split.

The search is exact, not approximate.  Class counts are integers, so
the sums of squares are exact in any summation order and convert to
float64 exactly (while n_node**2 < 2**53, i.e. below ~9e7 rows per
node, the same bound as the per-feature search's float counts).  The
gains are the same float64 expressions as in the per-feature search,
evaluated elementwise, and first-argmax picks the same cut as a
sequential scan that replaces the best only on a strictly greater
gain.  Thresholds, importances and the random feature draws happen in
the same node order, so the trees are bit-identical to those of the
per-feature search that re-sorts every feature at every node, which is
kept as ``_fit_reference`` for differential tests and benchmarks.

Prediction is *batched*: after fitting, the tree is flattened into
numpy index arrays (feature, threshold, left/right child per node) and
all rows descend the tree together, one level per iteration, instead of
one Python loop per row.  The row-wise reference implementation is kept
(``_predict_rowwise``) for equivalence tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MLError

#: a split must improve the node's gini by more than this.
_MIN_GAIN = 1e-12


class _Node:
    """One tree node; leaves carry a class distribution."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(
        self,
        feature: int = -1,
        threshold: float = 0.0,
        left=None,
        right=None,
        value=None,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total <= 0:
        return 0.0
    p = class_counts / total
    return float(1.0 - np.dot(p, p))


def _threshold(below: float, above: float) -> float:
    """Split threshold between two adjacent distinct sorted values."""
    threshold = (below + above) / 2.0
    if threshold >= above:
        # adjacent values one ulp apart: the midpoint rounds up and
        # would send every sample left — split on the lower value
        # instead so both children are non-empty
        threshold = below
    return float(threshold)


def require_finite(X: np.ndarray) -> None:
    """Reject training input holding NaN or +-inf.

    A NaN compares false against every threshold (its row would be
    routed right silently) and an infinite value can become an infinite
    threshold, which strict JSON artifacts cannot carry.
    """
    if not np.isfinite(X).all():
        raise MLError("X holds NaN or infinite values")


class DecisionTreeClassifier:
    """CART classifier (gini criterion, binary splits on thresholds)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise MLError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise MLError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self.n_nodes_: int = 0

    # -- fitting ------------------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y_enc, n_feat = self._prepare(X, y)
        self._root = self._grow(X, y_enc, n_feat)
        return self._finish()

    def _prepare(self, X, y) -> tuple[np.ndarray, np.ndarray, int]:
        """Validate the training data and reset the fitting state;
        returns ``(X, encoded y, features drawn per node)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise MLError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise MLError(f"X and y disagree: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise MLError("cannot fit on an empty dataset")
        require_finite(X)

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        self._rng = np.random.default_rng(self.random_state)
        self._importance = np.zeros(self.n_features_)
        self._n_total = len(X)
        self.n_nodes_ = 0
        return X, y_enc, self._resolve_max_features()

    def _finish(self) -> "DecisionTreeClassifier":
        self._flatten()
        total = self._importance.sum()
        if total > 0:
            self.feature_importances_ = self._importance / total
        else:
            self.feature_importances_ = self._importance.copy()
        return self

    def _resolve_max_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features == "log2":
            return max(1, int(np.log2(self.n_features_)))
        n = int(self.max_features)
        if not 1 <= n <= self.n_features_:
            raise MLError(f"max_features {n} outside [1, {self.n_features_}]")
        return n

    def _splittable(self, node_gini: float, n: int, depth: int) -> bool:
        if node_gini <= 0.0 or n < self.min_samples_split:
            return False
        return self.max_depth is None or depth < self.max_depth

    def _candidates(self, n_feat: int) -> np.ndarray:
        """The features one node searches (sorted), drawn from the rng
        when ``max_features`` subsamples them."""
        if n_feat == self.n_features_:
            return np.arange(self.n_features_)
        candidates = self._rng.choice(self.n_features_, size=n_feat, replace=False)
        candidates.sort()
        return candidates

    def _grow(self, X: np.ndarray, y: np.ndarray, n_feat: int) -> _Node:
        """Grow the tree iteratively (degenerate data can produce paths
        hundreds of nodes deep, beyond Python's recursion limit), each
        node carrying its presorted row-index matrix."""
        if not self.n_features_:  # nothing to split on: a single leaf
            self.n_nodes_ = 1
            counts = np.bincount(y, minlength=self._n_classes)
            return _Node(value=counts.astype(float))
        xt = np.ascontiguousarray(X.T)
        goes_left = np.zeros(len(y), dtype=bool)
        root = _Node()
        stack = [(np.argsort(xt, axis=1, kind="mergesort"), 0, root)]
        while stack:
            rows, depth, node = stack.pop()
            self.n_nodes_ += 1
            members = rows[0]
            n = len(members)
            counts = np.bincount(y[members], minlength=self._n_classes)
            value = counts.astype(float)
            node_gini = _gini(value)

            split = None
            if self._splittable(node_gini, n, depth):
                split = self._best_split(xt, y, rows, counts, node_gini, n_feat)
            if split is None:
                node.value = value
                continue

            feature, threshold, gain = split
            to_left = xt[feature, members] <= threshold
            n_left = int(to_left.sum())
            if n_left == 0 or n_left == n:  # degenerate split: leaf
                node.value = value
                continue
            self._importance[feature] += (n / self._n_total) * gain
            node.feature = feature
            node.threshold = threshold
            node.left = _Node()
            node.right = _Node()
            goes_left[members] = to_left
            left = goes_left[rows]
            stack.append((rows[left].reshape(-1, n_left), depth + 1, node.left))
            right_rows = rows[~left].reshape(-1, n - n_left)
            stack.append((right_rows, depth + 1, node.right))
        return root

    def _best_split(
        self,
        xt: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        node_gini: float,
        n_feat: int,
    ):
        """Score every cut of every candidate feature at once.

        *rows* is the node's presorted ``(n_features, n)`` row-index
        matrix; column ``i`` of the per-feature arrays below is the cut
        leaving ``i + 1`` samples on the left.
        """
        n = rows.shape[1]
        candidates = self._candidates(n_feat)
        if n_feat < self.n_features_:
            rows = rows[candidates]
        values = xt[candidates[:, None], rows]
        labels = y[rows[:, :-1]]
        n_left = np.arange(1, n)
        min_leaf = self.min_samples_leaf
        valid = values[:, :-1] < values[:, 1:]
        valid &= (n_left >= min_leaf) & (n_left <= n - min_leaf)

        # class counts are integers: the sums of squares are exact
        sq_left = np.zeros(labels.shape, dtype=np.int64)
        sq_right = np.zeros(labels.shape, dtype=np.int64)
        for k in np.nonzero(counts)[0]:
            left = np.cumsum(labels == k, axis=1, dtype=np.int64)
            right = counts[k] - left
            sq_left += left * left
            sq_right += right * right

        nl = n_left.astype(float)
        nr = n - nl
        gini_l = 1.0 - sq_left / (nl * nl)
        gini_r = 1.0 - sq_right / (nr * nr)
        gains = node_gini - (nl / n) * gini_l - (nr / n) * gini_r
        gains[~valid] = -np.inf

        # first best cut per feature, then the first best feature: what
        # a sequential scan replacing the best only on a strictly
        # greater gain would pick
        cut = gains.argmax(axis=1)
        best = gains[np.arange(len(candidates)), cut]
        f = int(best.argmax())
        if not best[f] > _MIN_GAIN:
            return None
        pos = int(cut[f]) + 1
        threshold = _threshold(values[f, pos - 1], values[f, pos])
        return int(candidates[f]), threshold, float(best[f])

    # -- per-feature reference search -------------------------------------------

    def _fit_reference(self, X, y) -> "DecisionTreeClassifier":
        """Fit with the per-feature search, which re-sorts and re-counts
        every feature at every node.  Kept as the differential oracle and
        benchmark baseline for the presorted ``fit``; grows bit-identical
        trees."""
        X, y_enc, n_feat = self._prepare(X, y)
        self._root = self._grow_reference(X, y_enc, n_feat)
        return self._finish()

    def _grow_reference(self, X: np.ndarray, y: np.ndarray, n_feat: int) -> _Node:
        root = _Node()
        stack = [(X, y, 0, root)]
        while stack:
            X_node, y_node, node_depth, node = stack.pop()
            self.n_nodes_ += 1
            counts = np.bincount(y_node, minlength=self._n_classes).astype(float)
            node_gini = _gini(counts)
            n = len(y_node)

            split = None
            if self._splittable(node_gini, n, node_depth):
                split = self._best_split_reference(
                    X_node,
                    y_node,
                    counts,
                    node_gini,
                    n_feat,
                )
            if split is None:
                node.value = counts
                continue

            feature, threshold, gain = split
            mask = X_node[:, feature] <= threshold
            n_left = int(mask.sum())
            if n_left == 0 or n_left == n:  # degenerate split: leaf
                node.value = counts
                continue
            self._importance[feature] += (n / self._n_total) * gain
            node.feature = feature
            node.threshold = threshold
            node.left = _Node()
            node.right = _Node()
            stack.append((X_node[mask], y_node[mask], node_depth + 1, node.left))
            stack.append((X_node[~mask], y_node[~mask], node_depth + 1, node.right))
        return root

    def _best_split_reference(
        self,
        X: np.ndarray,
        y: np.ndarray,
        counts: np.ndarray,
        node_gini: float,
        n_feat: int,
    ):
        n = len(y)
        min_leaf = self.min_samples_leaf
        best_gain = _MIN_GAIN
        best = None

        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y] = 1.0

        for feature in self._candidates(n_feat):
            column = X[:, feature]
            order = np.argsort(column, kind="mergesort")
            sorted_col = column[order]
            # cumulative class counts left of each split position
            left_counts = np.cumsum(onehot[order], axis=0)
            # valid split positions: between distinct values, honouring
            # the minimum leaf size
            distinct = sorted_col[:-1] < sorted_col[1:]
            positions = np.nonzero(distinct)[0] + 1  # left side size
            positions = positions[(positions >= min_leaf) & (positions <= n - min_leaf)]
            if not len(positions):
                continue
            lc = left_counts[positions - 1]
            rc = counts - lc
            nl = positions.astype(float)
            nr = n - nl
            gini_l = 1.0 - np.einsum("ij,ij->i", lc, lc) / (nl * nl)
            gini_r = 1.0 - np.einsum("ij,ij->i", rc, rc) / (nr * nr)
            gains = node_gini - (nl / n) * gini_l - (nr / n) * gini_r
            idx = int(np.argmax(gains))
            if gains[idx] > best_gain:
                best_gain = float(gains[idx])
                pos = positions[idx]
                threshold = _threshold(sorted_col[pos - 1], sorted_col[pos])
                best = (int(feature), threshold, best_gain)
        return best

    # -- prediction -----------------------------------------------------------------

    def _check_fitted(self) -> None:
        if self._root is None:
            raise MLError("classifier is not fitted")

    def _flatten(self) -> None:
        """Flatten the node graph into index arrays for batched descent.

        ``_flat_feature[i] == -1`` marks node *i* as a leaf; internal
        nodes carry (feature, threshold) and the indices of both
        children.  Per-leaf argmax classes and probability rows are
        precomputed once so prediction is pure indexing.
        """
        order: list[_Node] = []
        index: dict[int, int] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            index[id(node)] = len(order)
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        n = len(order)
        self._flat_feature = np.full(n, -1, dtype=np.intp)
        self._flat_threshold = np.zeros(n, dtype=np.float64)
        self._flat_left = np.zeros(n, dtype=np.intp)
        self._flat_right = np.zeros(n, dtype=np.intp)
        values = np.zeros((n, self._n_classes), dtype=np.float64)
        for i, node in enumerate(order):
            if node.is_leaf:
                values[i] = node.value
            else:
                self._flat_feature[i] = node.feature
                self._flat_threshold[i] = node.threshold
                self._flat_left[i] = index[id(node.left)]
                self._flat_right[i] = index[id(node.right)]
        self._leaf_class = values.argmax(axis=1)
        sums = values.sum(axis=1)
        sums[sums == 0.0] = 1.0
        self._leaf_proba = values / sums[:, None]

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Flat node index of the leaf each row of *X* lands in.

        All rows descend together: each iteration advances every
        still-internal row one level, so the loop runs depth() times
        rather than n_rows times.
        """
        idx = np.zeros(len(X), dtype=np.intp)
        active = np.nonzero(self._flat_feature[idx] >= 0)[0]
        while active.size:
            node = idx[active]
            go_left = X[active, self._flat_feature[node]] <= self._flat_threshold[node]
            left, right = self._flat_left[node], self._flat_right[node]
            idx[active] = np.where(go_left, left, right)
            active = active[self._flat_feature[idx[active]] >= 0]
        return idx

    def _validate_X(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise MLError(f"X must have shape (n, {self.n_features_})")
        return X

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = self._validate_X(X)
        return self.classes_[self._leaf_class[self._leaf_indices(X)]]

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = self._validate_X(X)
        return self._leaf_proba[self._leaf_indices(X)]

    # -- row-wise reference implementations (seed behaviour) -------------------------

    def _predict_rowwise(self, X) -> np.ndarray:
        """Seed per-row recursive descent; kept as the equivalence and
        benchmark baseline for the batched ``predict``."""
        self._check_fitted()
        X = self._validate_X(X)
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = int(np.argmax(node.value))
        return self.classes_[out]

    def _predict_proba_rowwise(self, X) -> np.ndarray:
        self._check_fitted()
        X = self._validate_X(X)
        probs = np.empty((len(X), self._n_classes))
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            total = node.value.sum() or 1.0
            probs[i] = node.value / total
        return probs

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload of the fitted tree (flattened node arrays).

        Node 0 is the root; ``feature == -1`` marks a leaf, whose
        ``value`` row carries the training class counts.  The payload
        round-trips exactly: :meth:`from_dict` rebuilds the node graph
        and re-flattens it, so predictions are bit-identical.
        """
        self._check_fitted()
        order: list[_Node] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(order)}
        nodes: dict[str, list] = {
            "feature": [],
            "threshold": [],
            "left": [],
            "right": [],
            "value": [],
        }
        for node in order:
            if node.is_leaf:
                nodes["feature"].append(-1)
                nodes["threshold"].append(0.0)
                nodes["left"].append(-1)
                nodes["right"].append(-1)
                nodes["value"].append([float(v) for v in node.value])
            else:
                nodes["feature"].append(int(node.feature))
                nodes["threshold"].append(float(node.threshold))
                nodes["left"].append(index[id(node.left)])
                nodes["right"].append(index[id(node.right)])
                nodes["value"].append(None)
        return {
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "random_state": self.random_state,
            },
            "classes": self.classes_.tolist(),
            "n_features": int(self.n_features_),
            "feature_importances": self.feature_importances_.tolist(),
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from a :meth:`to_dict` payload."""
        try:
            tree = cls(**data["params"])
            raw = data["nodes"]
            n = len(raw["feature"])
            if n == 0:
                raise MLError("tree payload has no nodes")
            nodes = [_Node() for _ in range(n)]
            for i in range(n):
                if raw["feature"][i] < 0:
                    nodes[i].value = np.asarray(raw["value"][i], dtype=np.float64)
                else:
                    left, right = int(raw["left"][i]), int(raw["right"][i])
                    # to_dict emits nodes in DFS preorder, so children
                    # always follow their parent; enforcing that here
                    # rejects cycles and negative-index aliasing in
                    # hand-edited payloads instead of hanging _flatten()
                    if not (i < left < n and i < right < n):
                        raise MLError(
                            f"tree payload node {i} has invalid "
                            f"children ({left}, {right}); child indices "
                            f"must lie in ({i}, {n})"
                        )
                    nodes[i].feature = int(raw["feature"][i])
                    nodes[i].threshold = float(raw["threshold"][i])
                    nodes[i].left = nodes[left]
                    nodes[i].right = nodes[right]
            tree.classes_ = np.asarray(data["classes"])
            tree.n_features_ = int(data["n_features"])
            tree._n_classes = len(tree.classes_)
            tree.n_nodes_ = n
            tree.feature_importances_ = np.asarray(
                data["feature_importances"],
                dtype=np.float64,
            )
            tree._root = nodes[0]
            tree._flatten()
        except MLError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise MLError(f"malformed decision-tree payload: {exc!r}")
        return tree

    # -- introspection ----------------------------------------------------------------

    def depth(self) -> int:
        self._check_fitted()
        deepest = 0
        stack = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    def n_leaves(self) -> int:
        self._check_fitted()
        leaves = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return leaves
