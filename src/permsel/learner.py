"""The random forest: the one learner that every evaluation context fits.

The forest is deterministic: every tree draws from its own stream seeded
by (spec.seed, tree_index), so results do not depend on training order
or parallel schedule. Fitted models are immutable and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import RowView, Task
from .errors import LearnerError, is_int, require
from .tree import CompiledForest, Tree, grow_forest
from .tree import grow_tree  # noqa: F401 (perfbench wraps learner.grow_tree)

_FORMAT = "permsel-random-forest"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LearnerSpec:
    """Random forest configuration.

    ``max_features`` accepts "sqrt", "third", "all", an integer, or None,
    where None resolves to sqrt for classification and a third of the
    features for regression.
    """

    n_trees: int = 100
    max_features: int | str | None = None
    min_samples_split: int = 2
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def validate(self, where: str = ""):
        """Raise for a value of the wrong type or range; ``where`` prefixes
        the key names in the message ("learner." in a config)."""
        for name, low in (("n_trees", 1), ("min_samples_split", 1), ("seed", 0)):
            value = getattr(self, name)
            require(is_int(value) and value >= low, where + name,
                    f"an integer >= {low}", value, LearnerError)
        depth = self.max_depth
        require(depth is None or is_int(depth) and depth >= 0, f"{where}max_depth",
                "null or an integer >= 0", depth, LearnerError)
        mf = self.max_features
        require(mf is None or mf in ("sqrt", "third", "all") or is_int(mf) and mf >= 1,
                f"{where}max_features",
                "null, 'sqrt', 'third', 'all' or an integer >= 1", mf, LearnerError)
        require(isinstance(self.bootstrap, bool), f"{where}bootstrap",
                "true or false", self.bootstrap, LearnerError)

    def resolve_max_features(self, n_features: int, task: Task) -> int:
        mf = self.max_features
        if mf is None:
            mf = "sqrt" if task is Task.CLASSIFICATION else "third"
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "third":
            return max(1, n_features // 3)
        if mf == "all":
            return n_features
        if is_int(mf):
            if not (1 <= mf <= n_features):
                raise LearnerError(f"max_features={mf} outside [1, {n_features}]")
            return int(mf)
        raise LearnerError(f"bad max_features: {mf!r}")


class RandomForestModel:
    """Immutable fitted forest. Prediction is a pure function of its input."""

    def __init__(self, trees: list[Tree], task: Task, n_features: int,
                 class_count: int | None):
        self.trees = trees
        self.task = task
        self.n_features = n_features
        self.class_count = class_count
        self.compiled = CompiledForest(trees)
        if task is Task.CLASSIFICATION \
                and not np.isin(self.compiled.value, np.arange(class_count)).all():
            raise LearnerError(f"leaf values must be class indices below {class_count}")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote (ties to the lowest class index) or tree mean."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LearnerError(
                f"expected rows of width {self.n_features}, got shape {X.shape}")
        return self.combine(self.compiled.leaf_values(X))

    def combine(self, preds: np.ndarray) -> np.ndarray:
        """The forest's prediction from (..., trees, rows) leaf values: a
        majority vote (ties to the lowest class index) or the tree mean."""
        if self.task is Task.CLASSIFICATION:
            *lead, _, n = preds.shape
            q = self.class_count
            blocks = math.prod(lead) * n
            cells = preds.astype(np.int64)
            cells += np.arange(blocks).reshape(*lead, 1, n) * q
            counts = np.bincount(cells.ravel(), minlength=blocks * q)
            return np.argmax(counts.reshape(*lead, n, q), axis=-1)
        return preds.mean(axis=-2)

    def to_json(self) -> str:
        """Versioned JSON container for the fitted state."""
        return json.dumps({
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "task": self.task.value,
            "n_features": self.n_features,
            "class_count": self.class_count,
            "trees": [t.to_dict() for t in self.trees],
        })

    @classmethod
    def from_json(cls, text: str) -> "RandomForestModel":
        """The forest of ``to_json``'s text, whose trees are checked so
        that a malformed one raises here, not in a prediction."""
        d = json.loads(text)
        if not isinstance(d, dict) or d.get("format") != _FORMAT:
            raise LearnerError("not a serialized forest")
        if d.get("version") != _FORMAT_VERSION:
            raise LearnerError(f"unsupported version {d.get('version')}")
        n_features, trees = d.get("n_features"), d.get("trees")
        require(is_int(n_features) and n_features >= 1, "n_features", "an integer >= 1",
                n_features, LearnerError)
        require(isinstance(trees, list) and trees, "trees", "a non-empty list", trees,
                LearnerError)
        trees = [_checked_tree(td, n_features, f"trees[{i}]") for i, td in enumerate(trees)]
        return cls(trees, Task(d["task"]), n_features, d["class_count"])


def _checked_tree(d, n_features: int, name: str) -> Tree:
    """The tree of a ``Tree.to_dict`` dict, checked so that no walk can
    cycle: a leaf holds -1 in feature, left and right, and an internal node
    tests a feature below ``n_features`` and has its children after it."""
    try:
        tree = Tree(*(d[s] for s in Tree.__slots__))
    except (TypeError, KeyError, ValueError, OverflowError):  # not a dict of numbers
        tree = None
    size = 0 if tree is None else tree.feature.size
    if not size or {getattr(tree, s).shape for s in Tree.__slots__} != {(size,)}:
        raise LearnerError(f"{name} must hold the lists {', '.join(Tree.__slots__)}, "
                           "of numbers and of one nonzero length")
    feature, left, right = tree.feature, tree.left, tree.right
    ok = np.where(feature == -1, (left == -1) & (right == -1),
                  (feature >= 0) & (feature < n_features) & (left > np.arange(size))
                  & (left < size - 1) & (right == left + 1))
    if not ok.all():
        bad = int(np.argmin(ok))
        raise LearnerError(f"{name} node {bad}: neither a leaf (all -1) nor a split on a feature "
                           f"below {n_features} into nodes l, l + 1 with {bad} < l < {size - 1}")
    return tree


def fit(spec: LearnerSpec, data: RowView) -> RandomForestModel:
    """Train a forest on the given rows.

    With bootstrap on, each tree sees a resample of the rows drawn from
    its own stream; with it off, every tree trains on the full data.
    """
    return fit_forests(spec, data, [np.arange(data.n_features)])[0]


def fit_forests(spec: LearnerSpec, data: RowView,
                column_sets) -> list[RandomForestModel]:
    """One forest per set of ascending column indices of ``data``, each
    equal, tree for tree, to ``fit`` on the rows restricted to its set;
    a model takes rows of its set's width. All the trees grow together
    (``grow_forest``), searching one rank table of ``data``.
    """
    spec.validate()
    if data.n_rows == 0:
        raise LearnerError("empty training set")
    classification = data.task is Task.CLASSIFICATION
    if classification:
        y = data.y.astype(np.int64)
        class_count = data.class_count if data.class_count is not None \
            else int(y.max()) + 1
    else:
        y = data.y.astype(float)
        class_count = 0
    w = data.n_features
    sets = [np.asarray(s, dtype=np.intp) for s in column_sets]
    for s in sets:
        if s.size == 0 or s[0] < 0 or s[-1] >= w or (np.diff(s) <= 0).any():
            raise LearnerError(f"a column set must hold ascending indices "
                               f"below {w}, got {s.tolist()}")
    widths = [spec.resolve_max_features(s.size, data.task) for s in sets]
    T = spec.n_trees
    # each set's tree t has its own stream, as in its own fit
    rngs = [np.random.default_rng([spec.seed, t]) for _ in sets for t in range(T)]
    trees = grow_forest(
        data.X, y, rngs,
        [s for s in sets for _ in range(T)],
        [k for k in widths for _ in range(T)],
        bootstrap=spec.bootstrap,
        classification=classification,
        class_count=class_count,
        min_samples_split=spec.min_samples_split,
        max_depth=spec.max_depth,
    )
    return [RandomForestModel(trees[i * T:(i + 1) * T], data.task, s.size,
                              class_count if classification else None)
            for i, s in enumerate(sets)]
