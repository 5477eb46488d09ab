"""Forest growth against the one-node-at-a-time reference in oracles.py.

Every tree ``fit`` grows in lockstep must equal, array for array, the tree
the reference grows alone from the same stream: same node ids, features,
thresholds, children and leaf values, whether the trees of a fit grow
in this process or are dealt to forked ones.
"""

import os
import signal
import tracemalloc

import numpy as np
import pytest

from permsel.dataset import RowView, Task
from permsel.errors import LearnerError
from permsel.learner import LearnerSpec, fit, fit_forests
from permsel import tree as tree_mod
from permsel.tree import _BUDGET, _best_splits, _Search, grow_tree

from oracles import best_split_reference, fit_forest_reference, grow_tree_reference

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _rows(q, n=48, w=7, seed=0):
    """Values rounded to one decimal (many tied values, carrying different
    targets), a few duplicated rows and a constant column; a regression
    target when q is None, else q classes."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, w)), 1)
    X[-4:] = X[:4]                       # duplicate rows
    X[:, w // 2] = 0.5                   # constant column
    if q is None:
        y = X[:, 0] - X[:, 1] + 0.3 * rng.standard_normal(n)
        y[-4:] = y[:4]
        return RowView(X, y, Task.REGRESSION)
    score = X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.standard_normal(n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, q + 1)[1:-1]))
    y[-4:] = y[:4]
    return RowView(X, y, Task.CLASSIFICATION, class_count=q)


@pytest.fixture
def forked(request, monkeypatch):
    """The shares of trees that the test's fits fork, each a list of tree
    indices. Parametrized with a process count, the fixture deals every
    fit to that many processes (as many usable CPUs, no size floor), and
    checks that the fits forked when that is more than one."""
    forks = []
    fork_share = tree_mod._fork_share

    def counted(grow, share):
        forks.append(list(share))
        return fork_share(grow, share)

    monkeypatch.setattr(tree_mod, "_fork_share", counted)
    processes = getattr(request, "param", None)
    if processes is not None:
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: processes)
        monkeypatch.setattr(tree_mod, "_SHARE_FLOOR", 1)
    yield forks
    if processes is not None:
        assert bool(forks) == (processes > 1)


def _reference(spec, rows):
    q = rows.class_count
    y = rows.y.astype(np.int64) if q else rows.y.astype(float)
    return fit_forest_reference(
        rows.X, y, n_trees=spec.n_trees, seed=spec.seed, bootstrap=spec.bootstrap,
        classification=q is not None, class_count=q or 0,
        max_features=spec.resolve_max_features(rows.n_features, rows.task),
        min_samples_split=spec.min_samples_split, max_depth=spec.max_depth)


def _assert_same_forest(spec, rows):
    model = fit(spec, rows)
    expected = _reference(spec, rows)
    assert len(model.trees) == len(expected)
    for t, (tree, ref) in enumerate(zip(model.trees, expected)):
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), ref[name]), (t, name)
    return model


class TestForestMatchesReference:
    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_depth", [0, 1, 3, None])
    @pytest.mark.parametrize("max_features", ["all", "sqrt", "third", 2])
    def test_grid(self, q, bootstrap, max_depth, max_features):
        _assert_same_forest(
            LearnerSpec(n_trees=4, bootstrap=bootstrap, max_depth=max_depth,
                        max_features=max_features, seed=5), _rows(q))

    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("n_trees", [1, 60])
    def test_forest_size(self, q, n_trees):
        model = _assert_same_forest(LearnerSpec(n_trees=n_trees, seed=1),
                                    _rows(q, n=80, w=12, seed=2))
        assert sum(t.feature.size for t in model.trees) > 3 * n_trees
        if n_trees == 60 and q is None:  # large trees are covered too
            assert max(t.feature.size for t in model.trees) > 64

    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_min_samples_split_above_rows(self, q):
        rows = _rows(q)
        model = _assert_same_forest(
            LearnerSpec(n_trees=4, min_samples_split=rows.n_rows + 1), rows)
        assert all(t.feature.tolist() == [-1] for t in model.trees)

    @pytest.mark.parametrize("q", [None, 2], ids=["reg", "bin"])
    def test_more_features_than_rows(self, q):
        _assert_same_forest(LearnerSpec(n_trees=6, seed=3),
                            _rows(q, n=12, w=30, seed=4))

    @pytest.mark.parametrize("q", [None, 2], ids=["reg", "bin"])
    def test_all_rows_identical(self, q):
        rows = _rows(q, n=10, w=3)
        X = np.repeat(rows.X[:1], 10, axis=0)
        y = np.arange(10) % 2 if q else np.arange(10.0)
        rows = RowView(X, y, rows.task, class_count=q)
        model = _assert_same_forest(LearnerSpec(n_trees=3, max_features="all"),
                                    rows)
        assert all(t.feature.tolist() == [-1] for t in model.trees)

    def test_regression_tie_order(self):
        # three columns of four values each, tied across rows with targets
        # of very different magnitudes: a prefix sum that added the tied
        # targets out of row order would round differently and, in some
        # node, pick another split
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(64, 3)).astype(float)
        y = np.round(rng.standard_normal(64), 1) * 10.0 ** rng.integers(-8, 8, size=64)
        _assert_same_forest(LearnerSpec(n_trees=8, max_features="all", seed=2),
                            RowView(X, y, Task.REGRESSION))


# a single column, all columns, overlapping and disjoint sets; column 3
# of _rows is constant
SETS = ([4], list(range(7)), [0, 1, 3], [1, 3, 5, 6], [2, 5])


class TestFitForests:
    """Each forest of a shared fit equals ``fit`` on, and the reference
    grown from, the rows restricted to its set."""

    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_features", [None, "sqrt", "all", 1])
    def test_each_forest_is_its_sets_fit(self, q, bootstrap, max_features):
        self._assert_each_forest_is_its_sets_fit(
            _rows(q), LearnerSpec(n_trees=3, bootstrap=bootstrap,
                                  max_features=max_features, seed=4))

    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_a_group_per_tree(self, q, monkeypatch):
        # the groups grow one after the other, each tree in a group of its own
        monkeypatch.setattr(tree_mod, "_GROUP_ROWS", 1)
        self._assert_each_forest_is_its_sets_fit(_rows(q), LearnerSpec(n_trees=3, seed=4))

    # the two tests above with the trees dealt to 2 and 3 processes (their
    # own cases run in this process): an odd number of trees (3 a set, 15
    # in all) split unevenly, and as many processes as the 3 trees of each
    # set's own fit
    @pytest.mark.parametrize("forked", [2, 3], indirect=True)
    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("group_rows", [tree_mod._GROUP_ROWS, 1],
                             ids=["one_group", "group_per_tree"])
    def test_forests_grown_in_processes(self, q, bootstrap, group_rows, forked,
                                        monkeypatch):
        monkeypatch.setattr(tree_mod, "_GROUP_ROWS", group_rows)
        self._assert_each_forest_is_its_sets_fit(
            _rows(q), LearnerSpec(n_trees=3, bootstrap=bootstrap, seed=4))

    @staticmethod
    def _assert_each_forest_is_its_sets_fit(rows, spec):
        models = fit_forests(spec, rows, SETS)
        assert len(models) == len(SETS)
        for cols, model in zip(SETS, models):
            alone = RowView(rows.X[:, cols], rows.y, rows.task, class_count=rows.class_count)
            assert model.n_features == len(cols) and len(model.trees) == spec.n_trees
            with pytest.MonkeyPatch.context() as mp:  # the set's own fit, in this process
                mp.setattr(tree_mod, "_usable_cpus", lambda: 1)
                own = fit(spec, alone).trees
            for t, (tree, own, ref) in enumerate(zip(
                    model.trees, own, _reference(spec, alone))):
                for name in NODE_ARRAYS:
                    assert np.array_equal(getattr(tree, name), getattr(own, name))
                    assert np.array_equal(getattr(tree, name), ref[name]), (cols, t, name)

    @pytest.mark.parametrize("sets", [[[]], [[2, 1]], [[1, 1]], [[0, 7]], [[-1, 2]]],
                             ids=["empty", "descending", "repeated", "past_end",
                                  "negative"])
    def test_bad_column_set(self, sets):
        with pytest.raises(LearnerError, match="ascending indices below 7"):
            fit_forests(LearnerSpec(n_trees=1), _rows(None), [[0, 1]] + sets)

    def test_batch_peak_within_a_few_single_fits(self, monkeypatch):
        # 18 forests of 4 trees on 200 rows grow in one lockstep group; their
        # node arrays grow by use, so the batch holds little more than one
        # fit's search and rank table. tracemalloc sees no child process's
        # allocations, so the fits stay in this process
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: 1)
        rows = _rows(4, n=200, w=40, seed=3)
        spec = LearnerSpec(n_trees=4, seed=3)
        rng = np.random.default_rng(0)
        sets = [np.sort(rng.choice(40, size=k, replace=False))
                for k in [3, 8, 15, 25] * 4 + [30, 40]]
        fit(spec, rows)  # one-time allocations stay out of the peaks

        def peak(run):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one = peak(lambda: fit(spec, rows))
        assert peak(lambda: fit_forests(spec, rows, sets)) < 3 * one


class TestProcesses:
    """A fit deals its trees to forked processes only where that pays, and
    leaves no child process, whichever process fails."""

    @pytest.mark.parametrize("shape", [(2, 180, 30), (4, 240, 80)], ids=["bin30", "q4w80"])
    def test_small_fits_stay_in_process(self, shape, forked, monkeypatch):
        # the 4-tree context fits of the sweep benchmark, however many CPUs
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: 64)
        q, n, w = shape
        fit(LearnerSpec(n_trees=4), _rows(q, n=n, w=w))
        assert forked == []

    def test_one_tree_stays_in_process(self, forked, monkeypatch):
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(tree_mod, "_SHARE_FLOOR", 1)
        rows = _rows(None)
        grow_tree(rows.X, rows.y, np.random.default_rng(0), classification=False,
                  class_count=0, max_features=3, min_samples_split=2, max_depth=None)
        assert forked == []

    def test_one_usable_cpu_stays_in_process(self, forked, monkeypatch):
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(tree_mod, "_SHARE_FLOOR", 1)
        fit(LearnerSpec(n_trees=8), _rows(4))
        assert forked == []

    def test_desk_context_fit_forks(self, forked, monkeypatch):
        # 60 trees on 240x200, a third of the columns each node: the fit of
        # the desk benchmark's context, split between two CPUs
        monkeypatch.setattr(tree_mod, "_usable_cpus", lambda: 2)
        fit(LearnerSpec(n_trees=60), _rows(None, n=240, w=200))
        assert forked == [list(range(1, 60, 2))]

    @pytest.mark.parametrize("forked", [3], indirect=True)
    def test_more_cpus_than_trees(self, forked):
        # one process a tree, the third CPU unused
        _assert_same_forest(LearnerSpec(n_trees=2, seed=3), _rows(2))
        assert forked == [[1]]

    @pytest.mark.parametrize("forked", [3], indirect=True)
    def test_share_that_cannot_fork_grows_here(self, forked, monkeypatch):
        # the second fork fails as when the system has no process to spare
        fork = os.fork
        calls = []

        def fork_once():
            calls.append(1)
            if len(calls) > 1:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        _assert_same_forest(LearnerSpec(n_trees=7, seed=2), _rows(4))
        assert forked == [[1, 4], [2, 5]] and len(calls) == 2

    @staticmethod
    def _fail(monkeypatch, in_child, failure):
        """Make every split search call ``failure()`` in the children only,
        or in this process only: fork copies the patch."""
        parent = os.getpid()
        best_splits = tree_mod._best_splits

        def patched(search, nodes):
            if (os.getpid() != parent) == in_child:
                failure()
            return best_splits(search, nodes)

        monkeypatch.setattr(tree_mod, "_best_splits", patched)

    @staticmethod
    def _raise():
        raise RuntimeError("no split here")

    @pytest.mark.parametrize("forked", [2, 3], indirect=True)
    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_failing_child_raises(self, q, forked, monkeypatch):
        self._fail(monkeypatch, True, self._raise)
        with pytest.raises(LearnerError, match=r"trees \[1, .*\] of the forest failed "
                                               r".*RuntimeError: no split here"):
            fit(LearnerSpec(n_trees=6), _rows(q))

    @pytest.mark.parametrize("forked", [2], indirect=True)
    def test_killed_child_raises(self, forked, monkeypatch):
        self._fail(monkeypatch, True, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(LearnerError, match="exit status -9"):
            fit(LearnerSpec(n_trees=4), _rows(None))

    @pytest.mark.parametrize("forked", [2, 3], indirect=True)
    def test_failing_parent_reaps_its_children(self, forked, monkeypatch):
        self._fail(monkeypatch, False, self._raise)
        with pytest.raises(RuntimeError, match="no split here"):
            fit(LearnerSpec(n_trees=6), _rows(None))


class TestCandidateSets:
    """Every node searches the reference's per-node candidate set,
    ``np.sort(rng.choice(m, k, replace=False))`` from its tree's stream,
    on the shapes where numpy's draw or a leaf value could go wrong."""

    @staticmethod
    def _assert_same_tree(X, y, q, max_features, seed=0, max_depth=None):
        kwargs = dict(classification=q is not None, class_count=q or 0,
                      max_features=max_features, min_samples_split=2, max_depth=max_depth)
        tree = grow_tree(X, y, np.random.default_rng(seed), **kwargs)
        ref = grow_tree_reference(X, y, np.random.default_rng(seed), **kwargs)
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), ref[name]), name
        return ref

    @pytest.mark.parametrize("seed", range(12))
    def test_random_shapes(self, seed):
        # rows fewer or more than columns, any k < m, deep or cut trees:
        # each node's set, and the stream after it, must be the reference's
        rng = np.random.default_rng(100 + seed)
        n, m = int(rng.integers(8, 61)), int(rng.integers(2, 400))
        k = int(rng.integers(1, m))
        q = [None, 2, 3][seed % 3]
        X = np.round(rng.standard_normal((n, m)), 1)
        score = X[:, :3].sum(axis=1) + 0.5 * rng.standard_normal(n)
        if q is not None:
            y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3])[:q - 1])
        else:
            y = score
        self._assert_same_tree(X, y, q, k, seed=seed, max_depth=[None, 3][seed % 2])

    @pytest.mark.parametrize("k", [200, 201])
    def test_either_side_of_numpy_tail_shuffle(self, k):
        # above 10000 columns numpy's choice shuffles the pool's tail in
        # place of Floyd's algorithm once k > m // 50 (here 200)
        rng = np.random.default_rng(5)
        X = np.round(rng.standard_normal((24, 10001)), 1)
        y = X[:, :40].sum(axis=1) + rng.standard_normal(24)
        ref = self._assert_same_tree(X, y, None, k)
        assert (ref["feature"] >= 0).sum() > 3

    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    @pytest.mark.parametrize("max_features", [6, 1], ids=["m_minus_1", "one"])
    def test_extreme_candidate_counts(self, q, max_features):
        _assert_same_forest(LearnerSpec(n_trees=5, max_features=max_features, seed=7),
                            _rows(q, seed=9))

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_signed_zero_targets(self, bootstrap):
        # one-row and larger leaves of -0.0: the mean of -0.0 values is 0.0
        rng = np.random.default_rng(3)
        X = np.round(rng.standard_normal((40, 4)), 1)
        y = np.where(rng.random(40) < 0.6, -0.0, np.round(rng.standard_normal(40), 1))
        y[::7] = 0.0
        model = _assert_same_forest(LearnerSpec(n_trees=6, bootstrap=bootstrap, seed=2),
                                    RowView(X, y, Task.REGRESSION))
        assert not any((np.signbit(t.value) & (t.value == 0)).any() for t in model.trees)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_pure_leaves_of_equal_targets(self, bootstrap):
        # groups of 2 to 9 rows with one x and one target each: every group
        # ends in a pure leaf, whose value is the mean of equal targets, not
        # always the target itself (three 0.1s average to 0.10000000000000002)
        sizes = np.arange(2, 10).repeat(3)
        group = np.repeat(np.arange(sizes.size), sizes)
        targets = np.array([0.1, 0.7, 1 / 3])[np.arange(sizes.size) % 3] \
            + np.arange(sizes.size) // 3
        X = np.stack([group * 0.5, (group % 5) * 1.0], axis=1)
        model = _assert_same_forest(
            LearnerSpec(n_trees=4, max_features="all", bootstrap=bootstrap, seed=1),
            RowView(X, targets[group], Task.REGRESSION))
        if not bootstrap:
            leaves = np.concatenate([t.value[t.feature < 0] for t in model.trees])
            assert set(leaves.tolist()) != set(targets.tolist())


class TestGrowTree:
    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_one_tree_view(self, q):
        rows = _rows(q, seed=6)
        y = rows.y.astype(np.int64) if q else rows.y
        kwargs = dict(classification=q is not None, class_count=q or 0,
                      max_features=3, min_samples_split=2, max_depth=None)
        tree = grow_tree(rows.X, y, np.random.default_rng(9), **kwargs)
        ref = grow_tree_reference(rows.X, y, np.random.default_rng(9), **kwargs)
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(tree, name), ref[name]), name


class TestBatchedSearch:
    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    def test_padded_batch_matches_per_node(self, q):
        # nodes of different sizes in one call, padded to the longest
        rows = _rows(q, n=60, w=9, seed=8)
        X, y = rows.X, rows.y
        rng = np.random.default_rng(0)
        nodes = [(rng.choice(60, size=m, replace=m > 60),
                  np.sort(rng.choice(9, size=4, replace=False)))
                 for m in (2, 3, 5, 8, 8, 13, 30, 60, 90)]
        nodes.append((np.zeros(6, dtype=np.int64), np.arange(4)))  # one row, six times
        self._assert_matches_reference(X, y, nodes, q)

    @staticmethod
    def _assert_matches_reference(X, y, nodes, q):
        found = _best_splits(_Search(X, y, q is not None, q or 0), nodes)
        for (r, c), got in zip(nodes, found):
            assert got == best_split_reference(X, r, y[r], c, q is not None, q or 0)
        return found

    @pytest.mark.parametrize("q", [None, 3], ids=["reg", "q3"])
    def test_tie_across_candidate_groups(self, q):
        # a root too wide for one block is searched in groups of candidates;
        # the best split sits in the first and in later groups (equal
        # columns, an exact impurity tie), and the lowest feature must win
        room = _BUDGET // (q or 1)       # a block's elements per class plane
        m = 2 * room // 5 + 1             # so a group holds two candidates
        rng = np.random.default_rng(1)
        X = np.round(rng.standard_normal((m, 7)), 2)
        X[:, [3, 5]] = X[:, [1]]
        y = X[:, 1] + 0.5 * rng.standard_normal(m)
        if q:
            y = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
        rows = np.arange(m)
        assert room // m == 2
        for candidates in (np.arange(7), np.array([0, 2, 3, 4, 5, 6]), np.array([3, 5])):
            found = self._assert_matches_reference(X, y, [(rows, candidates)], q)
            assert found[0][0] == (1 if 1 in candidates else 3)

    @pytest.mark.parametrize("q", [None, 3], ids=["reg", "q3"])
    def test_wide_nodes_share_blocks(self, q, monkeypatch):
        # two roots too wide for one block, each cut into candidate groups
        # [0:3], [3:6], [6:7]: their one-candidate tails share a block, and
        # a node's best carries across the blocks of its groups. Columns 4
        # and 6 (and 7) repeat column 1, an exact impurity tie across
        # groups, and the lowest candidate must win
        room = _BUDGET // (q or 1)
        wide, wider = room // 4 + 1, room * 2 // 7
        assert room // wide == room // wider == 3 and 2 * wider <= room
        rng = np.random.default_rng(3)
        X = np.round(rng.standard_normal((wider + 40, 8)), 2)
        X[:, [4, 6, 7]] = X[:, [1]]
        y = X[:, 1] + 0.5 * rng.standard_normal(X.shape[0])
        if q:
            y = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
        nodes = [(rng.choice(X.shape[0], size=wide, replace=False), np.arange(7)),
                 (np.arange(30), np.arange(7)),
                 (np.arange(wider), np.array([0, 2, 3, 4, 5, 6, 7]))]
        blocks = []
        search_block = tree_mod._search_block

        def recorded(search, block):
            blocks.append([next(i for i, (r, _) in enumerate(nodes) if r is rows)
                           for rows, _ in block])
            return search_block(search, block)

        monkeypatch.setattr(tree_mod, "_search_block", recorded)
        found = self._assert_matches_reference(X, y, nodes, q)
        assert [f for f, _ in found] == [1, 1, 4]
        assert [0, 2] in blocks                         # the shared tail block
        assert sum(0 in b for b in blocks) == sum(2 in b for b in blocks) == 3

    @pytest.mark.parametrize("q", [None, 2, 4], ids=["reg", "bin", "q4"])
    def test_many_blocks_of_nodes(self, q):
        # more nodes than one block holds, packed by row count, with rounded
        # values: tied values that carry different targets
        rng = np.random.default_rng(2)
        X = np.round(rng.standard_normal((900, 12)), 1)
        if q:
            y = rng.integers(0, q, 900)
        else:
            y = np.round(rng.standard_normal(900), 1) * 10.0 ** rng.integers(-6, 6, 900)
        sizes = rng.integers(2, 900, 40)
        nodes = [(rng.choice(900, size=s), np.sort(rng.choice(12, size=6, replace=False)))
                 for s in sizes]
        assert 6 * sizes.sum() > 4 * _BUDGET
        self._assert_matches_reference(X, y, nodes, q)

    @pytest.mark.parametrize("q", [None, 4], ids=["reg", "q4"])
    def test_nodes_of_different_candidate_counts(self, q):
        # the nodes of trees with different pools (a shared fit of several
        # column sets) draw 1 to 12 candidates and share the blocks
        rng = np.random.default_rng(4)
        X = np.round(rng.standard_normal((600, 12)), 1)
        y = rng.integers(0, q, 600) if q else np.round(rng.standard_normal(600), 1)
        sizes, counts = rng.integers(2, 600, 40), rng.integers(1, 13, 40)
        nodes = [(rng.choice(600, size=s), np.sort(rng.choice(12, size=c, replace=False)))
                 for s, c in zip(sizes, counts)]
        assert (counts * sizes).sum() > 4 * _BUDGET
        self._assert_matches_reference(X, y, nodes, q)

    @pytest.mark.parametrize("q", [None, 2], ids=["reg", "bin"])
    def test_signed_zeros_are_one_value(self, q):
        # -0.0 and 0.0 compare equal, so no split may fall between them,
        # even where one would separate the targets perfectly
        X = np.array([[-1.0], [-0.0], [0.0], [-0.0], [0.0], [1.0], [0.0], [-0.0]])
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        y = y if q else y * 3.0
        nodes = [(np.arange(8), np.array([0])), (np.array([1, 2, 3, 4]), np.array([0]))]
        found = self._assert_matches_reference(X, y, nodes, q)
        assert found[1] is None
        _assert_same_forest(LearnerSpec(n_trees=3, max_features="all"),
                            RowView(X, y, Task.CLASSIFICATION if q else Task.REGRESSION,
                                    class_count=q))


class TestSearchMemory:
    def test_peak_stays_within_a_few_copies_of_x(self):
        # a wide root of several classes over every feature: the search
        # works in bounded blocks, so the fit's peak stays near the size of
        # X (a root searched in one piece holds about ten copies of it)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2000, 60))
        s = X[:, 0] + X[:, 1]
        y = np.digitize(s, np.quantile(s, [0.2, 0.4, 0.6, 0.8]))
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=5)
        spec = LearnerSpec(n_trees=1, max_features="all", max_depth=2, bootstrap=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(spec, rows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * X.nbytes
