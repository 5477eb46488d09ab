import numpy as np
import pytest

from permsel.dataset import split
from permsel.errors import PermselError
from permsel.learner import LearnerSpec
from permsel.metrics import Metric
from permsel.moea import (
    Individual,
    MoeaConfig,
    bit_flip_mutation,
    chromosome_to_hex,
    crowding_distance,
    dominates,
    evolve,
    evolve_on_context,
    fast_nondominated_sort,
    hex_to_chromosome,
    hux_crossover,
    hypervolume_2d,
    initialize,
    select_final,
)
from permsel.permutation import EvalContext, build_context

from conftest import StubModel
from oracles import (
    brute_force_fronts,
    counting_sort_fronts,
    hypervolume_inclusion_exclusion,
    hypervolume_monte_carlo,
)


class TestDominates:
    def test_strict(self):
        assert dominates((1, 1), (2, 2))

    def test_incomparable(self):
        assert not dominates((1, 2), (2, 1))
        assert not dominates((2, 1), (1, 2))

    def test_equal(self):
        assert not dominates((1, 1), (1, 1))

    def test_partial_tie(self):
        assert dominates((1, 1), (1, 2))

    def test_arity_mismatch(self):
        with pytest.raises(PermselError):
            dominates((1,), (1, 2))


class TestFastNondominatedSort:
    def test_square_example(self):
        fronts = fast_nondominated_sort([(1, 1), (1, 2), (2, 1), (2, 2)])
        assert fronts == [[0], [1, 2], [3]]

    def test_all_identical(self):
        fronts = fast_nondominated_sort([(3, 3)] * 5)
        assert fronts == [[0, 1, 2, 3, 4]]

    def test_chain(self):
        fronts = fast_nondominated_sort([(1, 1), (2, 2), (3, 3)])
        assert fronts == [[0], [1], [2]]

    def test_empty_rejected(self):
        with pytest.raises(PermselError):
            fast_nondominated_sort([])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pts = [tuple(v) for v in rng.integers(0, 8, size=(n, 2)).tolist()]
            got = fast_nondominated_sort(pts)
            want = brute_force_fronts(pts)
            assert [sorted(f) for f in got] == [sorted(f) for f in want]

    def test_later_front_ordered_by_last_dominator(self):
        # 3 is released by 0 and 2 by 1, so front 1 is [3, 2], not [2, 3]
        fronts = fast_nondominated_sort([(0, 5), (5, 0), (6, 1), (1, 6)])
        assert fronts == [[0, 1], [3, 2]]

    @pytest.mark.parametrize("grid", [None, 2, 3, 6])
    @pytest.mark.parametrize("n_objectives", [2, 3])
    def test_fronts_and_order_match_counting_sort(self, grid, n_objectives):
        rng = np.random.default_rng([grid or 0, n_objectives])
        for _ in range(150):
            n = int(rng.integers(1, 61))
            if grid is None:
                pts = rng.uniform(0, 1, size=(n, n_objectives))
            else:  # integer grids: many ties and duplicate points
                pts = rng.integers(0, grid, size=(n, n_objectives))
            pts = [tuple(v) for v in pts.tolist()]
            assert fast_nondominated_sort(pts) == counting_sort_fronts(pts)


class TestCrowdingDistance:
    def test_singleton(self):
        assert crowding_distance([(1.0, 2.0)]).tolist() == [np.inf]

    def test_pair_all_infinite(self):
        assert np.all(np.isinf(crowding_distance([(0, 1), (1, 0)])))

    def test_hand_computed_middle(self):
        dist = crowding_distance([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        assert np.isinf(dist[0])
        assert np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)

    def test_duplicates_allow_zero_gaps(self):
        dist = crowding_distance([(0.0, 3.0), (1.0, 1.0), (1.0, 1.0),
                                  (1.0, 1.0), (3.0, 0.0)])
        interior = dist[1:4]
        assert np.all(np.isfinite(interior))
        assert np.any(interior == 0.0)

    def test_degenerate_objective_contributes_nothing(self):
        dist = crowding_distance([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
        # second objective is constant; only the first contributes
        assert dist[1] == pytest.approx(2.0 / 2.0)


class TestHux:
    def test_identical_parents(self):
        p = np.array([0, 1, 0, 1], dtype=np.uint8)
        c1, c2 = hux_crossover(p, p.copy(), np.random.default_rng(0))
        assert np.array_equal(c1, p)
        assert np.array_equal(c2, p)

    def test_opposite_parents_swap_half(self):
        p1 = np.zeros(4, dtype=np.uint8)
        p2 = np.ones(4, dtype=np.uint8)
        c1, c2 = hux_crossover(p1, p2, np.random.default_rng(1))
        assert int(np.sum(c1 != p1)) == 2
        assert int(np.sum(c2 != p2)) == 2

    def test_single_difference_no_swap(self):
        p1 = np.array([0, 0, 0], dtype=np.uint8)
        p2 = np.array([0, 0, 1], dtype=np.uint8)
        c1, c2 = hux_crossover(p1, p2, np.random.default_rng(2))
        assert np.array_equal(c1, p1)
        assert np.array_equal(c2, p2)

    def test_contract_over_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            w = int(rng.integers(1, 60))
            p1 = (rng.random(w) < 0.5).astype(np.uint8)
            p2 = (rng.random(w) < 0.5).astype(np.uint8)
            c1, c2 = hux_crossover(p1, p2, rng)
            h = int(np.sum(p1 != p2))
            assert int(np.sum(c1 != p1)) == h // 2
            assert int(np.sum(c2 != p2)) == h // 2
            agree = p1 == p2
            assert np.array_equal(c1[agree], p1[agree])
            assert np.array_equal(c2[agree], p2[agree])

    def test_length_mismatch(self):
        with pytest.raises(PermselError):
            hux_crossover(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                          np.random.default_rng(0))


class TestBitFlip:
    def test_p_zero_identity(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        out = bit_flip_mutation(bits, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, bits)

    def test_p_one_complement(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        out = bit_flip_mutation(bits, 1.0, np.random.default_rng(0))
        assert np.array_equal(out, 1 - bits)

    def test_flip_count_concentration(self):
        # w=10000, p=0.02: binomial(10000, 0.02) stays within [140, 260]
        bits = np.zeros(10000, dtype=np.uint8)
        for seed in range(100):
            out = bit_flip_mutation(bits, 0.02, np.random.default_rng(seed))
            flips = int(out.sum())
            assert 140 <= flips <= 260

    def test_bad_probability(self):
        with pytest.raises(PermselError):
            bit_flip_mutation(np.zeros(3, dtype=np.uint8), 1.5,
                              np.random.default_rng(0))


class TestInitialize:
    def test_all_ones(self):
        cfg = MoeaConfig(population_size=4, init_prob=1.0)
        pop = initialize(6, cfg, np.random.default_rng(0))
        assert all(int(b.sum()) == 6 for b in pop)

    def test_all_zeros(self):
        cfg = MoeaConfig(population_size=4, init_prob=0.0)
        pop = initialize(6, cfg, np.random.default_rng(0))
        assert all(int(b.sum()) == 0 for b in pop)

    def test_sparse_bias_concentration(self):
        cfg = MoeaConfig(population_size=50, init_prob=0.05)
        pop = initialize(1000, cfg, np.random.default_rng(7))
        mean_card = np.mean([b.sum() for b in pop])
        assert 35 <= mean_card <= 65

    def test_default_bias_is_sparse_for_wide_data(self):
        cfg = MoeaConfig(population_size=50)
        pop = initialize(10000, cfg, np.random.default_rng(8))
        mean_card = np.mean([b.sum() for b in pop])
        assert 50 <= mean_card <= 150  # around 100 / 10000 * 10000 = 100


class TestHypervolume2d:
    def test_single_point(self):
        assert hypervolume_2d([(0.5, 0.5)], (1.0, 1.0)) == pytest.approx(0.25)

    def test_empty_front(self):
        assert hypervolume_2d(np.zeros((0, 2)), (1.0, 1.0)) == 0.0

    def test_degenerate_corner_points(self):
        # both points touch the reference boundary: the oracle says the
        # union of their rectangles has zero area
        pts = [(0.0, 1.0), (1.0, 0.0)]
        want = hypervolume_inclusion_exclusion(pts, (1.0, 1.0))
        got = hypervolume_2d(pts, (1.0, 1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == 0.0

    def test_staircase(self):
        pts = [(0.0, 0.5), (0.5, 0.0)]
        want = hypervolume_inclusion_exclusion(pts, (1.0, 1.0))
        assert hypervolume_2d(pts, (1.0, 1.0)) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.75)

    def test_point_beyond_reference(self):
        with pytest.raises(PermselError):
            hypervolume_2d([(1.5, 0.5)], (1.0, 1.0))

    def test_matches_oracles_on_random_fronts(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            ref = (1.0, 1.0)
            got = hypervolume_2d(pts, ref)
            exact = hypervolume_inclusion_exclusion(pts.tolist(), ref)
            assert got == pytest.approx(exact, abs=1e-9)
            mc = hypervolume_monte_carlo(pts, ref, 100_000, seed=trial)
            assert got == pytest.approx(mc, abs=0.01)

    def test_dominated_points_do_not_add_area(self):
        base = hypervolume_2d([(0.2, 0.2)], (1.0, 1.0))
        extra = hypervolume_2d([(0.2, 0.2), (0.5, 0.5)], (1.0, 1.0))
        assert base == extra


def _ind(bits, merit_value):
    return Individual(np.array(bits, dtype=np.uint8), merit_value)


class TestSelectFinal:
    def test_singleton(self):
        ind = _ind([1, 0], 0.4)
        assert select_final([ind]) is ind

    def test_best_merit_wins(self):
        weak = _ind([1, 0], 0.10)
        strong = _ind([1, 1], 0.30)
        assert select_final([weak, strong]) is strong

    def test_merit_tie_smaller_cardinality(self):
        big = _ind([1, 1, 1, 0], 0.2)
        small = _ind([1, 1, 0, 0], 0.2)
        assert select_final([big, small]) is small

    def test_full_tie_lexicographic(self):
        a = _ind([0, 1], 0.2)
        b = _ind([1, 0], 0.2)
        assert select_final([a, b]) is a

    def test_empty_front(self):
        with pytest.raises(PermselError):
            select_final([])


class TestChromosomeHex:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for w in (1, 7, 8, 9, 31, 200):
            bits = (rng.random(w) < 0.5).astype(np.uint8)
            assert np.array_equal(hex_to_chromosome(chromosome_to_hex(bits), w), bits)


class TestEvolve:
    @pytest.fixture
    def run_args(self, small_regression, tiny_learner):
        part = split(small_regression, seed=0)
        return small_regression, part, tiny_learner

    def test_zero_generations_traces_initial_population(self, run_args):
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=0, seed=0)
        trace = evolve(ds, part, learner, cfg)
        assert len(trace.hypervolume) == 1

    def test_final_front_mutually_nondominated(self, run_args):
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=6, seed=1)
        trace = evolve(ds, part, learner, cfg)
        objs = [ind.objectives for ind in trace.front]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)

    def test_deterministic_run(self, run_args):
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=5, seed=2)
        t1 = evolve(ds, part, learner, cfg)
        t2 = evolve(ds, part, learner, cfg)
        assert t1.hypervolume == t2.hypervolume
        assert np.array_equal(t1.best.bits, t2.best.bits)
        assert t1.best.objectives == t2.best.objectives

    def test_elitism_best_merit_never_degrades(self, run_args):
        # generation g does not depend on how many generations follow it,
        # so runs of 0..12 generations trace one search step by step
        ds, part, learner = run_args
        ctx = build_context(ds, part, "v1", learner)
        hist = [evolve_on_context(ctx, MoeaConfig(population_size=8, generations=g,
                                                  seed=3)).best.merit
                for g in range(13)]
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_without_crossover_children_copy_their_parents(self, run_args):
        # with no crossover and no mutation every child is a copy of a
        # parent, so no chromosome outside the initial population appears
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=4, seed=7,
                         crossover_prob=0.0, mutation_prob=0.0)
        trace = evolve(ds, part, learner, cfg)
        initial = initialize(ds.n_features, cfg, np.random.default_rng([cfg.seed, 0]))
        assert {ind.bits.tobytes() for ind in trace.front} \
            <= {bits.tobytes() for bits in initial}

    def test_hypervolume_entries_nonnegative(self, run_args):
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=6, seed=4)
        trace = evolve(ds, part, learner, cfg)
        assert all(h >= 0.0 for h in trace.hypervolume)

    def test_trace_json_shape(self, run_args):
        ds, part, learner = run_args
        cfg = MoeaConfig(population_size=8, generations=3, seed=5)
        trace = evolve(ds, part, learner, cfg)
        d = trace.to_json_dict()
        assert d["seed"] == 5
        assert d["variant"] == "v1"
        assert len(d["hypervolume"]) == 4
        merit_value, card, hexmask = d["front"][0]
        bits = hex_to_chromosome(hexmask, ds.n_features)
        assert int(bits.sum()) == card
        best_bits = hex_to_chromosome(d["best"]["chromosome_hex"], ds.n_features)
        assert np.array_equal(best_bits, trace.best.bits)

    def test_v2_uses_merged_rows(self, small_regression, tiny_learner):
        part = split(small_regression, seed=0)
        cfg = MoeaConfig(population_size=8, generations=2, seed=6, variant="v2")
        trace = evolve(small_regression, part, tiny_learner, cfg)
        assert trace.config.variant == "v2"

    def test_config_validation(self):
        with pytest.raises(PermselError):
            MoeaConfig(population_size=7).validate()
        with pytest.raises(PermselError):
            MoeaConfig(population_size=2).validate()
        with pytest.raises(PermselError):
            MoeaConfig(crossover_prob=1.5).validate()
        with pytest.raises(PermselError):
            MoeaConfig(variant="v3").validate()

    def test_wide_fixture_reduces_cardinality(self):
        from permsel.dataset import SyntheticSpec, generate_synthetic
        ds = generate_synthetic(SyntheticSpec(100, 200, 10, 0.1, seed=9))
        part = split(ds, seed=0)
        cfg = MoeaConfig(population_size=8, generations=5, seed=0)
        trace = evolve(ds, part, LearnerSpec(n_trees=3, seed=0), cfg)
        assert trace.best.cardinality < 200

    def test_evolve_on_context_with_stub(self):
        # stub model reading only feature 0: merit pressure should keep it
        rng = np.random.default_rng(11)
        from permsel.dataset import RowView, Task
        X = rng.standard_normal((60, 6))
        y = (X[:, 0] > 0).astype(np.int64)
        rows = RowView(X, y, Task.CLASSIFICATION, class_count=2)
        model = StubModel(lambda r: int(r[0] > 0), n_features=6)
        ctx = EvalContext(model, rows, Metric.ACC)
        cfg = MoeaConfig(population_size=12, generations=25, seed=0, init_prob=0.5)
        trace = evolve_on_context(ctx, cfg)
        assert trace.best.bits[0] == 1
        assert trace.best.merit > 0.0
