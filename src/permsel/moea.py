"""Two-objective NSGA-II over binary feature-subset chromosomes.

Objectives, both minimized: the negated permutation merit of the subset,
and its cardinality. Each individual's merit is evaluated once at
creation from a stream derived from (seed, generation, index) and cached,
so results are identical under any evaluation schedule.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, Partition
from .errors import PermselError, is_int, is_number
from .learner import LearnerSpec
from .permutation import EvalContext, build_context, merit


@dataclass(frozen=True)
class MoeaConfig:
    population_size: int = 50
    generations: int = 2000
    crossover_prob: float = 1.0
    mutation_prob: float = 0.02
    seed: int = 0
    variant: str = "v1"
    init_prob: float | None = None  # None: min(0.5, 100 / n_features)

    def validate(self, where: str = ""):
        """Raise for a value of the wrong type or range; ``where`` prefixes
        the key names in the message ("methods[0]." in a config)."""
        size = self.population_size
        if not is_int(size) or size < 4 or size % 2 != 0:
            raise PermselError(f"{where}population_size must be even and >= 4")
        for name in ("crossover_prob", "mutation_prob"):
            prob = getattr(self, name)
            if not (is_number(prob) and 0.0 <= prob <= 1.0):
                raise PermselError(f"{where}{name} must be in [0, 1]")
        if not is_int(self.generations) or self.generations < 0:
            raise PermselError(f"{where}generations must be a nonnegative integer")
        if not is_int(self.seed) or self.seed < 0:
            raise PermselError(f"{where}seed must be an integer >= 0, got {self.seed!r}")
        if self.variant not in ("v1", "v2"):
            raise PermselError(f"{where}variant must be 'v1' or 'v2'")
        p = self.init_prob
        if p is not None and not (is_number(p) and 0.0 <= p <= 1.0):
            raise PermselError(f"{where}init_prob must be null or in [0, 1]")


class Individual:
    """Chromosome plus cached minimization objectives (-merit, cardinality)."""

    __slots__ = ("bits", "objectives", "rank", "crowding")

    def __init__(self, bits: np.ndarray, merit_value: float):
        self.bits = bits
        self.objectives = (-merit_value, float(int(bits.sum())))
        self.rank = 0
        self.crowding = 0.0

    @property
    def merit(self) -> float:
        return -self.objectives[0]

    @property
    def cardinality(self) -> int:
        return int(self.objectives[1])


@dataclass
class RunTrace:
    """Everything a single evolutionary run produced."""

    hypervolume: list[float]
    front: list[Individual]
    best: Individual
    wall_time_seconds: float
    config: MoeaConfig
    metric_range: float = 1.0

    def selected_features(self) -> np.ndarray:
        return np.flatnonzero(self.best.bits)

    def to_json_dict(self) -> dict:
        front_sorted = sorted(self.front,
                              key=lambda ind: (ind.objectives[0], ind.objectives[1]))
        return {
            "seed": self.config.seed,
            "variant": self.config.variant,
            "config": {k: v for k, v in asdict(self.config).items()
                       if k not in ("seed", "variant")},
            "metric_range": self.metric_range,
            "hypervolume": list(self.hypervolume),
            "front": [[ind.merit, ind.cardinality, chromosome_to_hex(ind.bits)]
                      for ind in front_sorted],
            "best": {
                "merit": self.best.merit,
                "cardinality": self.best.cardinality,
                "chromosome_hex": chromosome_to_hex(self.best.bits),
            },
            "wall_time_seconds": self.wall_time_seconds,
        }


def chromosome_to_hex(bits: np.ndarray) -> str:
    """Pack a bit vector into hex (bit i = feature i, MSB-first per byte)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_chromosome(text: str, width: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    return np.unpackbits(raw)[:width]


def dominates(a, b) -> bool:
    """True iff a is no worse in every objective and better in at least one."""
    if len(a) != len(b):
        raise PermselError("objective vectors must have equal arity")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Partition objective vectors into Pareto fronts (indices, best first).

    Front 0 is in index order. A later front is ordered by the position
    of each member's last dominator in the front before it, then by
    index, which is the order Deb's counting sort releases them in.
    Crowding-distance ties, and so the survivors, depend on this order.
    """
    if len(objectives) == 0:
        raise PermselError("empty population")
    objs = np.asarray(objectives, dtype=float)
    a, b = objs[:, None, :], objs[None, :, :]
    dom = np.all(a <= b, axis=2) & np.any(a < b, axis=2)  # i dominates j
    n_dominators = dom.sum(axis=0)
    front = np.flatnonzero(n_dominators == 0)
    fronts: list[list[int]] = []
    while front.size:
        fronts.append(front.tolist())
        rows = dom[front]
        n_dominators -= rows.sum(axis=0)
        nxt = np.flatnonzero((n_dominators == 0) & rows.any(axis=0))
        last = len(front) - 1 - np.argmax(rows[::-1, nxt], axis=0)
        front = nxt[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(front_objectives) -> np.ndarray:
    """Crowding distances for one front of objective vectors.

    Boundary points per objective get +inf; interior points sum the
    range-normalized gap between their neighbors over the objectives.
    """
    objs = np.asarray(front_objectives, dtype=float)
    n = objs.shape[0]
    if n == 0:
        raise PermselError("empty front")
    dist = np.zeros(n)
    for m in range(objs.shape[1]):
        vals = objs[:, m]
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0:
            continue
        gaps = (vals[order[2:]] - vals[order[:-2]]) / span
        dist[order[1:-1]] += gaps
    return dist


def hux_crossover(p1: np.ndarray, p2: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Half-uniform crossover: swap exactly floor(H/2) of the differing bits."""
    if p1.shape != p2.shape:
        raise PermselError("parents must have equal length")
    c1, c2 = p1.copy(), p2.copy()
    diff = np.flatnonzero(p1 != p2)
    k = diff.size // 2
    if k > 0:
        swap = rng.choice(diff, size=k, replace=False)
        c1[swap] = p2[swap]
        c2[swap] = p1[swap]
    return c1, c2


def bit_flip_mutation(bits: np.ndarray, prob: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with the given probability."""
    if not (0.0 <= prob <= 1.0):
        raise PermselError("mutation probability must be in [0, 1]")
    flips = rng.random(bits.shape[0]) < prob
    return np.bitwise_xor(bits, flips.astype(np.uint8))


def initialize(n_features: int, cfg: MoeaConfig,
               rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded initial chromosomes, each bit set with the configured bias.

    The default bias min(0.5, 100 / n_features) keeps initial subsets
    small when the feature space is large.
    """
    if n_features < 1:
        raise PermselError("need at least one feature")
    p = cfg.init_prob if cfg.init_prob is not None else min(0.5, 100.0 / n_features)
    mat = (rng.random((cfg.population_size, n_features)) < p).astype(np.uint8)
    return [mat[i] for i in range(cfg.population_size)]


def hypervolume_2d(front_objectives, reference) -> float:
    """Exact area dominated by the points, bounded by the reference.

    Minimization convention: every point must be componentwise <= the
    reference. The area is accumulated as disjoint rectangles after
    sorting on the first objective.
    """
    pts = np.asarray(front_objectives, dtype=float).reshape(-1, 2)
    ref_x, ref_y = float(reference[0]), float(reference[1])
    if np.any(pts[:, 0] > ref_x) or np.any(pts[:, 1] > ref_y):
        raise PermselError("point beyond the reference")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    hv = 0.0
    y_prev = ref_y
    for x, y in pts[order]:
        if y < y_prev:
            hv += (ref_x - x) * (y_prev - y)
            y_prev = y
    return hv


def select_final(front: list[Individual]) -> Individual:
    """Front member with the best merit.

    Ties go to the smaller cardinality and then to the lexicographically
    smaller chromosome.
    """
    if not front:
        raise PermselError("empty front")
    return min(front, key=lambda ind: (ind.objectives[0], ind.objectives[1],
                                       tuple(ind.bits.tolist())))


def _tournament(pop: list[Individual], rng: np.random.Generator) -> Individual:
    i, j = rng.integers(0, len(pop), size=2)
    a, b = pop[int(i)], pop[int(j)]
    if (a.rank, -a.crowding) <= (b.rank, -b.crowding):
        return a
    return b


def _assign_ranks_and_crowding(pop: list[Individual]) -> list[list[int]]:
    objs = [ind.objectives for ind in pop]
    fronts = fast_nondominated_sort(objs)
    for rank, front in enumerate(fronts):
        dist = crowding_distance([objs[i] for i in front])
        for pos, i in enumerate(front):
            pop[i].rank = rank
            pop[i].crowding = float(dist[pos])
    return fronts


def _environmental_selection(pool: list[Individual], mu: int) -> list[Individual]:
    fronts = _assign_ranks_and_crowding(pool)
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) + len(front) <= mu:
            survivors.extend(pool[i] for i in front)
            continue
        need = mu - len(survivors)
        # fill by crowding; break crowding ties toward better objectives so
        # the best-merit member of a crowded front is never dropped
        members = sorted((pool[i] for i in front),
                         key=lambda ind: (-ind.crowding, ind.objectives[0],
                                          ind.objectives[1]))
        survivors.extend(members[:need])
        break
    return survivors


def _normalized_front_hv(pop: list[Individual], metric_range: float,
                         n_features: int) -> float:
    pts = [(max(-1.0, ind.objectives[0] / metric_range),
            min(1.0, ind.objectives[1] / (n_features + 1)))
           for ind in pop if ind.rank == 0]
    return hypervolume_2d(pts, (0.0, 1.0))


def evolve_on_context(ctx: EvalContext, cfg: MoeaConfig) -> RunTrace:
    """Run the generational loop against a prepared evaluation context."""
    cfg.validate()
    t0 = time.perf_counter()
    w = ctx.n_features
    mu = cfg.population_size
    metric_range = ctx.metric_range()

    init_rng = np.random.default_rng([cfg.seed, 0])
    chromosomes = initialize(w, cfg, init_rng)
    pop = [Individual(bits, merit(ctx, bits, np.random.default_rng([cfg.seed, 1, 0, i])))
           for i, bits in enumerate(chromosomes)]
    _assign_ranks_and_crowding(pop)
    hv_history = [_normalized_front_hv(pop, metric_range, w)]

    for gen in range(1, cfg.generations + 1):
        var_rng = np.random.default_rng([cfg.seed, 2, gen])
        child_bits: list[np.ndarray] = []
        while len(child_bits) < mu:
            pa = _tournament(pop, var_rng)
            pb = _tournament(pop, var_rng)
            if var_rng.random() < cfg.crossover_prob:
                c1, c2 = hux_crossover(pa.bits, pb.bits, var_rng)
            else:
                c1, c2 = pa.bits.copy(), pb.bits.copy()
            child_bits.append(bit_flip_mutation(c1, cfg.mutation_prob, var_rng))
            child_bits.append(bit_flip_mutation(c2, cfg.mutation_prob, var_rng))
        offspring = [
            Individual(bits, merit(ctx, bits,
                                   np.random.default_rng([cfg.seed, 1, gen, i])))
            for i, bits in enumerate(child_bits)
        ]
        pop = _environmental_selection(pop + offspring, mu)
        hv_history.append(_normalized_front_hv(pop, metric_range, w))

    front = [ind for ind in pop if ind.rank == 0]
    best = select_final(front)
    return RunTrace(
        hypervolume=hv_history,
        front=front,
        best=best,
        wall_time_seconds=time.perf_counter() - t0,
        config=cfg,
        metric_range=metric_range,
    )


def evolve(dataset: Dataset, partition: Partition, learner_spec: LearnerSpec,
           cfg: MoeaConfig) -> RunTrace:
    """Train the baseline model for the configured variant and search.

    The configuration is validated before any fit; ``build_context``
    chooses the fit and evaluation rows of the variant.
    """
    cfg.validate()
    return evolve_on_context(build_context(dataset, partition, cfg.variant,
                                           learner_spec), cfg)
