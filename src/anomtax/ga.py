"""Genetic algorithm over MLP initial-weight genomes.

Each individual is a flat weight vector; its fitness is the test-set error
of an MLP trained from exactly those initial weights with the same
configuration as the conventional network being compared against, which
is trained and scored by the same function.  Blend
crossover from a random cut point, single-gene additive mutation with
clamping to [0, 1], and elitism.  Every individual is a parent: selection
only orders the pool, the best in rank order and the rest shuffled with
rank-scaled weights.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .evaluation import confusion, test_error
from .mlp import (
    Topology,
    TrainedModel,
    TrainingConfig,
    TrainingDivergedError,
    forward_batch,
    init_weights,
    one_hot,
    train_scg,
)

__all__ = [
    "Individual",
    "GaConfig",
    "CycleStats",
    "GaRun",
    "PreparedSplits",
    "prepare_splits",
    "init_population",
    "crossover",
    "apply_mutation",
    "mutate",
    "score",
    "evaluate_fitness",
    "select",
    "run_ga",
    "conventional",
]

log = logging.getLogger(__name__)


class Individual:
    """A genome, and once evaluated its fitness, the model trained from it
    and that model's test scores and confusion counts (all three None when
    the training diverged).  ``matrix`` is the ``(k, k)`` int array
    :func:`~anomtax.evaluation.confusion` returns, indexed
    ``[predicted, target]``."""

    __slots__ = ("genome", "fitness", "model", "scores", "matrix")

    def __init__(self, genome: np.ndarray, fitness: float | None = None):
        self.genome = genome
        self.fitness = fitness
        self.model = None
        self.scores = None
        self.matrix = None


class GaConfig:
    __slots__ = ("cycles", "population_size", "crossover_alpha",
                 "mutation_rate", "selection_rate", "seed")

    def __init__(self, cycles: int = 20, population_size: int = 15,
                 crossover_alpha: float = 0.3, mutation_rate: float = 0.1,
                 selection_rate: float = 0.7, seed: int = 0):
        if cycles < 1 or population_size < 1:
            raise ValueError("cycles and population_size must be >= 1")
        for name, v in (("crossover_alpha", crossover_alpha),
                        ("mutation_rate", mutation_rate),
                        ("selection_rate", selection_rate)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        self.cycles = cycles
        self.population_size = population_size
        self.crossover_alpha = crossover_alpha
        self.mutation_rate = mutation_rate
        self.selection_rate = selection_rate
        self.seed = seed


class CycleStats(NamedTuple):
    cycle: int
    best_fitness: float
    mean_fitness: float


class GaRun(NamedTuple):
    cycles: list
    best: Individual
    evaluations: int


class PreparedSplits(NamedTuple):
    """Frozen arrays all individuals are scored against."""

    x_train: np.ndarray
    t_train: np.ndarray
    x_val: np.ndarray
    t_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def prepare_splits(train: Dataset, val: Dataset, test: Dataset,
                   num_classes: int) -> PreparedSplits:
    """One-hot the training/validation anomaly labels over ``num_classes``
    classes, keep test labels as ids."""
    def ids(ds):
        if ds.labels is None:
            raise ValueError("split has no anomaly labels")
        return np.asarray(ds.labels, dtype=np.int64)

    return PreparedSplits(
        x_train=train.features, t_train=one_hot(ids(train), num_classes),
        x_val=val.features, t_val=one_hot(ids(val), num_classes),
        x_test=test.features, y_test=ids(test),
    )


def init_population(cfg: GaConfig, topology: Topology, rng) -> list:
    """Uniform [0, 1] genomes; conceptually a matrix with one row per
    individual and one column per weight/bias."""
    return [Individual(init_weights(topology, rng))
            for _ in range(cfg.population_size)]


def crossover(parent1, parent2, k: int, alpha: float):
    """Single-cut blend crossover.

    Genes before the cut (1-based positions 1..k-1) are copied from each
    infant's own parent; genes from the cut onward are blended
    own*alpha + other*(1-alpha).  The cut must satisfy 2 <= k <= n-1.
    """
    p1 = np.asarray(parent1, dtype=np.float64)
    p2 = np.asarray(parent2, dtype=np.float64)
    if p1.shape != p2.shape or p1.ndim != 1:
        raise ValueError("parents must be equal-length vectors")
    n = p1.size
    if not 2 <= k <= n - 1:
        raise ValueError(f"cut index {k} outside [2, {n - 1}]")
    infant1 = p1.copy()
    infant2 = p2.copy()
    infant1[k - 1:] = p1[k - 1:] * alpha + p2[k - 1:] * (1.0 - alpha)
    infant2[k - 1:] = p2[k - 1:] * alpha + p1[k - 1:] * (1.0 - alpha)
    return infant1, infant2


def apply_mutation(genome, j: int, magnitude: float,
                   direction_draw: float) -> np.ndarray:
    """Shift gene j by +-magnitude (sign from the direction draw) and clamp
    the result into [0, 1]."""
    out = np.array(genome, dtype=np.float64)
    step = -magnitude if direction_draw < 0.5 else magnitude
    out[j] = min(1.0, max(0.0, out[j] + step))
    return out


def mutate(genome: np.ndarray, cfg: GaConfig, rng) -> np.ndarray:
    """With probability ``mutation_rate`` mutate one uniformly chosen gene,
    otherwise return the genome unchanged."""
    if rng.random() >= cfg.mutation_rate:
        return genome
    j = int(rng.integers(genome.size))
    magnitude = rng.random()
    direction_draw = rng.random()
    return apply_mutation(genome, j, magnitude, direction_draw)


def score(model: TrainedModel, x, y) -> tuple:
    """A model's output scores on ``x`` from one forward pass, and the
    confusion counts of their argmax against the class ids ``y``, over the
    model's ``output_size`` classes."""
    scores = forward_batch(model.weights, model.topology, x)
    return scores, confusion(y, scores.argmax(axis=1),
                             model.topology.output_size)


def evaluate_fitness(individual: Individual, topology: Topology,
                     splits: PreparedSplits, tcfg: TrainingConfig) -> float:
    """Train from the genome and :func:`score` the test split; the trained
    model, its scores and confusion counts, and the fitness (their test
    error) are cached on the individual.  A diverged training counts
    as the worst fitness, 1.0, and leaves the other three None."""
    if individual.fitness is not None:
        return individual.fitness
    try:
        individual.model = train_scg(individual.genome, topology,
                                     splits.x_train, splits.t_train,
                                     splits.x_val, splits.t_val, tcfg)
    except TrainingDivergedError as exc:
        log.warning("training diverged during fitness evaluation: %s", exc)
        individual.fitness = 1.0
        return individual.fitness
    individual.scores, individual.matrix = score(
        individual.model, splits.x_test, splits.y_test)
    individual.fitness = test_error(individual.matrix)
    return individual.fitness


def select(population: list, cfg: GaConfig, rng) -> list:
    """The parent pool, which is the whole population reordered: the best
    floor(rate*size) in rank order (ties to the lower index), then the
    rest in one draw without replacement weighted by 1/sqrt(rank) (rank 1
    = best of the rest)."""
    ranked = sorted(population, key=lambda ind: ind.fitness)
    n_keep = int(cfg.selection_rate * len(ranked))
    rest = ranked[n_keep:]
    if rest:
        weights = 1.0 / np.sqrt(np.arange(1, len(rest) + 1))
        weights /= weights.sum()
        order = rng.choice(len(rest), len(rest), replace=False, p=weights)
        rest = [rest[int(i)] for i in order]
    return ranked[:n_keep] + rest


def _pairs(pool):
    out = [(pool[i], pool[i + 1]) for i in range(0, len(pool) - 1, 2)]
    if len(pool) % 2:
        out.append((pool[-1], pool[0]))
    return out


def run_ga(cfg: GaConfig, topology: Topology, splits: PreparedSplits,
           tcfg: TrainingConfig) -> GaRun:
    """Evolve initial weights for up to ``cycles`` generations.

    Per cycle: evaluate everyone, stop if the best test error is 0, select
    a parent pool, pair adjacent pool members (an odd pool pairs its last
    member with the first), crossover at a random cut, mutate, and carry
    the best individual over unmodified.  The carried-over individual
    keeps its fitness, trained model and scores, so each cycle after the
    first trains ``population_size - 1`` new individuals, and the best
    model and scores are the ones its evaluation made.  A best error of 0
    ends the run: that individual is carried over at index 0 and ties go
    to the lowest index, so no later cycle could replace it.  Raises
    ``TrainingDivergedError`` when the best individual's training
    diverged.
    """
    rng = np.random.default_rng(cfg.seed)
    population = init_population(cfg, topology, rng)
    evaluations = 0
    stats: list[CycleStats] = []

    def evaluate_all(pop):
        nonlocal evaluations
        todo = [ind for ind in pop if ind.fitness is None]
        for ind in todo:
            evaluate_fitness(ind, topology, splits, tcfg)
        evaluations += len(todo)

    for cycle in range(1, cfg.cycles + 1):
        evaluate_all(population)
        fits = [ind.fitness for ind in population]
        best_idx = min(range(len(fits)), key=lambda i: (fits[i], i))
        best = population[best_idx]
        stats.append(CycleStats(cycle, best.fitness,
                                float(np.mean(fits))))
        log.info("cycle %d: best %.4f mean %.4f", cycle, best.fitness,
                 stats[-1].mean_fitness)
        if best.fitness == 0.0 or cycle == cfg.cycles:
            break
        pool = select(population, cfg, rng)
        infants = []
        n = topology.genome_length
        for parent_a, parent_b in _pairs(pool):
            k = int(rng.integers(2, n))
            child_a, child_b = crossover(parent_a.genome, parent_b.genome,
                                         k, cfg.crossover_alpha)
            infants.append(Individual(mutate(child_a, cfg, rng)))
            infants.append(Individual(mutate(child_b, cfg, rng)))
        population = [best] + infants[:cfg.population_size - 1]

    if best.model is None:
        raise TrainingDivergedError(
            "training diverged for the best GA genome")
    return GaRun(stats, best, evaluations)


def conventional(splits: PreparedSplits, topology: Topology,
                 tcfg: TrainingConfig, seed: int) -> Individual:
    """The conventionally initialized network, trained and scored by
    :func:`evaluate_fitness` like every GA individual.

    Its uniform [0, 1] initial weights come from a substream of ``seed``,
    the GA seed, so it is independent of the GA run but reproducible from
    the same seed.  Raises ``TrainingDivergedError`` when its training
    diverged.
    """
    nn = Individual(init_weights(topology, np.random.default_rng([seed, 1])))
    evaluate_fitness(nn, topology, splits, tcfg)
    if nn.model is None:
        raise TrainingDivergedError(
            "training diverged for the conventional network")
    return nn
