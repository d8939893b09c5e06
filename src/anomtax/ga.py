"""Genetic algorithm over MLP initial-weight genomes.

Each individual is a flat weight vector with its fitness: the test-set
error of an MLP trained from exactly those initial weights with the same
configuration as the conventional network being compared against, which
is trained and scored by the same function.  An individual exists only
evaluated: :func:`evaluate_fitness` makes it from a genome.  Blend
crossover from a random cut point, single-gene additive mutation with
clamping to [0, 1], and elitism.  Every individual is a parent: selection
only orders the pool, the best in rank order and the rest shuffled with
rank-scaled weights.
"""

import logging
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .evaluation import confusion, test_error
from .mlp import (
    Topology,
    TrainedModel,
    TrainingConfig,
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


class Individual(NamedTuple):
    """A genome, its fitness, and the model trained from it with that
    model's test scores and confusion counts.  ``matrix`` is the ``(k, k)``
    int array :func:`~anomtax.evaluation.confusion` returns, indexed
    ``[predicted, target]``."""

    genome: np.ndarray
    fitness: float
    model: TrainedModel
    scores: np.ndarray
    matrix: np.ndarray


class GaConfig(NamedTuple):
    cycles: int
    population_size: int
    crossover_alpha: float
    mutation_rate: float
    selection_rate: float
    seed: int


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
    return PreparedSplits(
        x_train=train.features, t_train=one_hot(train.labels, num_classes),
        x_val=val.features, t_val=one_hot(val.labels, num_classes),
        x_test=test.features, y_test=test.labels,
    )


def crossover(parent1, parent2, k: int, alpha: float):
    """Single-cut blend crossover.

    Genes before the cut (1-based positions 1..k-1) are copied from each
    infant's own parent; genes from the cut onward are blended
    own*alpha + other*(1-alpha).  :func:`run_ga` draws the cut from
    2 <= k <= n-1.
    """
    infant1, infant2 = parent1.copy(), parent2.copy()
    infant1[k - 1:] = (parent1[k - 1:] * alpha
                       + parent2[k - 1:] * (1.0 - alpha))
    infant2[k - 1:] = (parent2[k - 1:] * alpha
                       + parent1[k - 1:] * (1.0 - alpha))
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


def evaluate_fitness(genome: np.ndarray, topology: Topology,
                     splits: PreparedSplits,
                     tcfg: TrainingConfig) -> Individual:
    """The individual of ``genome``: train from it and :func:`score` the
    test split; the fitness is their test error."""
    model = train_scg(genome, topology, splits.x_train, splits.t_train,
                      splits.x_val, splits.t_val, tcfg)
    scores, matrix = score(model, splits.x_test, splits.y_test)
    return Individual(genome, test_error(matrix), model, scores, matrix)


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

    The first generation is ``population_size`` uniform [0, 1] genomes,
    drawn first and then evaluated.  Per cycle: stop if the best test error
    is 0, select a parent pool, pair adjacent pool members (an odd pool
    pairs its last member with the first), crossover at a random cut,
    mutate, and carry the best individual over unmodified.  An individual
    exists only evaluated, so only the infants kept for the next
    generation are trained: ``population_size - 1`` per cycle after the
    first, and the best model and scores are the ones its evaluation
    made.  A best error of 0 ends the run: that individual is carried
    over at index 0 and ties go to the lowest index, so no later cycle
    could replace it.
    """
    rng = np.random.default_rng(cfg.seed)
    genomes = [init_weights(topology, rng)
               for _ in range(cfg.population_size)]
    population = [evaluate_fitness(genome, topology, splits, tcfg)
                  for genome in genomes]
    evaluations = len(population)
    stats: list[CycleStats] = []

    for cycle in range(1, cfg.cycles + 1):
        fits = [ind.fitness for ind in population]
        best = population[fits.index(min(fits))]  # ties: the lowest index
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
            infants.append(mutate(child_a, cfg, rng))
            infants.append(mutate(child_b, cfg, rng))
        kept = infants[:cfg.population_size - 1]
        population = [best] + [evaluate_fitness(genome, topology, splits,
                                                tcfg) for genome in kept]
        evaluations += len(kept)

    return GaRun(stats, best, evaluations)


def conventional(splits: PreparedSplits, topology: Topology,
                 tcfg: TrainingConfig, seed: int) -> Individual:
    """The conventionally initialized network, trained and scored by
    :func:`evaluate_fitness` like every GA individual.

    Its uniform [0, 1] initial weights come from a substream of ``seed``,
    the GA seed, so it is independent of the GA run but reproducible from
    the same seed.
    """
    genome = init_weights(topology, np.random.default_rng([seed, 1]))
    return evaluate_fitness(genome, topology, splits, tcfg)
