import numpy as np
import pytest

from anomtax import ga
from anomtax.data import stratified_split
from anomtax.evaluation import confusion
from anomtax.evaluation import test_error as error_rate
from anomtax.ga import (
    Individual,
    PreparedSplits,
    apply_mutation,
    conventional,
    crossover,
    evaluate_fitness,
    mutate,
    prepare_splits,
    run_ga,
    select,
)
from anomtax.mlp import (
    Topology,
    forward_batch,
    one_hot,
)
from conftest import make_dataset, shipped

SHIPPED = shipped()
GA = SHIPPED.ga
TOPO = Topology(2, 4, 2)
TCFG = SHIPPED.training._replace(max_epochs=40)


def tiny_splits(seed=0):
    """Small separable 2-class problem for fast fitness evaluations."""
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal((0.25, 0.25), 0.06, (30, 2)),
                   rng.normal((0.75, 0.75), 0.06, (30, 2))])
    ds = make_dataset(x, labels=[0] * 30 + [1] * 30)
    train, val, test = stratified_split(ds, SHIPPED.ratios, seed)
    return prepare_splits(train, val, test, 2)


def unsolvable_splits(seed=0):
    """:func:`tiny_splits` with its first test point held twice, under two
    different labels, so that no model scores a test error of 0 and the
    GA runs all its cycles."""
    splits = tiny_splits(seed)
    return splits._replace(
        x_test=np.vstack([splits.x_test, splits.x_test[:1]]),
        y_test=np.append(splits.y_test, 1 - splits.y_test[0]))


def one_class_splits():
    """Training and test rows of one class only: a model trained on them
    predicts that class, so it scores a test error of 0."""
    rng = np.random.default_rng(2)
    x = rng.normal((0.5, 0.5), 0.1, (24, 2))
    splits = PreparedSplits(
        x_train=x, t_train=one_hot(np.zeros(24, dtype=int), 2),
        x_val=np.zeros((0, 2)), t_val=np.zeros((0, 2)),
        x_test=x[:8], y_test=np.zeros(8, dtype=int))
    return splits, rng


class TestInitPopulation:
    """The first generation ``run_ga`` evaluates: ``population_size``
    uniform [0, 1] genomes drawn from the GA seed."""

    @staticmethod
    def initial_genomes(monkeypatch, cfg, topology):
        seen = []

        def record(genome, topology, splits, tcfg):
            seen.append(genome)
            return Individual(genome, 0.5, object(), None, None)

        monkeypatch.setattr(ga, "evaluate_fitness", record)
        run_ga(cfg._replace(cycles=1), topology, None, TCFG)
        return seen

    def test_size_and_genome_length(self, monkeypatch):
        cfg = GA._replace(population_size=15, seed=0)
        pop = self.initial_genomes(monkeypatch, cfg, Topology(2, 10, 4))
        assert len(pop) == 15
        assert all(genome.shape == (74,) for genome in pop)
        assert all(0 <= genome.min() and genome.max() <= 1
                   for genome in pop)

    def test_deterministic(self, monkeypatch):
        cfg = GA._replace(seed=9)
        a = self.initial_genomes(monkeypatch, cfg, TOPO)
        b = self.initial_genomes(monkeypatch, cfg, TOPO)
        assert len(a) == len(b) == cfg.population_size
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_individual(self, monkeypatch):
        pop = self.initial_genomes(monkeypatch,
                                   GA._replace(population_size=1), TOPO)
        assert len(pop) == 1


class TestCrossover:
    def test_golden_example(self):
        i1, i2 = crossover(np.array([1.0, 2, 3, 4]), np.array([5.0, 6, 7, 8]),
                           k=3, alpha=0.3)
        np.testing.assert_allclose(i1, [1, 2, 5.8, 6.8], atol=1e-12)
        np.testing.assert_allclose(i2, [5, 6, 3.0 * 0.7 + 7 * 0.3,
                                        4 * 0.7 + 8 * 0.3], atol=1e-12)

    def test_identical_parents(self):
        p = np.linspace(0, 1, 10)
        i1, i2 = crossover(p, p, k=4, alpha=0.3)
        np.testing.assert_allclose(i1, p, atol=1e-15)
        np.testing.assert_allclose(i2, p, atol=1e-15)

    def test_alpha_one_is_identity(self):
        rng = np.random.default_rng(0)
        p1, p2 = rng.random(8), rng.random(8)
        i1, i2 = crossover(p1, p2, k=5, alpha=1.0)
        np.testing.assert_array_equal(i1, p1)
        np.testing.assert_array_equal(i2, p2)

    def test_matches_per_gene_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            p1, p2 = rng.random(n), rng.random(n)
            alpha = float(rng.random())
            for k in range(2, n):
                i1, i2 = crossover(p1, p2, k, alpha)
                for j in range(n):
                    if j + 1 < k:  # 1-based positions before the cut
                        e1, e2 = p1[j], p2[j]
                    else:
                        e1 = p1[j] * alpha + p2[j] * (1 - alpha)
                        e2 = p2[j] * alpha + p1[j] * (1 - alpha)
                    assert abs(i1[j] - e1) <= 1e-12
                    assert abs(i2[j] - e2) <= 1e-12


class TestMutation:
    def test_positive_step(self):
        out = apply_mutation(np.array([0.5]), 0, magnitude=0.2,
                             direction_draw=0.7)
        assert out[0] == pytest.approx(0.7, abs=1e-12)

    def test_negative_step_clamps(self):
        out = apply_mutation(np.array([0.1]), 0, magnitude=0.5,
                             direction_draw=0.2)
        assert out[0] == 0.0

    def test_rate_zero_never_mutates(self):
        rng = np.random.default_rng(2)
        g = rng.random(10)
        cfg = GA._replace(mutation_rate=0.0, seed=0)
        for _ in range(20):
            assert mutate(g, cfg, rng) is g

    def test_rate_one_always_mutates_one_gene(self):
        rng = np.random.default_rng(3)
        cfg = GA._replace(mutation_rate=1.0, seed=0)
        for _ in range(20):
            g = rng.random(10)
            out = mutate(g, cfg, rng)
            changed = np.flatnonzero(out != g)
            assert changed.size <= 1
            assert 0 <= out.min() and out.max() <= 1

    def test_genome_closure_under_many_operations(self):
        rng = np.random.default_rng(4)
        cfg = GA._replace(mutation_rate=0.8, seed=0)
        g1, g2 = rng.random(12), rng.random(12)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            g1, g2 = crossover(g1, g2, k, cfg.crossover_alpha)
            g1 = mutate(g1, cfg, rng)
            g2 = mutate(g2, cfg, rng)
            assert 0 <= g1.min() and g1.max() <= 1
            assert 0 <= g2.min() and g2.max() <= 1


def unscored(genome, fitness) -> Individual:
    """An individual with only what selection reads: genome and fitness."""
    return Individual(genome, fitness, None, None, None)


class TestSelect:
    def test_truncation_keeps_best(self):
        pop = [unscored(np.zeros(4), f) for f in (0.1, 0.5, 0.3)]
        pool = select(pop, GA._replace(population_size=3, seed=0),
                      np.random.default_rng(0))
        assert len(pool) == 3
        assert pool[0].fitness == 0.1 and pool[1].fitness == 0.3
        assert pool[2].fitness == 0.5  # only candidate left to sample

    def test_rate_one_pure_truncation(self):
        rng = np.random.default_rng(5)
        pop = [unscored(np.zeros(4), float(f)) for f in rng.random(6)]
        pool = select(pop, GA._replace(population_size=6, selection_rate=1.0,
                                       seed=0), rng)
        fits = [ind.fitness for ind in pool]
        assert fits == sorted(fits)

    def test_equal_fitness_gives_permutation(self):
        # the pool is always the whole population: the rate only sets how
        # many of the best lead it in rank order, equal fitnesses or not
        rng = np.random.default_rng(1)
        for size in (1, 2, 5, 15, 31):
            for rate in (0.0, 0.1, 0.33, 0.5, 0.7, 0.9, 1.0):
                for fits in (np.full(size, 0.5), rng.random(size)):
                    pop = [unscored(np.full(4, i / 10), float(f))
                           for i, f in enumerate(fits)]
                    pool = select(pop, GA._replace(population_size=size,
                                                   selection_rate=rate,
                                                   seed=0),
                                  rng)
                    assert sorted(map(id, pool)) == sorted(map(id, pop))
                    # ties go to the lower index
                    ranked = sorted(range(size), key=lambda i: (fits[i], i))
                    n_keep = int(rate * size)
                    assert pool[:n_keep] == [pop[i] for i in ranked[:n_keep]]


class TestEvaluateFitness:
    def test_perfect_genome_scores_zero(self):
        splits = tiny_splits()
        # train once to find weights that solve the problem, then inject
        # the trained weights as a genome evaluated without training steps
        from anomtax.mlp import init_weights, train_scg
        w0 = init_weights(TOPO, np.random.default_rng(0))
        model = train_scg(w0, TOPO, splits.x_train, splits.t_train,
                          splits.x_train[:0], splits.t_train[:0], TCFG)
        pred = forward_batch(model.weights, TOPO, splits.x_test).argmax(axis=1)
        assert (pred != splits.y_test).sum() == 0
        ind = evaluate_fitness(np.clip(model.weights, 0, 1), TOPO, splits,
                               TCFG)
        assert ind.fitness == 0.0

    def test_fitness_pure(self):
        # the same genome gives the same individual, and training from it
        # leaves the genome as it was
        splits = tiny_splits()
        genome = np.random.default_rng(1).random(TOPO.genome_length)
        before = genome.copy()
        a = evaluate_fitness(genome, TOPO, splits, TCFG)
        b = evaluate_fitness(genome, TOPO, splits, TCFG)
        assert a.fitness == b.fitness
        assert a.model.weights.tobytes() == b.model.weights.tobytes()
        assert a.genome is genome
        assert genome.tobytes() == before.tobytes()

    def test_single_class_test_set(self):
        one_class, rng = one_class_splits()
        genome = rng.random(TOPO.genome_length)
        assert evaluate_fitness(genome, TOPO, one_class, TCFG).fitness == 0.0


class TestRunGa:
    def test_zero_error_stops_first_cycle(self):
        splits, _ = one_class_splits()
        cfg = GA._replace(cycles=5, population_size=3, seed=0)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert len(run.cycles) == 1
        assert run.cycles[0].best_fitness == run.best.fitness == 0.0
        assert run.evaluations == cfg.population_size

    def test_elitism_best_non_increasing(self):
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=6, population_size=5, seed=1)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert len(run.cycles) == cfg.cycles
        best = [c.best_fitness for c in run.cycles]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_evaluation_budget(self):
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=4, population_size=5, seed=2)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert len(run.cycles) == cfg.cycles
        assert run.evaluations <= 4 * 5

    def test_single_individual(self):
        # a population of one breeds with itself and keeps no infant, so
        # it is trained once and carried through every cycle
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=3, population_size=1, seed=4)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert run.evaluations == 1
        assert len(run.cycles) == cfg.cycles
        assert len({c.best_fitness for c in run.cycles}) == 1

    def test_deterministic(self):
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=3, population_size=4, seed=3)
        a = run_ga(cfg, TOPO, splits, TCFG)
        b = run_ga(cfg, TOPO, splits, TCFG)
        assert len(a.cycles) == cfg.cycles
        assert a.cycles == b.cycles
        np.testing.assert_array_equal(a.best.genome, b.best.genome)

    def test_best_model_is_the_one_its_evaluation_trained(self,
                                                          monkeypatch):
        splits = unsolvable_splits()
        trainings = []
        real_train = ga.train_scg

        def counting(*args, **kwargs):
            trainings.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(ga, "train_scg", counting)
        cfg = GA._replace(cycles=3, population_size=4, seed=6)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert len(run.cycles) == cfg.cycles
        assert len(trainings) == run.evaluations
        again = real_train(run.best.genome, TOPO, splits.x_train,
                           splits.t_train, splits.x_val, splits.t_val, TCFG)
        model = run.best.model
        assert (model.epochs, model.stop_reason) == (again.epochs,
                                                     again.stop_reason)
        assert model.weights.tobytes() == again.weights.tobytes()


def assert_scored_by_its_fitness(ind, splits):
    """The individual's fitness is the test error of its stored count
    array, over the model's two output classes, and its stored scores are
    its model's forward pass on the test rows."""
    assert ind.fitness == error_rate(ind.matrix)
    assert ind.matrix.shape == (2, 2) and ind.matrix.dtype.kind == "i"
    assert ind.matrix.sum() == splits.y_test.size
    again = forward_batch(ind.model.weights, ind.model.topology,
                          splits.x_test)
    assert ind.scores.tobytes() == again.tobytes()
    np.testing.assert_array_equal(
        ind.matrix, confusion(splits.y_test, again.argmax(axis=1), 2))


class TestScore:
    def test_conventional_and_best_keep_their_scoring(self):
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=3, population_size=4, seed=5)
        assert_scored_by_its_fitness(
            conventional(splits, TOPO, TCFG, cfg.seed), splits)
        run = run_ga(cfg, TOPO, splits, TCFG)
        assert len(run.cycles) == cfg.cycles
        assert_scored_by_its_fitness(run.best, splits)


class TestCompare:
    def test_report_consistency_and_determinism(self):
        splits = unsolvable_splits()
        cfg = GA._replace(cycles=3, population_size=4, seed=5)
        (nn_a, ga_a), (nn_b, ga_b) = [
            (conventional(splits, TOPO, TCFG, cfg.seed),
             run_ga(cfg, TOPO, splits, TCFG)) for _ in range(2)]
        assert len(ga_a.cycles) == cfg.cycles
        assert nn_a.fitness == nn_b.fitness
        assert ga_a.best.fitness == ga_b.best.fitness
        np.testing.assert_array_equal(nn_a.model.weights, nn_b.model.weights)
        # the conventional network's fitness is its own test error
        pred = forward_batch(nn_a.model.weights, TOPO,
                             splits.x_test).argmax(axis=1)
        assert nn_a.fitness == error_rate(confusion(splits.y_test, pred, 2))
