import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from anomtax import mlp
from anomtax.mlp import (
    SCG_CONVERGENCE_TOL,
    Topology,
    TrainedModel,
    forward_batch,
    init_weights,
    load_model,
    one_hot,
    save_model,
    train_scg,
    unpack_weights,
)
from conftest import shipped

TRAINING = shipped().training


def predicted(model, x):
    return forward_batch(model.weights, model.topology,
                         np.array(x, dtype=np.float64)).argmax(axis=1)


def untrained(topo, weights):
    """A model of ``weights`` that no training made."""
    return TrainedModel(topo, weights, 0, "loaded")


def train(w0, topo, x, t, cfg=TRAINING):
    """``train_scg`` with no validation rows."""
    return train_scg(w0, topo, x, t, x[:0], t[:0], cfg)


def validation_mse(weights, topo, x, t, x_val, t_val):
    """The validation MSE at canonical ``weights``, by the pass that
    ``train_scg`` scores the validation rows with."""
    batch = mlp._Batch(topo, np.concatenate([x, x_val]),
                       np.concatenate([t, t_val]), x.shape[0])
    order, _ = mlp._internal_order(topo)
    return batch.loss(mlp._Genome(topo, weights[order]))[1]


def two_blob_problem(seed, n_per=50):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal((0.2, 0.2), 0.05, (n_per, 2)),
                   rng.normal((0.8, 0.8), 0.05, (n_per, 2))])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


class TestTopology:
    def test_genome_length_default(self):
        assert Topology(2, shipped().hidden, 4).genome_length == 74

    def test_genome_length_custom(self):
        assert Topology(3, 5, 2).genome_length == (4 * 5) + (6 * 2)

    def test_rejects_zero_layer(self, tmp_path):
        # a Topology holds whatever it is given, so a zero-size layer can
        # be saved; load_model is where a topology from a file is checked
        path = tmp_path / "model.txt"
        save_model(untrained(Topology(0, 5, 2), [0.5] * 12), path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 1: expected three positive layer sizes, "
                "got '0 5 2'")):
            load_model(path)


class TestInitWeights:
    def test_random_range_and_length(self):
        topo = Topology(2, 10, 4)
        w = init_weights(topo, np.random.default_rng(0))
        assert w.shape == (74,)
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_seeded_determinism(self):
        topo = Topology(2, 10, 4)
        a = init_weights(topo, np.random.default_rng(5))
        b = init_weights(topo, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestForward:
    def test_zero_weights_zero_output(self):
        topo = Topology(2, 10, 4)
        out = forward_batch(np.zeros(topo.genome_length), topo,
                            np.array([[0.3, -0.7]]))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_outputs_inside_open_interval(self):
        topo = Topology(2, 10, 4)
        rng = np.random.default_rng(1)
        w = rng.random(topo.genome_length)
        for _ in range(20):
            out = forward_batch(w, topo, rng.normal(0, 3, (1, 2)))
            assert np.all(out > -1) and np.all(out < 1)

    def test_tiny_net_nested_tanh(self):
        topo = Topology(1, 1, 1)
        w = np.array([1.0, 0.0, 1.0, 0.0])  # w1, b1, w2, b2
        out = forward_batch(w, topo, np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(math.tanh(math.tanh(0.5)),
                                          abs=1e-15)

    def test_unpack_views_cover_genome_in_order(self):
        topo = Topology(3, 4, 2)
        w = np.random.default_rng(2).random(topo.genome_length)
        views = unpack_weights(w, topo)
        assert [v.shape for v in views] == [(4, 3), (4,), (2, 4), (2,)]
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in views]), w)
        views[2][1, 0] = -7.0  # a view, not a copy
        assert w[3 * 4 + 4 + 4] == -7.0


class TestMseAndGradient:
    def test_zero_at_exact_fit(self):
        topo = Topology(2, 3, 2)
        rng = np.random.default_rng(3)
        w = rng.random(topo.genome_length)
        x = rng.random((6, 2))
        targets = forward_batch(w, topo, x)  # loss floor is exactly zero
        loss, grad = mse_and_gradient(w, topo, x, targets)
        assert loss == 0.0
        assert np.linalg.norm(grad) == pytest.approx(0.0, abs=1e-15)

    def test_matches_central_differences(self):
        topo = Topology(2, 10, 4)
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = rng.random(topo.genome_length)
            x = rng.random((7, 2))
            t = one_hot(rng.integers(0, 4, 7), 4)
            _, grad = mse_and_gradient(w, topo, x, t)
            h = 1e-6
            for i in rng.choice(topo.genome_length, 15, replace=False):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (mse_and_gradient(wp, topo, x, t)[0]
                      - mse_and_gradient(wm, topo, x, t)[0]) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_duplication_invariance(self):
        topo = Topology(2, 4, 3)
        rng = np.random.default_rng(5)
        w = rng.random(topo.genome_length)
        x = rng.random((5, 2))
        t = one_hot(rng.integers(0, 3, 5), 3)
        loss1, grad1 = mse_and_gradient(w, topo, x, t)
        loss2, grad2 = mse_and_gradient(w, topo, np.vstack([x, x]),
                                        np.vstack([t, t]))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_allclose(grad1, grad2, atol=1e-15)

class TestTrainScg:
    def test_separable_reaches_zero_misclassification(self):
        x, y = two_blob_problem(0)
        topo = Topology(2, 10, 2)
        t = one_hot(y, 2)
        w0 = init_weights(topo, np.random.default_rng(1))
        model = train(w0, topo, x, t)
        assert (predicted(model, x) != y).sum() == 0

    def test_training_mse_non_increasing(self):
        x, y = two_blob_problem(1)
        topo = Topology(2, 6, 2)
        w0, t = init_weights(topo, np.random.default_rng(2)), one_hot(y, 2)
        last = train(w0, topo, x, t).epochs
        # the run cut at max_epochs = e returns the weights after epoch e
        runs = [train(w0, topo, x, t, TRAINING._replace(max_epochs=e))
                for e in range(1, last + 1)]
        mse = [mse_and_gradient(run.weights, topo, x, t)[0] for run in runs]
        assert len(mse) > 1
        assert np.all(np.diff(mse) <= 1e-15)

    def test_patience_restores_best_validation_weights(self):
        x, y = two_blob_problem(3)
        topo = Topology(2, 6, 2)
        # validation drawn from a different distribution degrades while
        # training error falls
        rng = np.random.default_rng(4)
        x_val = rng.uniform(0, 1, (40, 2))
        t_val = one_hot(rng.integers(0, 2, 40), 2)
        w0, t = init_weights(topo, rng), one_hot(y, 2)
        cfg = TRAINING._replace(patience=1)
        model = train_scg(w0, topo, x, t, x_val, t_val, cfg)
        assert model.stop_reason == "patience"
        # the runs cut at max_epochs = e before the stop return the weights
        # after epoch e; the first with the lowest validation MSE is the best
        runs = [train_scg(w0, topo, x, t, x_val, t_val,
                          cfg._replace(max_epochs=e))
                for e in range(1, model.epochs)]
        assert runs and {run.stop_reason for run in runs} == {"max_epochs"}
        val = [validation_mse(run.weights, topo, x, t, x_val, t_val)
               for run in runs]
        assert same_bits(model.weights, runs[int(np.argmin(val))].weights)

    def test_injection_transparency_bit_identical(self):
        x, y = two_blob_problem(5)
        topo = Topology(2, 6, 2)
        w0 = init_weights(topo, np.random.default_rng(6))
        cfg = TRAINING._replace(max_epochs=40)
        a = train(w0, topo, x, one_hot(y, 2), cfg)
        b = train(w0, topo, x, one_hot(y, 2), cfg)
        assert (a.epochs, a.stop_reason) == (b.epochs, b.stop_reason)
        assert same_bits(a.weights, b.weights)

    def test_weights0_copied_not_written(self):
        x, y = two_blob_problem(2)
        topo = Topology(2, 4, 2)
        w0 = init_weights(topo, np.random.default_rng(3))
        kept = w0.copy()
        model = train(w0, topo, x, one_hot(y, 2),
                      TRAINING._replace(max_epochs=5))
        np.testing.assert_array_equal(w0, kept)
        assert not np.array_equal(model.weights, w0)

    def test_history_bounded_by_max_epochs(self):
        x, y = two_blob_problem(6)
        topo = Topology(2, 4, 2)
        model = train(init_weights(topo, np.random.default_rng(7)), topo, x,
                      one_hot(y, 2), TRAINING._replace(max_epochs=17))
        assert model.epochs <= 17
        assert model.stop_reason in {"patience", "max_epochs",
                                     "scg_converged"}


class TestPredict:
    def test_argmax(self):
        topo = Topology(2, 2, 4)
        # craft outputs (0.9, -0.2, 0.1, 0.0) via output biases, zero weights
        w = np.zeros(topo.genome_length)
        w[-4:] = np.arctanh([0.9, -0.2, 0.1, 0.0])
        model = untrained(topo, w)
        assert predicted(model, [[0.0, 0.0]]).tolist() == [0]

    def test_tie_breaks_low_index(self):
        topo = Topology(2, 2, 4)
        model = untrained(topo, np.zeros(topo.genome_length))
        assert predicted(model, [[0.5, 0.5]]).tolist() == [0]

    def test_trained_model_recovers_blob_classes(self):
        x, y = two_blob_problem(8)
        topo = Topology(2, 10, 2)
        model = train(init_weights(topo, np.random.default_rng(9)), topo, x,
                      one_hot(y, 2))
        assert predicted(model, [[0.2, 0.2], [0.8, 0.8]]).tolist() == \
            [0, 1]


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        x, y = two_blob_problem(10)
        topo = Topology(2, 5, 2)
        model = train(init_weights(topo, np.random.default_rng(11)), topo,
                      x, one_hot(y, 2), TRAINING._replace(max_epochs=30))
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert (back.topology.input_size, back.topology.hidden_size,
                back.topology.output_size) == (2, 5, 2)
        np.testing.assert_array_equal(back.weights, model.weights)

    def test_bad_weight_count(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("2 3 2\n0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ("a b c\n0.5\n", "line 1: expected three positive layer sizes, "
                          "got 'a b c'"),
        ("0 10 4\n0.5\n", "line 1: expected three positive layer sizes, "
                           "got '0 10 4'"),
        ("2 10\n0.5\n", "line 1: expected three positive layer sizes, "
                         "got '2 10'"),
    ] + [("1 1 1\n0.5\n\n0.5\n" + weight + "\n",
          f"line 5: weight must be a finite number, got '{weight}'")
         for weight in ("nan", "inf", "-inf", "abc", "1,5")],
        ids=["letters", "zero-size", "two-sizes", "nan", "inf", "-inf",
             "abc", "comma"])
    def test_malformed_line_named(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: {message}")):
            load_model(path)


class TestOneHot:
    def test_encoding(self):
        np.testing.assert_array_equal(
            one_hot([0, 2], 3), [[1, 0, 0], [0, 0, 1]])

# ---------------------------------------------------------------------------
# Bit-identity oracle: the loss/gradient kernel and the SCG loop in plain
# numpy, with train_scg's formulas: the genome in internal order (hidden
# row j's weights then its bias, then the output layer), the hidden biases
# as the last column of w1 against inputs with a ones column, and the
# output-bias gradient and each MSE as matrix products.  The loop is the
# one from before the genome-view rewrite, run on internal-order vectors,
# with two counters of rejected steps and lost-descent restarts.
# ---------------------------------------------------------------------------

def _with_ones(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _to_internal(weights, topology):
    w1, b1, w2, b2 = unpack_weights(np.asarray(weights, np.float64),
                                    topology)
    return np.concatenate([np.hstack([w1, b1[:, None]]).ravel(),
                           w2.ravel(), b2])


def _internal_views(vec, topology):
    """(w1 with the hidden biases as its last column, w2, b2)."""
    n_in, n_hid, n_out = topology
    i = n_hid * (n_in + 1)
    j = i + n_out * n_hid
    return (vec[:i].reshape(n_hid, n_in + 1), vec[i:j].reshape(n_out, n_hid),
            vec[j:])


def _to_canonical(vec, topology):
    w1, w2, b2 = _internal_views(vec, topology)
    return np.concatenate([w1[:, :-1].ravel(), w1[:, -1], w2.ravel(), b2])


def _old_mlp_loss_grad(w1, w2, b2, x, t):
    n, n_out = t.shape
    x = _with_ones(x)
    hidden = np.tanh(x @ w1.T)
    y = np.tanh(hidden @ w2.T + b2)
    err = y - t
    e = err.ravel()
    loss = float(e @ e) / (n * n_out)
    d2 = (2.0 / (n * n_out)) * err * (1.0 - y * y)
    gw2 = d2.T @ hidden
    gb2 = d2.T @ np.ones(n)
    d1 = (d2 @ w2) * (1.0 - hidden * hidden)
    gw1 = d1.T @ x
    return loss, np.concatenate([gw1.ravel(), gw2.ravel(), gb2])


def _old_mlp_forward(w1, w2, b2, x):
    hidden = np.tanh(_with_ones(x) @ w1.T)
    return np.tanh(hidden @ w2.T + b2)


def mse_and_gradient(weights, topology, x, t):
    """Mean squared error over all outputs and examples, plus its exact
    gradient with respect to the flat canonical genome, through the batch
    that ``train_scg`` runs."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    order, inverse = mlp._internal_order(topology)
    w = mlp._Genome(topology, np.asarray(weights, np.float64)[order])
    grad = mlp._Genome(topology)
    batch = mlp._Batch(topology, x, t, x.shape[0])
    loss, _ = batch.loss(w)
    batch.backward(w, grad)
    return loss, grad.flat[inverse]


def _old_mse_and_gradient(weights, topology, x, t):
    loss, grad = _old_mlp_loss_grad(
        *_internal_views(_to_internal(weights, topology), topology), x, t)
    return loss, _to_canonical(grad, topology)


def _old_train_scg(weights0, topology, x_train, t_train, x_val, t_val, cfg,
                   counts):
    x_train = np.ascontiguousarray(x_train, dtype=np.float64)
    t_train = np.ascontiguousarray(t_train, dtype=np.float64)
    has_val = x_val is not None and len(x_val) > 0
    if has_val:
        x_val = np.ascontiguousarray(x_val, dtype=np.float64)
        t_val = np.ascontiguousarray(t_val, dtype=np.float64)

    w = _to_internal(weights0, topology)
    n_params = w.size

    def loss_grad(vec):
        return _old_mlp_loss_grad(*_internal_views(vec, topology), x_train,
                                  t_train)

    def val_loss(vec):
        y = _old_mlp_forward(*_internal_views(vec, topology), x_val)
        e = (y - t_val).ravel()
        return float(e @ e) / e.size

    f, grad = loss_grad(w)
    r = -grad
    p = r.copy()
    success = True
    lam = 5e-7
    lam_bar = 0.0
    delta = 0.0
    accepted_steps = 0
    last_step_norm = math.inf

    epochs = 0
    best_val = math.inf
    best_w = None
    fails = 0
    stop = "max_epochs"

    for epoch in range(1, cfg.max_epochs + 1):
        r_norm2 = float(r @ r)
        if r_norm2 == 0.0:
            stop = "scg_converged"
            break
        p_norm2 = float(p @ p)
        mu = float(p @ r)
        if mu <= 0 or p_norm2 == 0.0:
            counts["restart"] += 1
            p = r.copy()
            p_norm2 = r_norm2
            mu = r_norm2
            success = True
        if success:
            sigma = 5e-5 / math.sqrt(p_norm2)
            _, grad_sigma = loss_grad(w + sigma * p)
            delta = float(p @ (grad_sigma - grad)) / sigma
        delta += (lam - lam_bar) * p_norm2
        if delta <= 0:
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        alpha = mu / delta
        f_cand, grad_cand = loss_grad(w + alpha * p)
        comparison = 2.0 * delta * (f - f_cand) / (mu * mu)
        if comparison >= 0:
            w = w + alpha * p
            f = f_cand
            r_new = -grad_cand
            grad = grad_cand
            lam_bar = 0.0
            success = True
            accepted_steps += 1
            last_step_norm = abs(alpha) * math.sqrt(p_norm2)
            if accepted_steps % n_params == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam *= 0.25
        else:
            counts["reject"] += 1
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_norm2

        epochs += 1
        if has_val:
            fv = val_loss(w)
            if fv < best_val:
                best_val = fv
                best_w = w.copy()
                fails = 0
            elif fv > best_val:
                fails += 1

        if has_val and fails >= cfg.patience:
            stop = "patience"
            w = best_w
            break
        if (last_step_norm < SCG_CONVERGENCE_TOL
                and float(np.sqrt(r @ r)) < SCG_CONVERGENCE_TOL):
            stop = "scg_converged"
            break

    return TrainedModel(topology, _to_canonical(w, topology), epochs, stop)


def _random_problem(topo, n_train, n_val, seed):
    rng = np.random.default_rng(seed)
    n_in, n_out = topo.input_size, topo.output_size
    x = rng.random((n_train, n_in))
    t = one_hot(rng.integers(0, n_out, n_train), n_out)
    x_val = rng.random((n_val, n_in))
    t_val = one_hot(rng.integers(0, n_out, n_val), n_out)
    return rng.random(topo.genome_length), x, t, x_val, t_val


def _saturated_problem():
    """1-2-1 with hidden unit 0 saturated on every row: ``w1[0] = 60`` on
    inputs in [0.5, 1] makes ``tanh`` exactly 1, so that unit's weight and
    bias gradients are exactly 0, with a sign.  Its bias starts at -0.0,
    and the oracle's steps along -grad keep it there.  A step of +0.0
    where -grad holds -0.0 (as when the sign is folded into the gradient's
    scale) turns it into +0.0, which only a byte comparison sees."""
    topo = Topology(1, 2, 1)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 1.0, (7, 1))
    t = rng.choice([-0.5, 0.5], (7, 1))
    x_val = rng.uniform(0.5, 1.0, (3, 1))
    t_val = rng.choice([-0.5, 0.5], (3, 1))
    w0 = rng.normal(0.0, 1.0, topo.genome_length)
    w1, b1, _, _ = unpack_weights(w0, topo)
    w1[0] = 60.0
    b1[0] = -0.0
    return topo, (w0, x, t, x_val, t_val)


def same_bits(a, b):
    """Equal bytes: unlike ``np.array_equal``, -0.0 differs from 0.0, as
    it does in a model file."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# 1-1-1, 1-3-1 and 4-1-4 give the products' one-element, row and column
# operand shapes, which BLAS dispatch sorts into shape classes of their own
ORACLE_TOPOLOGIES = (Topology(2, 10, 4), Topology(3, 5, 2), Topology(1, 1, 1),
                     Topology(1, 3, 1), Topology(4, 1, 4))


@pytest.fixture(scope="module")
def scg_oracle_runs():
    """Old and new training on a grid: every topology, 1/7/117 training
    rows, 0/1/39 validation rows (one row takes numpy's matrix-vector
    path), each to max_epochs or patience; then the saturated problem."""
    problems = []
    for topo in ORACLE_TOPOLOGIES:
        for n_train in (1, 7, 117):
            for n_val in (0, 1, 39):
                seed = 100 * topo.genome_length + 10 * n_train + n_val
                name = (f"{topo.input_size}-{topo.hidden_size}-"
                        f"{topo.output_size} n_train={n_train} "
                        f"n_val={n_val}")
                problems.append((name, topo, _random_problem(
                    topo, n_train, n_val, seed)))
    problems.append(("saturated 1-2-1", *_saturated_problem()))
    cfg = TRAINING._replace(max_epochs=60)
    runs = []
    for name, topo, (w0, x, t, x_val, t_val) in problems:
        counts = {"reject": 0, "restart": 0}
        old = _old_train_scg(w0, topo, x, t, x_val, t_val, cfg, counts)
        new = train_scg(w0, topo, x, t, x_val, t_val, cfg)
        runs.append((name, old, new, counts))
    return runs


class TestBitIdentityOracle:
    def test_train_scg_matches_old_loop_bit_for_bit(self, scg_oracle_runs):
        for name, old, new, _ in scg_oracle_runs:
            assert new.stop_reason == old.stop_reason, name
            assert new.epochs == old.epochs, name
            assert same_bits(new.weights, old.weights), name

    def test_grid_covers_every_stop_and_step_kind(self, scg_oracle_runs):
        stops = {old.stop_reason for _, old, _, _ in scg_oracle_runs}
        assert {"max_epochs", "patience"} <= stops
        assert any(c["reject"] and c["restart"]
                   for _, _, _, c in scg_oracle_runs)
        # a trained weight of -0.0, which only a byte comparison checks
        assert any(np.signbit(old.weights[old.weights == 0]).any()
                   for _, old, _, _ in scg_oracle_runs)

    @pytest.mark.parametrize("topo", ORACLE_TOPOLOGIES,
                             ids=lambda topo: f"{topo.genome_length}")
    def test_mse_and_gradient_match_old_formula(self, topo):
        rng = np.random.default_rng(topo.genome_length)
        for n in (1, 2, 7, 117):
            for scale in (0.1, 1.0, 5.0):
                w = rng.normal(0, scale, topo.genome_length)
                x = rng.random((n, topo.input_size))
                t = one_hot(rng.integers(0, topo.output_size, n),
                            topo.output_size)
                loss, grad = mse_and_gradient(w, topo, x, t)
                old_loss, old_grad = _old_mse_and_gradient(w, topo, x, t)
                assert loss == old_loss
                assert same_bits(grad, old_grad)
                assert same_bits(
                    forward_batch(w, topo, x),
                    _old_mlp_forward(
                        *_internal_views(_to_internal(w, topo), topo), x))

    @pytest.mark.parametrize("topo", ORACLE_TOPOLOGIES,
                             ids=lambda topo: f"{topo.genome_length}")
    def test_internal_order_is_a_permutation_that_round_trips(self, topo):
        order, inverse = mlp._internal_order(topo)
        assert sorted(order.tolist()) == list(range(topo.genome_length))
        w = np.random.default_rng(topo.genome_length).random(
            topo.genome_length)
        assert np.array_equal(w[order], _to_internal(w, topo))
        assert np.array_equal(w[order][inverse], w)
        # made once per topology, and no caller can write into it
        again = mlp._internal_order(Topology(*topo))
        assert again[0] is order and again[1] is inverse
        assert not order.flags.writeable and not inverse.flags.writeable


LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "float32": lambda a: a.astype(np.float32),
}


class TestInputLayout:
    """Whatever the layout or float dtype of the features and targets,
    training and scoring give the bits of a C-contiguous float64 copy:
    the products write only into buffers ``_Batch`` and ``forward_batch``
    build themselves."""

    @pytest.mark.parametrize("n_train, n_val", [(1, 1), (7, 0), (117, 39)])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_same_bits_as_c_contiguous_float64(self, layout, n_train,
                                               n_val):
        topo = Topology(2, 10, 4)
        w0, *arrays = _random_problem(topo, n_train, n_val,
                                      10 * n_train + n_val)
        arrays = [LAYOUTS[layout](a) for a in arrays]
        copies = [np.ascontiguousarray(a, np.float64) for a in arrays]
        cfg = TRAINING._replace(max_epochs=60)
        got = train_scg(w0, topo, *arrays, cfg)
        want = train_scg(w0, topo, *copies, cfg)
        assert got.stop_reason == want.stop_reason
        assert got.epochs == want.epochs
        assert same_bits(got.weights, want.weights)
        x, want_x = arrays[0], copies[0]
        for rows in (slice(None), slice(0, 1)):
            assert same_bits(forward_batch(got.weights, topo, x[rows]),
                             forward_batch(got.weights, topo, want_x[rows]))


class TestScgConvergedStops:
    """Both ``scg_converged`` exits, each against the old loop bit for
    bit."""

    @staticmethod
    def _both(w0, topo, x, t, x_val, t_val):
        counts = {"reject": 0, "restart": 0}
        old = _old_train_scg(w0, topo, x, t, x_val, t_val, TRAINING, counts)
        new = train_scg(w0, topo, x, t, x_val, t_val, TRAINING)
        assert new.stop_reason == old.stop_reason
        assert new.epochs == old.epochs
        assert same_bits(new.weights, old.weights)
        return new

    def test_zero_gradient_stops_before_the_first_epoch(self):
        # one class, w2 = 0 and b2 = (20, 0): every output is exactly
        # (tanh(20), tanh(0)) = (1, 0), the target, so every gradient
        # term is exactly 0
        topo = Topology(2, 3, 2)
        rng = np.random.default_rng(0)
        x = rng.random((6, 2))
        t = one_hot([0] * 6, 2)
        w0 = rng.random(topo.genome_length)
        _, _, w2, b2 = unpack_weights(w0, topo)
        w2[:] = 0.0
        b2[:] = (20.0, 0.0)
        model = self._both(w0, topo, x, t, x[:2], t[:2])
        assert model.stop_reason == "scg_converged"
        assert model.epochs == 0
        np.testing.assert_array_equal(model.weights, w0)

    def test_step_and_gradient_below_tolerance(self):
        # targets a network makes exactly, and a start 1e-11 away from
        # it: one accepted step shorter than the tolerance leaves a
        # gradient that is not 0 but is below it
        topo = Topology(2, 3, 2)
        rng = np.random.default_rng(1)
        w_star = rng.random(topo.genome_length)
        x = rng.random((8, 2))
        t = forward_batch(w_star, topo, x)
        w0 = w_star + 1e-11 * rng.standard_normal(topo.genome_length)
        model = self._both(w0, topo, x, t, x[:0], t[:0])
        assert model.stop_reason == "scg_converged"
        assert model.epochs == 1
        step = np.linalg.norm(model.weights - w0)
        assert 0.0 < step < SCG_CONVERGENCE_TOL
        _, grad = mse_and_gradient(model.weights, topo, x, t)
        assert 0.0 < np.linalg.norm(grad) < SCG_CONVERGENCE_TOL


def _number_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float, complex))
            and not isinstance(node.value, bool))


class TestOperandRule:
    """Every numpy ufunc call in ``mlp.py`` takes array operands and a
    positional ``out``: under numpy 2 a Python-number operand costs a call
    ~0.2 microseconds more than a 0-d float64 array, and an ``out=``
    keyword ~0.1 more than a positional one."""

    def test_no_number_literal_or_out_keyword_in_a_ufunc_call(self):
        tree = ast.parse(Path(mlp.__file__).read_text(encoding="utf-8"))
        calls, bad = 0, []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                    and isinstance(getattr(np, node.func.attr, None),
                                   np.ufunc)):
                continue
            calls += 1
            if (any(_number_literal(arg) for arg in node.args)
                    or any(k.arg == "out" for k in node.keywords)):
                bad.append(f"line {node.lineno}: {ast.unparse(node)}")
        assert calls >= 20  # the rule has calls to check
        assert not bad, bad
