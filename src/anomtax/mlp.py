"""Feedforward network: one tanh hidden layer, tanh outputs, mean squared
error, trained full-batch by scaled conjugate gradient with optional early
stopping on a validation set.

All weights and biases live in one flat genome vector so a genetic
algorithm can evolve initializations.  Canonical ordering, the one
crossover cuts and the model file holds: hidden-layer weights row-major,
hidden biases, output-layer weights row-major, output biases.

:func:`train_scg` and :func:`forward_batch` run on a genome permuted into
an internal order, hidden row j's weights then its bias, row by row, then
the output layer, against inputs with a ones column: one matrix product
gives the hidden pre-activations and one their weight and bias gradient.
The permutation and its inverse are made once per topology.  The output
bias stays a broadcast add (~2 microseconds a pass at 166 rows): a ones
column on the hidden buffer would add it inside the product's sum, which
rounds some outputs differently, and would leave ``tanh`` a slower,
strided view.  Gradients
are written through views of flat genome buffers; ``train_scg`` allocates
every array once per call and returns canonical-order weights.

The passes over the rows are closures that :class:`_Batch` binds to its
buffers, and ``forward_batch`` runs the same one as training does.  Every
product is an ``ndarray.dot`` call.  It reaches the same BLAS routine as
``matmul`` without the generalized ufunc's dispatch, which costs 0.4-0.6
microseconds a call and is most of a product's time at these sizes.
``ndarray.dot`` raises when its ``out`` is not a C-contiguous float64
array of the exact shape; it never copies into one (see :class:`_Batch`).

Every ufunc call takes array operands and a positional ``out``: under
numpy 2 a Python-float operand costs a call ~0.17 microseconds more than a
0-d float64 array, and an ``out=`` keyword ~0.04 more than a positional
one.  So ``_Batch`` holds 0-d arrays for 1 and 2/N, and ``train_scg``
writes sigma, alpha and beta into one reused 0-d array.  At 2-10-4 on
137 + 29 rows a ``loss`` call takes ~13.5 microseconds, ``probe`` ~9.8
and ``backward`` ~8.1, and an SCG epoch ~45.5 (2-vCPU AVX-512 VM, numpy
2.4, OpenBLAS SkylakeX kernel).
"""

import functools
import io
import math
from typing import NamedTuple

import numpy as np

from .data import read_input


__all__ = [
    "Topology",
    "TrainingConfig",
    "TrainedModel",
    "init_weights",
    "unpack_weights",
    "forward_batch",
    "train_scg",
    "one_hot",
    "save_model",
    "load_model",
]

SCG_CONVERGENCE_TOL = 1e-10
# the curvature-probe scale sigma_0 and initial damping lambda_1 of Moller
# (Neural Networks 1993)
SCG_SIGMA0 = 5e-5
SCG_LAMBDA0 = 5e-7


class Topology(NamedTuple):
    """Layer sizes."""

    input_size: int
    hidden_size: int
    output_size: int

    @property
    def genome_length(self) -> int:
        return ((self.input_size + 1) * self.hidden_size
                + (self.hidden_size + 1) * self.output_size)


class TrainingConfig(NamedTuple):
    max_epochs: int
    patience: int


class TrainedModel(NamedTuple):
    """A network as its model file holds it, the topology and the
    canonical-order weights, plus the SCG epochs that trained it and why
    training stopped: ``patience``, ``scg_converged`` or ``max_epochs``.
    A model read by :func:`load_model` has 0 epochs and ``"loaded"``."""

    topology: Topology
    weights: np.ndarray
    epochs: int
    stop_reason: str


def init_weights(topology: Topology, rng) -> np.ndarray:
    """Initial genome: uniform draws in [0, 1] from the Generator ``rng``."""
    return rng.random(topology.genome_length)


def unpack_weights(weights: np.ndarray, topology: Topology):
    """Flat genome -> (w1, b1, w2, b2) views in canonical order."""
    n_in, n_hid, n_out = (topology.input_size, topology.hidden_size,
                          topology.output_size)
    i = 0
    w1 = weights[i:i + n_hid * n_in].reshape(n_hid, n_in)
    i += n_hid * n_in
    b1 = weights[i:i + n_hid]
    i += n_hid
    w2 = weights[i:i + n_out * n_hid].reshape(n_out, n_hid)
    i += n_out * n_hid
    b2 = weights[i:]
    return w1, b1, w2, b2


@functools.cache
def _internal_order(topology: Topology):
    """``(order, inverse)``, made once per topology and read-only:
    ``canonical[order]`` is the internal genome and ``internal[inverse]``
    the canonical one."""
    w1, b1, w2, b2 = unpack_weights(np.arange(topology.genome_length),
                                    topology)
    order = np.concatenate([np.column_stack((w1, b1)).ravel(), w2.ravel(),
                            b2])
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


class _Genome:
    """A flat genome-length buffer in internal order, its (w1, w2, b2)
    views, where w1's last column is the hidden biases, and the
    (w1.T, w2.T, b2) views the forward pass multiplies by."""

    __slots__ = ("flat", "views", "fwd")

    def __init__(self, topology: Topology, flat=None):
        n_in, n_hid, n_out = topology
        if flat is None:
            flat = np.zeros(topology.genome_length)
        i = n_hid * (n_in + 1)
        self.flat = flat
        self.views = w1, w2, b2 = (flat[:i].reshape(n_hid, n_in + 1),
                                   flat[i:-n_out].reshape(n_out, n_hid),
                                   flat[-n_out:])
        self.fwd = (w1.T, w2.T, b2)


class _Batch:
    """Rows the network is evaluated on, every intermediate array
    allocated once, and the passes over them, :meth:`loss`, :meth:`probe`
    and :meth:`backward`: closures bound to those arrays, so a pass looks
    up nothing on the batch and runs no loop.

    Rows ``[0, n_fit)`` are fitted: the loss and gradient cover them
    alone.  Any rows after them (a validation set) are only scored.  Each
    part gets its own matrix products: the bits of a row of a product can
    depend on the rows multiplied with it (they do under OpenBLAS's
    Haswell dgemm, and a one-row matrix takes numpy's matrix-vector path).
    The elementwise steps run over all rows at once, which gives every
    element the bits of a pass over its own part.  Without validation
    rows, :meth:`loss` still makes their two empty products (~1
    microsecond) rather than keep a second copy of the forward pass.

    Each ``out`` given to ``ndarray.dot`` is a row slice of a C-contiguous
    buffer or a reshape of a flat genome buffer, so it is C-contiguous
    float64 of the product's shape, as ``ndarray.dot`` demands.  No
    caller's array is ever an ``out``, so its layout or float dtype cannot
    break this.  ``y`` holds the outputs of the last pass.
    """

    def __init__(self, topology: Topology, x, t, n_fit: int):
        n = x.shape[0]
        n_hid, n_out = topology.hidden_size, topology.output_size
        x = np.column_stack((x, np.ones(n)))
        hidden = np.empty((n, n_hid))
        self.y = y = np.empty((n, n_out))
        err = np.empty((n, n_out))
        x_fit, h_fit, y_fit = x[:n_fit], hidden[:n_fit], y[:n_fit]
        x_val, h_val, y_val = x[n_fit:], hidden[n_fit:], y[n_fit:]
        t_fit, err_fit = t[:n_fit], err[:n_fit]
        # row slices of a contiguous buffer, so these are flat views
        e_fit, e_val = err_fit.reshape(-1), err[n_fit:].reshape(-1)
        n_e_fit, n_e_val = e_fit.size, e_val.size
        one, scale = np.array(1.0), np.array(2.0 / n_e_fit)
        ones = np.ones(n_fit)
        dy, d2 = np.empty((2, n_fit, n_out))
        dh, d1 = np.empty((2, n_fit, n_hid))
        d2t, d1t = d2.T, d1.T

        def loss(w: _Genome):
            """Run every row at genome ``w``; return ``(fit_mse, val_mse)``,
            the MSE of the fitted rows and of the scored ones (None without
            any)."""
            w1t, w2t, b2 = w.fwd
            x_fit.dot(w1t, h_fit)
            x_val.dot(w1t, h_val)
            np.tanh(hidden, hidden)
            h_fit.dot(w2t, y_fit)
            h_val.dot(w2t, y_val)
            np.add(y, b2, y)
            np.tanh(y, y)
            np.subtract(y, t, err)
            fit_mse = float(e_fit.dot(e_fit)) / n_e_fit
            if not n_e_val:
                return fit_mse, None
            return fit_mse, float(e_val.dot(e_val)) / n_e_val

        def probe(w: _Genome) -> None:
            """Run the fitted rows alone at genome ``w``, for
            :meth:`backward`."""
            w1t, w2t, b2 = w.fwd
            x_fit.dot(w1t, h_fit)
            np.tanh(h_fit, h_fit)
            h_fit.dot(w2t, y_fit)
            np.add(y_fit, b2, y_fit)
            np.tanh(y_fit, y_fit)
            np.subtract(y_fit, t_fit, err_fit)

        def backward(w: _Genome, g: _Genome) -> None:
            """Write into genome ``g`` the gradient of the fitted rows' MSE
            at genome ``w``, from what the last :meth:`loss` or
            :meth:`probe` call, made at ``w``, left in the buffers."""
            gw1, gw2, gb2 = g.views
            np.multiply(y_fit, y_fit, dy)
            np.subtract(one, dy, dy)
            np.multiply(err_fit, scale, d2)
            np.multiply(d2, dy, d2)
            d2t.dot(h_fit, gw2)
            d2t.dot(ones, gb2)
            d2.dot(w.views[1], d1)
            np.multiply(h_fit, h_fit, dh)
            np.subtract(one, dh, dh)
            np.multiply(d1, dh, d1)
            d1t.dot(x_fit, gw1)

        self.loss, self.probe, self.backward = loss, probe, backward


def forward_batch(weights: np.ndarray, topology: Topology, x) -> np.ndarray:
    """Network outputs for the rows of ``x``, one row per sample.

    Weights are finite, but a large one can overflow a pre-activation to
    +-inf; ``tanh`` then saturates it to +-1, so overflow is not reported.
    Weights whose products overflow float64 both ways have no defined
    output: a sum of +inf and -inf is NaN, and which rows it reaches
    depends on how numpy groups the products (a one-row batch takes its
    matrix-vector path).  So a NaN output raises ``ValueError`` naming
    how many rows have one, instead of warning or being ranked.

    The rows run through :meth:`_Batch.probe` as fitted rows against zero
    targets; no rows give a ``(0, output_size)`` array.
    """
    n = x.shape[0]
    if not n:
        return np.empty((0, topology.output_size))
    batch = _Batch(topology, x, np.zeros((n, topology.output_size)), n)
    w = _Genome(topology, weights[_internal_order(topology)[0]])
    with np.errstate(over="ignore", invalid="ignore"):
        batch.probe(w)
    y = batch.y
    bad = np.count_nonzero(np.isnan(y).any(axis=1))
    if bad:
        raise ValueError(f"network output is NaN for {bad} of {n} "
                         "rows: the weights overflow float64")
    return y


def train_scg(weights0, topology: Topology, x_train, t_train, x_val, t_val,
              cfg: TrainingConfig) -> TrainedModel:
    """Scaled conjugate gradient with Levenberg-style damping.

    One epoch is one candidate step along the current conjugate direction;
    curvature along the direction is estimated by a finite difference of
    gradients, the step is accepted only if it lowers the training error,
    and the direction restarts every genome_length accepted steps.

    Stops on: ``patience`` epochs with a validation error above the best
    seen, counted since the last new best, where an epoch that equals the
    best neither counts nor resets (the best-validation weights are
    restored); a zero gradient, or step size and gradient both below 1e-10
    (``scg_converged``); or ``max_epochs``.  An empty validation set
    disables early stopping.
    ``weights0`` is copied, never written to.

    Returns a :class:`TrainedModel` of the final weights in canonical
    order (the best-validation ones after a ``patience`` stop), the number
    of epochs run and the stop reason.

    The validation rows are stacked under the training rows, so the pass
    that scores a candidate step also gives its validation error; an
    accepted step moves the weights to exactly that point and a rejected
    one leaves them, and their validation error, as they were.  Only an
    accepted step needs the gradient, so it is taken from that pass's
    buffers after the step is accepted.
    """
    batch = _Batch(topology, np.concatenate([x_train, x_val]),
                   np.concatenate([t_train, t_val]), x_train.shape[0])
    loss, probe, backward = batch.loss, batch.probe, batch.backward

    order, inverse = _internal_order(topology)
    n_params = order.size
    current = _Genome(topology, np.asarray(weights0, np.float64)[order])
    trial, grad, grad_sigma = (_Genome(topology) for _ in range(3))
    r, r_new, p, diff, best_w = (np.empty(n_params) for _ in range(5))
    # sigma, alpha and beta in turn, as an array operand
    step = np.empty(())

    f, fv = loss(current)
    backward(current, grad)
    np.negative(grad.flat, r)
    r_norm2 = float(r.dot(r))
    p[:] = r
    success = True
    lam = SCG_LAMBDA0
    lam_bar = 0.0
    delta = 0.0
    accepted_steps = 0
    last_step_norm = math.inf

    epochs = 0
    best_val = math.inf
    fails = 0
    stop = "max_epochs"

    for _ in range(cfg.max_epochs):
        if r_norm2 == 0.0:
            stop = "scg_converged"
            break
        p_norm2 = float(p.dot(p))
        mu = float(p.dot(r))
        if mu <= 0 or p_norm2 == 0.0:
            # direction lost descent; restart with steepest descent
            p[:] = r
            p_norm2 = r_norm2
            mu = r_norm2
            success = True
        if success:
            sigma = SCG_SIGMA0 / math.sqrt(p_norm2)
            step[()] = sigma
            np.multiply(p, step, trial.flat)
            np.add(current.flat, trial.flat, trial.flat)
            probe(trial)
            backward(trial, grad_sigma)
            np.subtract(grad_sigma.flat, grad.flat, diff)
            delta = float(p.dot(diff)) / sigma
        delta += (lam - lam_bar) * p_norm2
        if delta <= 0:
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        alpha = mu / delta
        step[()] = alpha
        np.multiply(p, step, trial.flat)
        np.add(current.flat, trial.flat, trial.flat)
        f_cand, fv_cand = loss(trial)
        comparison = 2.0 * delta * (f - f_cand) / (mu * mu)
        # a NaN loss makes the comparison NaN, so that step is rejected
        if comparison >= 0:
            current, trial = trial, current
            f = f_cand
            fv = fv_cand
            backward(current, grad)
            np.negative(grad.flat, r_new)
            new_norm2 = float(r_new.dot(r_new))
            lam_bar = 0.0
            success = True
            accepted_steps += 1
            last_step_norm = abs(alpha) * math.sqrt(p_norm2)
            if accepted_steps % n_params == 0:
                p[:] = r_new
            else:
                step[()] = (new_norm2 - float(r_new.dot(r))) / mu
                np.multiply(p, step, p)
                np.add(r_new, p, p)
            r, r_new = r_new, r
            r_norm2 = new_norm2
            if comparison >= 0.75:
                lam *= 0.25
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_norm2

        epochs += 1
        if fv is not None:
            if fv < best_val:
                best_val = fv
                best_w[:] = current.flat
                fails = 0
            elif fv > best_val:
                fails += 1

        if fails >= cfg.patience:
            stop = "patience"
            current.flat[:] = best_w
            break
        if (last_step_norm < SCG_CONVERGENCE_TOL
                and math.sqrt(r_norm2) < SCG_CONVERGENCE_TOL):
            stop = "scg_converged"
            break

    return TrainedModel(topology, current.flat[inverse], epochs, stop)


def one_hot(class_ids, num_classes: int) -> np.ndarray:
    """Targets with a 1 at the class index and 0 elsewhere."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    out = np.zeros((class_ids.size, num_classes))
    out[np.arange(class_ids.size), class_ids] = 1.0
    return out


def save_model(model: TrainedModel, path) -> None:
    """Text format: one topology line, then one weight per line in
    canonical genome order.  Floats are written with repr so the
    round-trip is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.topology.input_size} {model.topology.hidden_size} "
                 f"{model.topology.output_size}\n")
        for v in model.weights:
            fh.write(f"{float(v)!r}\n")


def load_model(path) -> TrainedModel:
    """Read a :func:`save_model` file; a malformed topology line or a
    weight that is not a finite number is rejected with the file and line
    named."""
    lines = io.StringIO(read_input(path), newline=None)
    sizes = lines.readline().split()
    try:
        layers = [int(size) for size in sizes]
    except ValueError:
        layers = []
    if len(layers) != 3 or min(layers) < 1:
        raise ValueError(f"{path}: line 1: expected three positive "
                         f"layer sizes, got {' '.join(sizes)!r}")
    topology = Topology(*layers)
    weights = []
    for lineno, line in enumerate(lines, start=2):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: weight must be a "
                             f"finite number, got {text!r}")
        weights.append(value)
    weights = np.array(weights)
    if weights.shape != (topology.genome_length,):
        raise ValueError(
            f"{path}: {weights.size} weights, topology needs "
            f"{topology.genome_length}"
        )
    return TrainedModel(topology, weights, 0, "loaded")
