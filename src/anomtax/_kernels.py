"""Hot numeric kernels with two interchangeable backends.

Everything here is called from inner loops (k-means assignment, MLP
loss/gradient inside GA fitness evaluation).  Each kernel exists twice: a
numba ``@njit`` version and a pure-numpy version.  The active backend is
chosen once at import time from the ``ANOMTAX_BACKEND`` environment variable
(``numba`` or ``numpy``); the default is numba when it is importable.  The
labeling distance code is numpy-only and lives in :mod:`anomtax.labeling`.

Both backends compute the same quantities; results may differ in the last
few ulps because summation order differs.  Run ``benchmarks/bench_kernels.py``
to compare their speed.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "BACKEND",
    "NUMBA_AVAILABLE",
    "nearest_centroids",
    "mlp_forward",
    "mlp_loss_grad",
]


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------

def _np_nearest_centroids(pts, centroids):
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(pts.shape[0]), assign]


def _np_mlp_forward(w1, b1, w2, b2, x):
    hidden = np.tanh(x @ w1.T + b1)
    return np.tanh(hidden @ w2.T + b2)


def _np_mlp_loss_grad(w1, b1, w2, b2, x, t):
    n, n_out = t.shape
    hidden = np.tanh(x @ w1.T + b1)
    y = np.tanh(hidden @ w2.T + b2)
    err = y - t
    loss = float((err * err).sum() / (n * n_out))
    d2 = (2.0 / (n * n_out)) * err * (1.0 - y * y)
    gw2 = d2.T @ hidden
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ w2) * (1.0 - hidden * hidden)
    gw1 = d1.T @ x
    gb1 = d1.sum(axis=0)
    return loss, gw1, gb1, gw2, gb2


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

NUMBA_AVAILABLE = False
try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None

if NUMBA_AVAILABLE:

    @njit(cache=True, nogil=True)
    def _nb_nearest_centroids(pts, centroids):
        n, d = pts.shape
        k = centroids.shape[0]
        assign = np.empty(n, dtype=np.int64)
        dist2 = np.empty(n)
        for i in range(n):
            best = np.inf
            best_c = 0
            for c in range(k):
                acc = 0.0
                for q in range(d):
                    diff = pts[i, q] - centroids[c, q]
                    acc += diff * diff
                if acc < best:
                    best = acc
                    best_c = c
            assign[i] = best_c
            dist2[i] = best
        return assign, dist2

    @njit(cache=True, nogil=True)
    def _nb_mlp_forward(w1, b1, w2, b2, x):
        n = x.shape[0]
        n_in = x.shape[1]
        n_hid = w1.shape[0]
        n_out = w2.shape[0]
        y = np.empty((n, n_out))
        hidden = np.empty(n_hid)
        for s in range(n):
            for i in range(n_hid):
                a = b1[i]
                for j in range(n_in):
                    a += w1[i, j] * x[s, j]
                hidden[i] = math.tanh(a)
            for o in range(n_out):
                a = b2[o]
                for i in range(n_hid):
                    a += w2[o, i] * hidden[i]
                y[s, o] = math.tanh(a)
        return y

    @njit(cache=True, nogil=True)
    def _nb_mlp_loss_grad(w1, b1, w2, b2, x, t):
        n = x.shape[0]
        n_in = x.shape[1]
        n_hid = w1.shape[0]
        n_out = w2.shape[0]
        gw1 = np.zeros((n_hid, n_in))
        gb1 = np.zeros(n_hid)
        gw2 = np.zeros((n_out, n_hid))
        gb2 = np.zeros(n_out)
        hidden = np.empty(n_hid)
        delta2 = np.empty(n_out)
        loss = 0.0
        scale = 2.0 / (n * n_out)
        for s in range(n):
            for i in range(n_hid):
                a = b1[i]
                for j in range(n_in):
                    a += w1[i, j] * x[s, j]
                hidden[i] = math.tanh(a)
            for o in range(n_out):
                a = b2[o]
                for i in range(n_hid):
                    a += w2[o, i] * hidden[i]
                y = math.tanh(a)
                err = y - t[s, o]
                loss += err * err
                d = scale * err * (1.0 - y * y)
                delta2[o] = d
                gb2[o] += d
                for i in range(n_hid):
                    gw2[o, i] += d * hidden[i]
            for i in range(n_hid):
                acc = 0.0
                for o in range(n_out):
                    acc += delta2[o] * w2[o, i]
                d = acc * (1.0 - hidden[i] * hidden[i])
                gb1[i] += d
                for j in range(n_in):
                    gw1[i, j] += d * x[s, j]
        loss /= n * n_out
        return loss, gw1, gb1, gw2, gb2


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_requested = os.environ.get("ANOMTAX_BACKEND", "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise ValueError(
        f"ANOMTAX_BACKEND must be 'numba' or 'numpy', got {_requested!r}"
    )
if _requested == "numba" and not NUMBA_AVAILABLE:
    raise ImportError("ANOMTAX_BACKEND=numba but numba is not importable")

if _requested == "numpy" or not NUMBA_AVAILABLE:
    BACKEND = "numpy"
    nearest_centroids = _np_nearest_centroids
    mlp_forward = _np_mlp_forward
    mlp_loss_grad = _np_mlp_loss_grad
else:
    BACKEND = "numba"
    nearest_centroids = _nb_nearest_centroids
    mlp_forward = _nb_mlp_forward
    mlp_loss_grad = _nb_mlp_loss_grad
