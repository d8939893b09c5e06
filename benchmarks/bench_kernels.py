#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallbacks.

Run: python benchmarks/bench_kernels.py [repeats]

Centroid assignment drives k-means and the MLP loss/gradient is called
thousands of times per GA run.  The labeling distance code is numpy-only
and has no numba twin to compare.
"""

import sys
import time

import numpy as np

from anomtax import _kernels as K


def timeit(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    if not K.NUMBA_AVAILABLE:
        print("numba not importable; nothing to compare")
        return 1

    rng = np.random.default_rng(0)
    pts = rng.random((400, 2))
    cents = rng.random((5, 2))
    w1 = rng.random((10, 2))
    b1 = rng.random(10)
    w2 = rng.random((4, 10))
    b2 = rng.random(4)
    x = rng.random((140, 2))
    t = np.zeros((140, 4))
    t[np.arange(140), rng.integers(0, 4, 140)] = 1.0

    cases = [
        ("nearest_centroids (400, k=5)", K._np_nearest_centroids,
         K._nb_nearest_centroids, (pts, cents)),
        ("mlp_forward (140x2-10-4)", K._np_mlp_forward,
         K._nb_mlp_forward, (w1, b1, w2, b2, x)),
        ("mlp_loss_grad (140x2-10-4)", K._np_mlp_loss_grad,
         K._nb_mlp_loss_grad, (w1, b1, w2, b2, x, t)),
    ]

    print(f"{'kernel':<32} {'numpy':>12} {'numba':>12} {'speedup':>9}")
    for name, np_fn, nb_fn, args in cases:
        nb_fn(*args)  # JIT warmup outside the timed region
        t_np = timeit(np_fn, args, repeats)
        t_nb = timeit(nb_fn, args, repeats)
        print(f"{name:<32} {t_np * 1e6:>10.1f}us {t_nb * 1e6:>10.1f}us "
              f"{t_np / t_nb:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
