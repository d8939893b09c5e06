import numpy as np
import pytest

from anomtax import _kernels as K

pytestmark = pytest.mark.skipif(not K.NUMBA_AVAILABLE,
                                reason="numba backend not importable")


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


def test_nearest_centroids_agree(rng):
    for _ in range(5):
        pts = rng.normal(0, 1, (30, 3))
        cents = rng.normal(0, 1, (4, 3))
        aa, ad = K._np_nearest_centroids(pts, cents)
        ba, bd = K._nb_nearest_centroids(pts, cents)
        np.testing.assert_array_equal(aa, ba)
        np.testing.assert_allclose(ad, bd, rtol=1e-12, atol=1e-14)


def test_nearest_centroids_tie_to_lowest_index():
    pts = np.array([[0.0, 0.0]])
    cents = np.array([[1.0, 0.0], [-1.0, 0.0]])
    for impl in (K._np_nearest_centroids, K._nb_nearest_centroids):
        assign, _ = impl(pts, cents)
        assert assign[0] == 0


def test_mlp_forward_agree(rng):
    for _ in range(5):
        n_in, n_hid, n_out = 2, 10, 4
        w1 = rng.random((n_hid, n_in))
        b1 = rng.random(n_hid)
        w2 = rng.random((n_out, n_hid))
        b2 = rng.random(n_out)
        x = rng.random((13, n_in))
        a = K._np_mlp_forward(w1, b1, w2, b2, x)
        b = K._nb_mlp_forward(w1, b1, w2, b2, x)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_mlp_loss_grad_agree(rng):
    for _ in range(5):
        n_in, n_hid, n_out = 2, 10, 4
        w1 = rng.random((n_hid, n_in))
        b1 = rng.random(n_hid)
        w2 = rng.random((n_out, n_hid))
        b2 = rng.random(n_out)
        x = rng.random((11, n_in))
        t = np.zeros((11, n_out))
        t[np.arange(11), rng.integers(0, n_out, 11)] = 1.0
        got_np = K._np_mlp_loss_grad(w1, b1, w2, b2, x, t)
        got_nb = K._nb_mlp_loss_grad(w1, b1, w2, b2, x, t)
        assert got_np[0] == pytest.approx(got_nb[0], rel=1e-12)
        for a, b in zip(got_np[1:], got_nb[1:]):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def test_active_backend_named():
    assert K.BACKEND in ("numpy", "numba")
