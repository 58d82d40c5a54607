"""Tape engine: per-op contracts, gradients vs central differences, and
determinism of forward/backward evaluation."""

import weakref

import numpy as np
import pytest

from mpnode import autodiff as ad
from mpnode.autodiff import Tape, Tensor
from mpnode.errors import DivergenceError, ShapeError


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Independent central-difference oracle for a scalar function of x."""
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def grad_of(build, *arrays):
    """Run build(t1, t2, ...) under a tape and return the leaf gradients."""
    tensors = [ad.parameter(a) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    grads = tape.backward(loss, params=tensors)
    return [grads[t] for t in tensors]


class TestAddScale:
    def test_add(self):
        out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_add_zeros_identity(self):
        a = np.array([0.5, -1.5, 3.0])
        out = ad.add(Tensor(a), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, a)

    def test_add_grad_is_ones(self):
        # under a mean over two elements each addend's adjoint is 1/2
        ga, gb = grad_of(lambda a, b: ad.mean_all(ad.add(a, b)),
                         np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(ga, np.full(2, 0.5)) and np.array_equal(gb, np.full(2, 0.5))

    def test_add_same_tensor_twice(self):
        x = ad.parameter([1.0, 2.0])
        with Tape() as tape:
            loss = ad.mean_all(ad.add(x, x))
        assert np.array_equal(tape.backward(loss, params=[x])[x], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestConcatSlice:
    def test_concat(self):
        out = ad.concat_cols([Tensor([[1.0, 2.0]]), Tensor([[3.0]])])
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_concat_empty_identity(self):
        out = ad.concat_cols([Tensor([[1.0, 2.0]]), Tensor(np.zeros((1, 0)))])
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_slice_basics(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(ad.col_slice(x, 0, 2).data, [[1.0, 2.0]])
        assert np.array_equal(ad.col_slice(x, 0, 4).data, x.data)

    def test_slice_concat_roundtrip(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0, 5.0]])
        joined = ad.concat_cols([a, b])
        assert np.array_equal(ad.col_slice(joined, 2, 5).data, b.data)
        # and the other direction: concat of adjacent slices rebuilds exactly
        x = Tensor([[7.0, -1.0, 0.5, 2.5]])
        rebuilt = ad.concat_cols([ad.col_slice(x, 0, 2), ad.col_slice(x, 2, 4)])
        assert np.array_equal(rebuilt.data, x.data)

    def test_slice_adjoint_zero_outside_window(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        (g,) = grad_of(lambda t: ad.mean_all(ad.square(ad.col_slice(t, 1, 3))), x)
        fd = fd_gradient(lambda v: float((v[:, 1:3] ** 2).mean()), x.copy())
        assert g[0, 0] == 0.0 and g[0, 3] == 0.0
        assert np.allclose(g, fd, rtol=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.col_slice(Tensor([[1.0, 2.0]]), 1, 4)
        with pytest.raises(ShapeError):
            ad.concat_cols([Tensor([[1.0]]), Tensor([[1.0], [2.0]])])


class TestBackward:
    def test_sum_of_squares(self):
        # d/dx of the mean of x*x over two elements is x
        x = ad.parameter([1.0, 2.0])
        with Tape() as tape:
            loss = ad.mean_all(ad.square(x))
        assert np.array_equal(tape.backward(loss, params=[x])[x], [1.0, 2.0])

    def test_unused_leaf_gets_zero(self):
        x = ad.parameter([1.0, 2.0])
        unused = ad.parameter([5.0])
        with Tape() as tape:
            loss = ad.mean_all(x)
        grads = tape.backward(loss, params=[x, unused])
        assert np.array_equal(grads[unused], [0.0])

    def test_non_scalar_root_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with Tape() as tape:
            y = ad.square(x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_sweep_frees_the_graph(self):
        # the caller still holds the loss, yet nothing of the graph survives
        rng = np.random.default_rng(6)
        x = ad.parameter(rng.standard_normal((5, 3)))
        w1, b1 = ad.parameter(rng.standard_normal((4, 3))), ad.parameter(np.zeros(4))
        w2, b2 = ad.parameter(rng.standard_normal((2, 4))), ad.parameter(np.zeros(2))
        with Tape() as tape:
            h = ad.dense(x, w1, b1, "tanh")
            loss = ad.mean_all(ad.square(ad.dense(h, w2, b2)))
        hidden = weakref.ref(h.data)
        del h
        assert hidden() is not None and len(tape) == 4
        tape.backward(loss, params=[x, w1, b1, w2, b2])
        assert hidden() is None
        assert len(tape) == 0
        assert loss._parents == () and loss._backward is None

    def test_second_backward_raises(self):
        x = ad.parameter([1.0, 2.0])
        with Tape() as tape:
            loss = ad.mean_all(ad.square(x))
        tape.backward(loss, params=[x])
        with pytest.raises(RuntimeError, match="tape already swept"):
            tape.backward(loss, params=[x])

    def test_deterministic_bits(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((3, 4))
        b = rng.standard_normal(6)

        def once():
            wt, xt = ad.parameter(w.copy()), ad.parameter(x.copy())
            with Tape() as tape:
                loss = ad.mean_all(ad.square(ad.dense(xt, wt, Tensor(b), "tanh")))
            g = tape.backward(loss, params=[wt, xt])
            return loss.data.copy(), g[wt].copy(), g[xt].copy()

        l1, gw1, gx1 = once()
        l2, gw2, gx2 = once()
        assert np.array_equal(l1, l2)
        assert np.array_equal(gw1, gw2) and np.array_equal(gx1, gx2)


def _dense_reference(x, w, b, activation, stable):
    """The out-of-place formula act(x @ W.T + b) and, for the upstream
    adjoint of mean_all(square(.)), the x, W and b gradients written as
    g * (1 - y*y), g * (y > 0) or g."""
    pre = (np.einsum("ni,oi->no", x, w) if stable else x @ w.T) + b
    y = {None: pre, "tanh": np.tanh(pre), "relu": np.maximum(pre, 0.0)}[activation]
    g = 2.0 * y * np.full(y.shape, 1.0 / y.size)
    gp = {None: g, "tanh": g * (1.0 - y * y), "relu": g * (y > 0.0)}[activation]
    gx = np.einsum("no,oi->ni", gp, w) if stable else gp @ w
    gw = np.einsum("no,ni->oi", gp, x) if stable else gp.T @ x
    return y, (gx, gw, gp.sum(axis=0))


class TestDense:
    def test_matches_unfused_ops(self):
        # the in-place forward and backward run the same IEEE operations in
        # the same order as the out-of-place formula: equal bit for bit
        rng = np.random.default_rng(7)
        for rows, width, out in [(37, 13, 11), (130, 64, 64)]:
            x = rng.standard_normal((rows, width))
            w = rng.standard_normal((out, width))
            b = rng.standard_normal(out)
            for stable in (False, True):
                for activation in (None, "tanh", "relu"):
                    y_ref, grads_ref = _dense_reference(x, w, b, activation, stable)
                    fused = {}

                    def build(xt, wt, bt):
                        fused["y"] = ad.dense(xt, wt, bt, activation=activation,
                                              stable=stable)
                        return ad.mean_all(ad.square(fused["y"]))

                    grads = grad_of(build, x, w, b)
                    case = f"{rows}x{width}->{out} {activation} stable={stable}"
                    assert np.array_equal(fused["y"].data, y_ref), case
                    for got, want in zip(grads, grads_ref):
                        assert np.array_equal(got, want), case

    def test_stable_matches_fast(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)
        fast = ad.dense(Tensor(x), Tensor(w), Tensor(b))
        stab = ad.dense(Tensor(x), Tensor(w), Tensor(b), stable=True)
        assert np.allclose(fast.data, stab.data, rtol=1e-14)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_input_rank_other_than_two_rejected(self, shape):
        w, b = Tensor(np.ones((5, 4))), Tensor(np.zeros(5))
        with pytest.raises(ShapeError):
            ad.dense(Tensor(np.ones(shape)), w, b)

    @pytest.mark.parametrize("stable", [False, True])
    @pytest.mark.parametrize("activation", [None, "tanh", "relu"])
    def test_gradients(self, stable, activation):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)

        def build(xt, wt, bt):
            return ad.mean_all(ad.square(ad.dense(xt, wt, bt, activation=activation,
                                                  stable=stable)))

        def value(arrs):
            pre = arrs[0] @ arrs[1].T + arrs[2]
            out = {None: pre, "tanh": np.tanh(pre),
                   "relu": np.maximum(pre, 0)}[activation]
            return float((out ** 2).mean())

        grads = grad_of(build, x, w, b)
        for i, arr in enumerate([x, w, b]):
            def f(v, i=i):
                vals = [x.copy(), w.copy(), b.copy()]
                vals[i] = v
                return value(vals)
            assert np.allclose(grads[i], fd_gradient(f, arr.copy()), rtol=1e-5, atol=1e-8)


class TestNeighborMean:
    def test_two_neighbors(self):
        mask = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        x = Tensor([[9.0, 9.0], [1.0, 2.0], [3.0, 4.0]])
        out = ad.neighbor_mean(mask, x)
        assert np.allclose(out.data[0], [2.0, 3.0])
        assert np.array_equal(out.data[1], [9.0, 9.0])

    def test_isolated_node_zeros(self):
        mask = np.zeros((2, 2))
        out = ad.neighbor_mean(mask, Tensor([[1.0], [2.0]]))
        assert np.array_equal(out.data, np.zeros((2, 1)))

    def test_complete_graph_equal_messages(self):
        n, p = 4, 3
        mask = 1.0 - np.eye(n)
        v = np.array([0.3, -0.7, 1.1])
        out = ad.neighbor_mean(mask, Tensor(np.tile(v, (n, 1))))
        assert np.allclose(out.data, np.tile(v, (n, 1)), rtol=1e-15)

    @pytest.mark.parametrize("stable", [False, True])
    def test_matches_plain_neighbor_loop(self, stable):
        rng = np.random.default_rng(13)
        mask = (rng.random((5, 5)) < 0.6).astype(float)
        np.fill_diagonal(mask, 0.0)
        x = rng.standard_normal((10, 3))  # two batch blocks of 5 nodes
        out = ad.neighbor_mean(mask, Tensor(x), stable=stable)
        for b in range(2):
            for k in range(5):
                total, count = np.zeros(3), 0
                for j in range(5):
                    if mask[k, j] > 0.0:
                        total += x[5 * b + j]
                        count += 1
                expect = total / count if count else np.zeros(3)
                assert np.allclose(out.data[5 * b + k], expect, rtol=1e-12, atol=1e-15)

    def test_batched_blocks(self):
        rng = np.random.default_rng(14)
        mask = (rng.random((3, 3)) < 0.7).astype(float)
        np.fill_diagonal(mask, 0.0)
        x = rng.standard_normal((6, 2))  # two batch blocks of 3 nodes
        out = ad.neighbor_mean(mask, Tensor(x))
        for b in range(2):
            single = ad.neighbor_mean(mask, Tensor(x[3 * b:3 * b + 3]))
            assert np.allclose(out.data[3 * b:3 * b + 3], single.data, rtol=1e-15)

    @pytest.mark.parametrize("stable", [False, True])
    def test_gradient(self, stable):
        rng = np.random.default_rng(15)
        mask = (rng.random((4, 4)) < 0.5).astype(float)
        np.fill_diagonal(mask, 0.0)
        x = rng.standard_normal((8, 2))
        (g,) = grad_of(lambda t: ad.mean_all(ad.square(
            ad.neighbor_mean(mask, t, stable=stable))), x)
        deg = mask.sum(axis=1)
        inv = np.where(deg > 0, 1 / np.maximum(deg, 1), 0.0)
        wmat = mask * inv[:, None]

        def f(v):
            m3 = v.reshape(2, 4, 2)
            out = np.einsum("kj,bjp->bkp", wmat, m3)
            return float((out ** 2).mean())

        assert np.allclose(g, fd_gradient(f, x.copy()), rtol=1e-5, atol=1e-9)


class TestLossPrimitives:
    def test_huber_branches(self):
        x = Tensor([0.0, 0.5, 2.0, -2.0])
        out = ad.huber(x, 1.0)
        assert np.allclose(out.data, [0.0, 0.125, 1.5, 1.5])

    def test_mean_all_gradient(self):
        (g,) = grad_of(lambda t: ad.mean_all(t), np.arange(6.0).reshape(2, 3))
        assert np.allclose(g, 1.0 / 6.0)


class TestOrderedSum:
    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(33)
        sums = {float(ad.ordered_sum(v[rng.permutation(33)], axis=0)) for _ in range(20)}
        assert len(sums) == 1

    def test_negative_zero_normalized(self):
        a = np.array([-0.0, 1.0, -1.0])
        b = np.array([0.0, -1.0, 1.0])
        assert np.array_equal(ad.ordered_sum(a, 0), ad.ordered_sum(b, 0))


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        p = ad.parameter(np.array([1.0, -2.0, 0.5]))
        err = ad.finite_diff_check(lambda ps: ad.mean_all(ad.square(ps[0])), [p])
        assert err < 1e-9

    def test_constant_function(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        err = ad.finite_diff_check(lambda ps: ad.mean_all(Tensor([0.0])), [p])
        assert err == 0.0

    def test_rejects_bad_eps(self):
        p = ad.parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda ps: ad.mean_all(ps[0]), [p], eps=0.0)


class TestRandomizedOpGradients:
    """Every taped op agrees with central differences on random inputs."""

    def test_all_ops(self):
        rng = np.random.default_rng(33)
        for trial in range(5):
            x = rng.standard_normal((4, 3))

            cases = {
                "scale": (lambda t: ad.mean_all(ad.scale(t, -1.7)),
                          lambda v: float((v * -1.7).mean()), x),
                "sub": (lambda t: ad.mean_all(ad.square(ad.sub(t, Tensor(np.ones((4, 3)))))),
                        lambda v: float(((v - 1) ** 2).mean()), x),
                "stack": (lambda t: ad.mean_all(ad.stack([t, ad.scale(t, 2.0)])),
                          lambda v: float(np.stack([v, 2 * v]).mean()), x),
                "reshape": (lambda t: ad.mean_all(ad.square(ad.reshape(t, (12,)))),
                            lambda v: float((v.reshape(12) ** 2).mean()), x),
                "concat_cols": (
                    lambda t: ad.mean_all(ad.square(ad.concat_cols([t, ad.scale(t, 0.5)]))),
                    lambda v: float((np.concatenate([v, 0.5 * v], axis=1) ** 2).mean()), x),
                "col_slice": (lambda t: ad.mean_all(ad.square(ad.col_slice(t, 1, 3))),
                              lambda v: float((v[:, 1:3] ** 2).mean()), x),
                "huber": (lambda t: ad.mean_all(ad.huber(t, 0.8)),
                          lambda v: float(np.where(np.abs(v) <= 0.8, 0.5 * v * v,
                                                   0.8 * (np.abs(v) - 0.4)).mean()), x),
            }
            for name, (build, value, arr) in cases.items():
                (g,) = grad_of(build, arr)
                fd = fd_gradient(lambda v: value(v), arr.copy())
                assert np.allclose(g, fd, rtol=1e-4, atol=1e-7), f"{name} trial {trial}"


def test_concurrent_tapes_share_readonly_params():
    # independent tapes differentiate concurrently; merging is the caller's
    import threading

    rng = np.random.default_rng(55)
    w = ad.parameter(rng.standard_normal((6, 4)))
    b = ad.parameter(rng.standard_normal(6))
    before = w.data.copy(), b.data.copy()
    inputs = [rng.standard_normal((3, 4)) for _ in range(8)]
    results = [None] * 8

    def loss_of(i):
        return ad.mean_all(ad.square(ad.dense(Tensor(inputs[i]), w, b, "tanh")))

    def work(i):
        with Tape() as tape:
            loss = loss_of(i)
        results[i] = tape.backward(loss, params=[w, b])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    # parameters stayed read-only during the passes
    assert np.array_equal(w.data, before[0]) and np.array_equal(b.data, before[1])
    for i in range(8):
        with Tape() as tape:
            loss = loss_of(i)
        serial = tape.backward(loss, params=[w, b])
        assert np.array_equal(results[i][w], serial[w])
        assert np.array_equal(results[i][b], serial[b])


def test_assert_finite_raises():
    with pytest.raises(DivergenceError):
        ad.assert_finite(np.array([1.0, np.nan]), "test value")


def test_untaped_ops_do_not_record():
    x = ad.parameter([1.0, 2.0])
    y = ad.square(x)  # no active tape
    assert y._backward is None and not y.requires_grad
