"""Generated oracle cases for the max-pool and conv kernels.

The references are the straightforward spellings the kernels replaced: an
``argmax`` over materialized windows with ``take_along_axis`` and an
``np.add.at`` scatter for max-pool, and ``np.tensordot`` over the strided
window view for conv.  The kernels must reproduce them byte for byte
(except where overlapping pool windows sum a pixel's gradient in another
order).
"""

import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.backend import get_backend

DTYPES = (np.float32, np.float64)

# (kernel, stride, padding) with padding at most half the kernel.
POOL_GRID = [
    (k, s, p)
    for k, s, p in itertools.product(
        [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)],
        [(1, 1), (2, 2), (1, 2), (3, 3)],
        [(0, 0), (1, 1), (0, 1), (1, 0)],
    )
    if 2 * p[0] <= k[0] and 2 * p[1] <= k[1]
]


def _id(case):
    (kh, kw), (sh, sw), (ph, pw) = case
    return f"k{kh}x{kw}-s{sh}x{sw}-p{ph}x{pw}"


def _windows(x, kh, kw, sh, sw, ph, pw, fill):
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    return xp, sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]


def _ref_max_pool(x, kh, kw, sh, sw, ph, pw):
    """``argmax`` over materialized windows; returns ``(out, arg, padded_shape)``."""
    xp, win = _windows(x, kh, kw, sh, sw, ph, pw, -np.inf)
    flat = win.reshape(win.shape[:4] + (kh * kw,))
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), arg, xp.shape


def _ref_max_pool_grad(g, arg, xp_shape, x_shape, kh, kw, sh, sw, ph, pw):
    """``np.add.at`` scatter of ``g`` onto each window's arg-max."""
    n, c, oh, ow = g.shape
    dxp = np.zeros(xp_shape, g.dtype)
    n_i, c_i, oh_i, ow_i = np.ogrid[0:n, 0:c, 0:oh, 0:ow]
    np.add.at(dxp, (n_i, c_i, oh_i * sh + arg // kw, ow_i * sw + arg % kw), g)
    h, w = x_shape[2:]
    return np.ascontiguousarray(dxp[:, :, ph : ph + h, pw : pw + w])


# Values chosen so ties are frequent: ±0, ±inf, NaNs with both sign bits,
# and repeated finite values.
_SPECIALS = np.array(
    [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan, -np.nan], dtype=np.float64
)


def _pool_input(kind, shape, dtype, rng):
    if kind == "random":
        return rng.standard_normal(shape).astype(dtype)
    if kind == "specials":
        return rng.choice(_SPECIALS, size=shape).astype(dtype)
    if kind == "ties":
        return rng.integers(-1, 2, size=shape).astype(dtype)
    if kind == "all_equal":
        return np.full(shape, 0.5, dtype)
    if kind == "all_neg_inf":
        return np.full(shape, -np.inf, dtype)
    raise AssertionError(kind)


KINDS = ("random", "specials", "ties", "all_equal", "all_neg_inf")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", POOL_GRID, ids=_id)
def test_max_pool_forward_matches_argmax_oracle(case, dtype):
    (kh, kw), (sh, sw), (ph, pw) = case
    rng = np.random.default_rng([kh, kw, sh, sw, ph, pw])
    for kind in KINDS:
        x = _pool_input(kind, (2, 3, 7, 8), dtype, rng)
        ref_out, ref_arg, ref_shape = _ref_max_pool(x, kh, kw, sh, sw, ph, pw)
        out, arg, xp_shape = F._max_pool2d_forward(get_backend(), x, kh, kw, sh, sw, ph, pw)
        assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes(), kind
        assert arg.astype(np.intp).tobytes() == ref_arg.tobytes(), kind
        assert xp_shape == ref_shape
        public = F.max_pool2d(Tensor(x, dtype=dtype), (kh, kw), (sh, sw), (ph, pw)).data
        assert public.tobytes() == ref_out.tobytes(), kind


def _pool_grad(x, g, kh, kw, sh, sw, ph, pw):
    t = Tensor(x, dtype=x.dtype, requires_grad=True)
    F.max_pool2d(t, (kh, kw), (sh, sw), (ph, pw)).backward(g)
    return t.grad


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", POOL_GRID, ids=_id)
def test_max_pool_backward_matches_add_at_oracle(case, dtype):
    (kh, kw), (sh, sw), (ph, pw) = case
    overlapping = sh < kh or sw < kw
    rng = np.random.default_rng([kh, kw, sh, sw, ph, pw, 1])
    for kind in KINDS:
        x = _pool_input(kind, (2, 3, 7, 8), dtype, rng)
        _, arg, xp_shape = _ref_max_pool(x, kh, kw, sh, sw, ph, pw)
        out_shape = arg.shape

        def ref(g):
            return _ref_max_pool_grad(g, arg, xp_shape, x.shape, kh, kw, sh, sw, ph, pw)

        # Small integers sum exactly in any order, so the routing is checked
        # byte for byte even where overlapping windows share a pixel.
        g_int = rng.integers(-4, 5, size=out_shape).astype(dtype)
        assert _pool_grad(x, g_int, kh, kw, sh, sw, ph, pw).tobytes() == ref(g_int).tobytes()

        g = rng.standard_normal(out_shape).astype(dtype)
        if overlapping:
            np.testing.assert_allclose(
                _pool_grad(x, g, kh, kw, sh, sw, ph, pw), ref(g), rtol=1e-6, atol=1e-6
            )
        else:
            # One contribution per pixel: -0.0, ±inf and NaN gradients must
            # land exactly as ``0 + g`` does.
            g_special = rng.choice(_SPECIALS, size=out_shape).astype(dtype)
            for grad in (g, g_special):
                got = _pool_grad(x, grad, kh, kw, sh, sw, ph, pw)
                assert got.tobytes() == ref(grad).tobytes(), kind


# --------------------------------------------------------------------------- #
# conv2d against np.tensordot over the window view
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
@pytest.mark.parametrize("padding", [(0, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("frozen", [False, True], ids=["train", "frozen"])
def test_conv2d_matches_tensordot_oracle(stride, padding, dtype, frozen):
    (sh, sw), (ph, pw) = stride, padding
    rng = np.random.default_rng(sh * 100 + sw * 10 + ph * 3 + pw)
    x = rng.standard_normal((3, 4, 9, 8)).astype(dtype)
    w = rng.standard_normal((5, 4, 3, 3)).astype(dtype)
    b = rng.standard_normal(5).astype(dtype)
    xt, wt, bt = (Tensor(a, dtype=dtype, requires_grad=True) for a in (x, w, b))
    # A frozen filter bank saves no patch matrix; dX must not need it.
    wt.requires_grad = not frozen
    out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    out.backward(g)

    _, win = _windows(x, 3, 3, sh, sw, ph, pw, 0.0)
    ref_out = np.ascontiguousarray(
        np.tensordot(win, w, axes=((1, 4, 5), (1, 2, 3))).transpose(0, 3, 1, 2)
    )
    ref_out += b.reshape(1, -1, 1, 1)
    ref_dw = np.tensordot(g, win, axes=((0, 2, 3), (0, 2, 3)))
    n, _, oh, ow = g.shape
    ref_dcols = np.tensordot(g.transpose(0, 2, 3, 1), w, axes=((3,), (0,)))
    ref_dx = F.col2im(ref_dcols.reshape(n, oh, ow, -1), x.shape, 3, stride, padding)

    assert out.data.tobytes() == ref_out.tobytes()
    if frozen:
        assert wt.grad is None
    else:
        assert wt.grad.tobytes() == np.ascontiguousarray(ref_dw).tobytes()
    assert xt.grad.tobytes() == ref_dx.tobytes()

