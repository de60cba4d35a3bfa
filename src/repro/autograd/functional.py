"""Vectorized dense kernels for the autograd engine.

Every kernel here is a single-pass computation: there are **no Python loops
over batch or channel dimensions**, the only Python-level loops being over
the kernel footprint (``kh × kw``, a handful of iterations).  Convolution
is im2col / col2im: the forward pass copies the strided window view once
into a ``(N*OH*OW, C*kh*kw)`` patch matrix and multiplies it by the filter
bank in one GEMM; the backward pass multiplies the same saved matrix for
the weight gradient.  Max pooling folds the footprint's strided corner
slices into a running max with a bitwise select, and its backward routes
the gradient corner by corner with the same select.

The dense numerical work dispatches through the **active array backend**
(:func:`repro.backend.get_backend`): the ndarray primitives (the GEMM,
padding, window views, reductions, transcendentals, RNG draws) and the
fusible elementwise chains (the affine map, the softmax family, batch-norm
normalization, the dropout mask) are backend methods, so an alternate
backend can fuse or reimplement them without touching this module.  Per the
``ArrayBackend`` contract, backends consume and produce numpy ndarrays (or
ndarray-compatible duck arrays): the cheap glue between composite calls —
broadcast bias adds, index gathers, scalar reductions of the gathered loss,
the max-pool select on integer bit views — stays plain ndarray arithmetic.
Each kernel resolves the backend once at trace time and its backward
closure reuses that same backend, so a forward pass and its backward always
run on the same implementation even if the active backend changes in
between.

All public ops accept :class:`~repro.autograd.tensor.Tensor` (or anything
coercible to one), record themselves on the tape and return a ``Tensor``.
What a backward pass needs is saved at trace time, so forward and backward
each cost one pass over the data.  Memory: conv keeps its patch matrix
(about ``kh*kw`` times its input) alive until backward instead of a
zero-copy window view — about 1.7 MB and 2.4 MB for the two convs of a
TBNet width-16 step at batch 64 — but only when its weight requires a
gradient (a frozen conv keeps nothing); max-pool keeps one integer winner
offset per output element.

Layouts follow the PyTorch convention: images are NCHW, convolution weights
are ``(out_channels, in_channels, kh, kw)``, classification logits are
``(batch, classes)``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.backend import default_rng, get_backend
from repro.autograd import ir
from repro.autograd.tensor import Tensor

__all__ = [
    "im2col",
    "col2im",
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "batch_norm",
    "dropout",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _pad_hw(be, x: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return be.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), value=value)


def _check_pool_padding(kh: int, kw: int, ph: int, pw: int) -> None:
    # Padding wider than half the kernel creates windows lying entirely in
    # padding (-inf outputs for max, diluted zeros for avg).
    if 2 * ph > kh or 2 * pw > kw:
        raise ValueError(
            f"pool padding ({ph},{pw}) should be at most half the kernel size ({kh},{kw})"
        )


def _out_hw(h: int, w: int, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int) -> Tuple[int, int]:
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) with stride ({sh},{sw}) and padding ({ph},{pw}) "
            f"does not fit input of spatial size ({h},{w})"
        )
    return oh, ow


# --------------------------------------------------------------------------- #
# im2col / col2im (ndarray-level building blocks)
# --------------------------------------------------------------------------- #
def _patch_matrix(
    be, x: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """The ``(N*OH*OW, C*kh*kw)`` im2col patch matrix of NCHW ``x``.

    Rows run over ``(N, OH, OW)`` and columns over ``(C, kh, kw)``, both
    row-major: one transposing copy of the strided window view.  The
    layout is part of the bit contract — the serving conv emitter fills the
    same matrix, so both hand BLAS the same GEMM operands.  Returns the
    matrix and ``(N, OH, OW)``.
    """
    xp = _pad_hw(be, x, ph, pw)
    win = be.sliding_windows(xp, kh, kw, sh, sw)  # (N, C, OH, OW, kh, kw) view into xp
    n, c, oh, ow = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return cols, (n, oh, ow)


def im2col(
    x: np.ndarray, kernel_size: IntPair, stride: IntPair = 1, padding: IntPair = 0, be=None
) -> np.ndarray:
    """Lower NCHW images to a patch matrix of shape ``(N, OH, OW, C*kh*kw)``.

    The resulting matrix turns convolution into a single GEMM against the
    flattened filter bank.  ``be`` pins the backend (default: the active one).
    """
    be = be if be is not None else get_backend()
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cols, (n, oh, ow) = _patch_matrix(be, np.asarray(x), kh, kw, sh, sw, ph, pw)
    return cols.reshape(n, oh, ow, -1)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
    be=None,
) -> np.ndarray:
    """Scatter-add a ``(N, OH, OW, C*kh*kw)`` patch matrix back to NCHW.

    This is the exact adjoint of :func:`im2col`: overlapping patches sum.
    ``be`` pins the backend; callers inside a backward closure pass the one
    they captured at trace time (default: the active backend).
    """
    be = be if be is not None else get_backend()
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    xp = be.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += patches[..., i, j]
    if ph or pw:
        return np.ascontiguousarray(xp[:, :, ph : ph + h, pw : pw + w])
    return xp


# --------------------------------------------------------------------------- #
# Shared forward cores
#
# The trace kernels and the IR forward evaluators (graph replay) run the
# *same* code, so a replayed node is bit-identical to the eager computation.
# --------------------------------------------------------------------------- #
def _conv2d_forward(
    be, xd: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray],
    sh: int, sw: int, ph: int, pw: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """NCHW cross-correlation core; returns ``(out, patch_matrix)``."""
    o, c, kh, kw = wd.shape
    cols, (n, oh, ow) = _patch_matrix(be, xd, kh, kw, sh, sw, ph, pw)
    # Contract channels and kernel footprint in one GEMM against the no-copy
    # F-contiguous (C*kh*kw, O) weight view: -> (N*OH*OW, O).
    out = be.matmul(cols, wd.transpose(1, 2, 3, 0).reshape(c * kh * kw, o))
    out = np.ascontiguousarray(out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2))
    if bd is not None:
        out += bd.reshape(1, -1, 1, 1)
    return out, cols


def _bits_dtype(dtype) -> np.dtype:
    """The signed integer dtype as wide as ``dtype`` (its bit-pattern view)."""
    return np.dtype(f"i{np.dtype(dtype).itemsize}")


def _max_pool_scratch(shape: Tuple[int, ...], dtype) -> Tuple[np.ndarray, ...]:
    """Reusable work buffers for :func:`_max_pool_corners`."""
    return (
        np.empty(shape, dtype),
        np.empty(shape, np.bool_),
        np.empty(shape, np.bool_),
        np.empty(shape, _bits_dtype(dtype)),
    )


def _max_pool_corners(
    xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
    out: np.ndarray, arg: Optional[np.ndarray] = None, scratch=None,
) -> None:
    """Max over every ``kh x kw`` window of (padded) ``xp`` into ``out``.

    Visits the footprint offsets in row-major order — ``argmax``'s order —
    and folds each strided corner slice into a running ``(best, arg)``
    with ``argmax`` semantics: the first max wins and the first NaN wins.
    The select runs bitwise on same-width integer views
    (``best ^= (best ^ cand) & take``), which copies the winner's exact
    bits and costs a fraction of a masked ``np.where``.  ``arg`` (the
    :func:`_bits_dtype` of ``out``) receives the winning footprint offset
    when given; ``scratch`` comes from :func:`_max_pool_scratch` (allocated
    when omitted).
    """
    oh, ow = out.shape[2], out.shape[3]
    cand, le, ok, take = scratch if scratch is not None else _max_pool_scratch(
        out.shape, out.dtype
    )
    bits = take.dtype
    best_bits, cand_bits = out.view(bits), cand.view(bits)
    for k in range(kh * kw):
        i, j = divmod(k, kw)
        corner = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
        if k == 0:
            np.copyto(out, corner)
            if arg is not None:
                arg.fill(0)
            continue
        np.copyto(cand, corner)
        # take = cand > best, or cand is the first NaN; as an all-ones mask:
        # (cand <= best) - (best == best) is -1 exactly there, else 0 (an
        # int8 subtract, sign-extended by the cast into ``take``).
        np.less_equal(cand, out, out=le)
        np.equal(out, out, out=ok)
        np.subtract(le.view(np.int8), ok.view(np.int8), out=take)
        np.bitwise_xor(best_bits, cand_bits, out=cand_bits)
        np.bitwise_and(cand_bits, take, out=cand_bits)
        np.bitwise_xor(best_bits, cand_bits, out=best_bits)
        if arg is not None:
            # Later offsets are larger, so max(arg, take & k) records k.
            np.bitwise_and(take, k, out=take)
            np.maximum(arg, take, out=arg)


def _max_pool2d_forward(
    be, xd: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Max-pool core; returns ``(out, argmax_offsets, padded_shape)``."""
    n, c, h, w = xd.shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)
    # Pad with -inf so padded positions never win the max.
    xp = _pad_hw(be, xd, ph, pw, value=-np.inf)
    out = np.empty((n, c, oh, ow), xd.dtype)
    arg = np.empty(out.shape, _bits_dtype(xd.dtype))
    _max_pool_corners(xp, kh, kw, sh, sw, out, arg)
    return out, arg, xp.shape


def _avg_pool2d_forward(
    be, xd: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Average-pool core; returns ``(out, padded_shape)``."""
    xp = _pad_hw(be, xd, ph, pw)
    win = be.sliding_windows(xp, kh, kw, sh, sw)
    out = np.ascontiguousarray(be.mean(win, axis=(4, 5)))
    return out, xp.shape


# --------------------------------------------------------------------------- #
# Dense layers
# --------------------------------------------------------------------------- #
def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as a single tape node.

    Weight is ``(in_features, out_features)``.  Compared to composing ``@``
    and ``+`` this records one node instead of two and its backward is three
    dense kernels (two GEMMs and a column sum) with no broadcasting
    bookkeeping.
    """
    be = get_backend()
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight)
    b_t = Tensor._wrap(bias) if bias is not None else None
    if x_t.data.ndim < 2:
        raise ValueError(
            "linear expects input of shape (..., in_features); got 1-D input "
            "(reshape to (1, in_features) for a single sample)"
        )
    if b_t is not None and b_t.data.shape != (w_t.data.shape[-1],):
        raise ValueError(
            f"linear bias must have shape ({w_t.data.shape[-1]},), got {b_t.data.shape}"
        )

    out = be.linear(x_t.data, w_t.data, b_t.data if b_t is not None else None)
    parents = (x_t, w_t) if b_t is None else (x_t, w_t, b_t)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            linear_backward(be, out_t.grad, x_t, w_t, b_t)

        return _backward

    return Tensor._make(out, parents, "linear", make_backward, be=be)


def linear_backward(be, g: np.ndarray, x_t: Tensor, w_t: Tensor, b_t: Optional[Tensor]) -> None:
    """Accumulate the affine map's three adjoints for incoming grad ``g``.

    Shared by the ``linear`` tape node and the fused ``linear_relu`` node
    (:mod:`repro.autograd.fusion`), which calls it with the relu-masked
    gradient — one definition, so a backward fix reaches both.
    """
    if x_t.requires_grad:
        x_t._accumulate_fresh(be.matmul(g, w_t.data.swapaxes(-1, -2)))
    if w_t.requires_grad:
        dw = be.matmul(x_t.data.swapaxes(-1, -2), g)
        if dw.ndim > w_t.data.ndim:  # batched input: sum leading dims
            dw = be.sum(dw, axis=tuple(range(dw.ndim - w_t.data.ndim)))
        w_t._accumulate_fresh(dw)
    if b_t is not None and b_t.requires_grad:
        b_t._accumulate_fresh(be.sum(g, axis=tuple(range(g.ndim - 1))))


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
def conv2d(
    x,
    weight,
    bias=None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation of an NCHW batch with an OIHW filter bank.

    The forward pass is one im2col GEMM.  The backward pass is two: the
    weight gradient against the patch matrix saved at trace time (no
    re-lowering), the input gradient as a patch matrix for :func:`col2im`.
    """
    be = get_backend()
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight)
    b_t = Tensor._wrap(bias) if bias is not None else None

    xd, wd = x_t.data, w_t.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ValueError("conv2d expects NCHW input and OIHW weight")
    out_c, in_c, kh, kw = wd.shape
    if xd.shape[1] != in_c:
        raise ValueError(f"input has {xd.shape[1]} channels, weight expects {in_c}")
    if b_t is not None and b_t.data.shape != (out_c,):
        raise ValueError(f"conv2d bias must have shape ({out_c},), got {b_t.data.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, _, h, w = xd.shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)

    out, cols = _conv2d_forward(
        be, xd, wd, b_t.data if b_t is not None else None, sh, sw, ph, pw
    )

    parents = (x_t, w_t) if b_t is None else (x_t, w_t, b_t)
    # Only the weight gradient reads the patch matrix: a frozen filter bank
    # does not keep it alive until backward.
    saved = cols if w_t.requires_grad else None

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            g = out_t.grad  # (N, O, OH, OW)
            if b_t is not None and b_t.requires_grad:
                b_t._accumulate_fresh(be.sum(g, axis=(0, 2, 3)))
            if saved is not None and w_t.requires_grad:
                # (O, N*OH*OW) @ (N*OH*OW, C*kh*kw) against the saved patch
                # matrix -> (O, C*kh*kw), one GEMM.
                dw = be.matmul(g.transpose(1, 0, 2, 3).reshape(out_c, -1), saved)
                w_t._accumulate_fresh(dw.reshape(wd.shape))
            if x_t.requires_grad:
                # (N*OH*OW, O) @ (O, C*kh*kw): exactly the patch matrix
                # col2im scatter-adds back.
                dcols = be.matmul(
                    g.transpose(0, 2, 3, 1).reshape(-1, out_c), wd.reshape(out_c, -1)
                )
                x_t._accumulate_fresh(
                    col2im(
                        dcols.reshape(n, oh, ow, -1), xd.shape, (kh, kw), (sh, sw), (ph, pw), be=be
                    )
                )

        return _backward

    return Tensor._make(
        out, parents, "conv2d", make_backward,
        attrs={"stride": (sh, sw), "padding": (ph, pw)}, be=be,
    )


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def max_pool2d(
    x, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling over NCHW windows; gradient routes to the arg-max element."""
    be = get_backend()
    x_t = Tensor._wrap(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(kernel_size if stride is None else stride)
    ph, pw = _pair(padding)
    _check_pool_padding(kh, kw, ph, pw)
    xd = x_t.data
    n, c, h, w = xd.shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)

    # xp_shape: the closure needs only the padded shape, not the padded copy.
    out, arg, xp_shape = _max_pool2d_forward(be, xd, kh, kw, sh, sw, ph, pw)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if not x_t.requires_grad:
                return
            bits = arg.dtype
            # ``+ 0.0`` turns -0.0 into +0.0, as the scatter-add ``0 + g``
            # onto a zero buffer does; the select then routes each window's
            # gradient bits to its winner's corner and +0.0 elsewhere (a
            # multiply by the mask would leak NaN/inf as NaN).
            gz = (out_t.grad + 0.0).view(bits)
            dxp = be.zeros(xp_shape, dtype=xd.dtype)
            won = np.empty(arg.shape, np.bool_)
            mask = np.empty(arg.shape, bits)
            for k in range(kh * kw):
                i, j = divmod(k, kw)
                rows, cols = slice(i, i + sh * oh, sh), slice(j, j + sw * ow, sw)
                np.equal(arg, k, out=won)
                np.negative(won.view(np.int8), out=mask)
                # Where windows overlap, contributions sum in footprint order.
                np.bitwise_and(gz, mask, out=mask)
                dxp[:, :, rows, cols] += mask.view(xd.dtype)
            if ph or pw:
                x_t._accumulate_fresh(
                    np.ascontiguousarray(dxp[:, :, ph : ph + h, pw : pw + w])
                )
            else:
                x_t._accumulate_fresh(dxp)

        return _backward

    return Tensor._make(
        out, (x_t,), "max_pool2d", make_backward,
        attrs={"kernel_size": (kh, kw), "stride": (sh, sw), "padding": (ph, pw)}, be=be,
    )


def avg_pool2d(
    x, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Average pooling over NCHW windows (padded zeros count toward the mean)."""
    be = get_backend()
    x_t = Tensor._wrap(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(kernel_size if stride is None else stride)
    ph, pw = _pair(padding)
    _check_pool_padding(kh, kw, ph, pw)
    xd = x_t.data
    n, c, h, w = xd.shape
    oh, ow = _out_hw(h, w, kh, kw, sh, sw, ph, pw)

    # xp_shape: the closure needs only the padded shape, not the padded copy.
    out, xp_shape = _avg_pool2d_forward(be, xd, kh, kw, sh, sw, ph, pw)
    inv_area = 1.0 / (kh * kw)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if not x_t.requires_grad:
                return
            g = out_t.grad * np.asarray(inv_area, dtype=xd.dtype)
            # Direct scatter instead of col2im: every patch entry is the same
            # g value, so materializing the (N,OH,OW,C*kh*kw) matrix would be
            # pure waste.
            dxp = be.zeros(xp_shape, dtype=xd.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += g
            if ph or pw:
                x_t._accumulate_fresh(
                    np.ascontiguousarray(dxp[:, :, ph : ph + h, pw : pw + w])
                )
            else:
                x_t._accumulate_fresh(dxp)

        return _backward

    return Tensor._make(
        out, (x_t,), "avg_pool2d", make_backward,
        attrs={"kernel_size": (kh, kw), "stride": (sh, sw), "padding": (ph, pw)}, be=be,
    )


# --------------------------------------------------------------------------- #
# Normalization and regularization
# --------------------------------------------------------------------------- #
def batch_norm(
    x,
    weight=None,
    bias=None,
    running_mean: Optional[np.ndarray] = None,
    running_var: Optional[np.ndarray] = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis (axis 1) as one tape node.

    Works for any ``(N, C, ...)`` layout: statistics are reduced over every
    axis except the channel axis, so the same kernel serves ``BatchNorm1d``
    (``(N, C)``) and ``BatchNorm2d`` (``(N, C, H, W)``).

    In training mode the batch statistics normalize the input and, when
    ``running_mean`` / ``running_var`` arrays are supplied, they are updated
    **in place** with an exponential moving average (``momentum`` weighting
    the new observation; the variance update uses the unbiased estimator,
    matching PyTorch).  Training mode requires more than one value per
    channel — with a single value the batch variance is degenerate and the
    unbiased correction ``n / (n - 1)`` is undefined, so a ``ValueError`` is
    raised (as PyTorch does) instead of silently poisoning the running
    statistics.  In eval mode the running statistics normalize the input and
    are never touched; if none were supplied the batch statistics are used
    as a fallback.

    ``weight`` (gamma) and ``bias`` (beta) are optional ``(C,)`` tensors for
    the affine transform; either may be ``None``.
    """
    be = get_backend()
    x_t = Tensor._wrap(x)
    w_t = Tensor._wrap(weight) if weight is not None else None
    b_t = Tensor._wrap(bias) if bias is not None else None

    xd = x_t.data
    if xd.ndim < 2:
        raise ValueError("batch_norm expects input of shape (N, C, ...)")
    c = xd.shape[1]
    for name, t in (("weight", w_t), ("bias", b_t)):
        if t is not None and t.data.shape != (c,):
            raise ValueError(f"batch_norm {name} must have shape ({c},), got {t.data.shape}")
    axes = (0,) + tuple(range(2, xd.ndim))
    bshape = (1, c) + (1,) * (xd.ndim - 2)
    m = xd.size // c  # elements per channel
    if training and m <= 1:
        raise ValueError(
            "batch_norm: expected more than 1 value per channel in training "
            f"mode, got input of shape {tuple(xd.shape)} ({m} per channel); "
            "use eval mode or a larger batch"
        )

    use_batch_stats = training or running_mean is None or running_var is None
    if use_batch_stats:
        mean = be.mean(xd, axis=axes)
        var = be.var(xd, axis=axes)
    else:
        mean = np.asarray(running_mean, dtype=xd.dtype)
        var = np.asarray(running_var, dtype=xd.dtype)

    if training and running_mean is not None and running_var is not None:
        # Unbiased variance for the running estimate (biased for
        # normalization); m > 1 is guaranteed by the check above.
        unbiased = var * (m / (m - 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.astype(running_var.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat, out = be.bn_normalize(
        xd,
        mean,
        inv_std,
        w_t.data if w_t is not None else None,
        b_t.data if b_t is not None else None,
        bshape,
    )

    parents = tuple(t for t in (x_t, w_t, b_t) if t is not None)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            batch_norm_backward(
                be, out_t.grad, x_t, w_t, b_t, xhat, inv_std, axes, bshape, use_batch_stats
            )

        return _backward

    return Tensor._make(
        out, parents, "batch_norm", make_backward,
        attrs={
            "training": training,
            "use_batch_stats": use_batch_stats,
            "axes": axes,
            "bshape": bshape,
            "eps": eps,
            # In eval mode ``mean`` can be the module's live running_mean
            # buffer (np.asarray is a no-copy passthrough): snapshot it so
            # later in-place stat updates cannot leak into a saved trace
            # whose inv_std is already frozen.
            "mean": mean if use_batch_stats else mean.copy(),
            "inv_std": inv_std,
            "xhat": xhat,
            "has_weight": w_t is not None,
            "has_bias": b_t is not None,
        },
        be=be,
    )


def batch_norm_backward(
    be,
    g: np.ndarray,
    x_t: Tensor,
    w_t: Optional[Tensor],
    b_t: Optional[Tensor],
    xhat: np.ndarray,
    inv_std: np.ndarray,
    axes,
    bshape,
    use_batch_stats: bool,
) -> None:
    """Accumulate batch-norm's adjoints for incoming grad ``g``.

    Shared by the ``batch_norm`` tape node and the fused
    ``batch_norm_relu`` node (:mod:`repro.autograd.fusion`), which calls it
    with the relu-masked gradient — one definition, so a backward fix
    reaches both.
    """
    if b_t is not None and b_t.requires_grad:
        b_t._accumulate_fresh(be.sum(g, axis=axes))
    if w_t is not None and w_t.requires_grad:
        w_t._accumulate_fresh(be.sum(be.multiply(g, xhat), axis=axes))
    if not x_t.requires_grad:
        return
    dxhat = be.multiply(g, w_t.data.reshape(bshape)) if w_t is not None else g
    if use_batch_stats:
        # Batch statistics depend on x: the full three-term adjoint.
        x_t._accumulate_fresh(be.bn_input_grad(dxhat, xhat, inv_std, axes, bshape))
    else:
        # Running statistics are constants: pure elementwise scaling.
        x_t._accumulate_fresh(be.multiply(dxhat, inv_std.reshape(bshape)))


def dropout(
    x,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` in training.

    Kept elements are scaled by ``1 / (1 - p)`` so activations keep their
    expected magnitude and eval needs no rescaling.  In eval mode (or with
    ``p == 0``) the input tensor is returned unchanged — no mask, no tape
    node.  The mask is drawn from the explicit ``rng`` generator when given;
    without one it falls back to the **seeded global generator**
    (:func:`repro.backend.default_rng`, reset by
    ``repro.nn.init.manual_seed``) so training runs are reproducible without
    threading a generator through every call.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability must be in [0, 1], got {p}")
    be = get_backend()
    x_t = Tensor._wrap(x)
    if not training or p == 0.0:
        return x_t

    xd = x_t.data
    if p == 1.0:
        mask = be.zeros(xd.shape, dtype=xd.dtype)
    else:
        mask = be.dropout_mask(rng if rng is not None else default_rng(), xd.shape, p, xd.dtype)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if x_t.requires_grad:
                x_t._accumulate_fresh(be.multiply(out_t.grad, mask))

        return _backward

    return Tensor._make(
        be.multiply(xd, mask), (x_t,), "dropout", make_backward,
        attrs={"mask": mask, "p": p}, be=be,
    )


# --------------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------------- #
def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    be = get_backend()
    x_t = Tensor._wrap(x)
    probs = be.softmax(x_t.data, axis)  # owned fresh buffer

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if x_t.requires_grad:
                x_t._accumulate_fresh(be.softmax_grad(out_t.grad, probs, axis))

        return _backward

    return Tensor._make(
        probs, (x_t,), "softmax", make_backward, attrs={"axis": axis}, be=be
    )


def log_softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    be = get_backend()
    x_t = Tensor._wrap(x)
    logp = be.log_softmax(x_t.data, axis)

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if x_t.requires_grad:
                x_t._accumulate_fresh(be.log_softmax_grad(out_t.grad, logp, axis))

        return _backward

    return Tensor._make(
        logp, (x_t,), "log_softmax", make_backward, attrs={"axis": axis}, be=be
    )


def softmax_cross_entropy(logits, targets, reduction: str = "mean") -> Tensor:
    """Fused softmax + negative-log-likelihood over ``(batch, classes)`` logits.

    ``targets`` are integer class indices of shape ``(batch,)`` (ndarray or
    Tensor; never differentiated) and must lie in ``[0, classes)`` — negative
    or too-large labels raise instead of silently wrapping around.  Fusing
    the two steps keeps the backward pass a single ``probs - onehot`` kernel
    with no intermediate graph nodes.
    """
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    be = get_backend()
    x_t = Tensor._wrap(logits)
    idx = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    idx = idx.astype(np.int64).reshape(-1)
    # Targets are a data-dependent *input* of the node (unlike structural
    # attrs): replaying the trace over a new batch must bind new labels, so
    # they ride along as a non-differentiable integer parent tensor.  When
    # the caller handed us a Tensor, that very object is the parent — a
    # captured trace then maps it to a replay input slot instead of
    # freezing the trace-time labels in.
    if isinstance(targets, Tensor) and not targets.requires_grad:
        t_t = targets
    else:
        t_t = Tensor(idx, dtype=np.int64)

    out, logp, rows = _softmax_cross_entropy_forward(be, x_t.data, idx, reduction)
    n = idx.shape[0]

    def make_backward(out_t: Tensor):
        def _backward() -> None:
            if not x_t.requires_grad:
                return
            g = out_t.grad
            if reduction == "none":
                scale = g.reshape(-1, 1)
                if scale.dtype != logp.dtype:
                    scale = scale.astype(logp.dtype)
            else:
                s = float(g) / n if reduction == "mean" else float(g)
                scale = np.asarray(s, dtype=logp.dtype)
            x_t._accumulate_fresh(be.xent_grad(logp, rows, idx, scale))

        return _backward

    return Tensor._make(
        out, (x_t, t_t), "softmax_cross_entropy", make_backward,
        attrs={"reduction": reduction}, be=be,
    )


def _softmax_cross_entropy_forward(be, logits: np.ndarray, idx: np.ndarray, reduction: str):
    """Shared validation + loss core; returns ``(out, logp, rows)``.

    One definition serves the trace kernel and the IR replay evaluator, so
    a fix to the loss math or its guards reaches both.
    """
    if logits.ndim != 2 or idx.shape[0] != logits.shape[0]:
        raise ValueError("softmax_cross_entropy expects (N, C) logits and (N,) targets")
    if idx.shape[0] == 0 and reduction == "mean":
        # The mean of an empty batch is 0/0 (nan forward, zero division in
        # the backward scale); sum/none stay well-defined on N=0.
        raise ValueError(
            "softmax_cross_entropy got an empty batch (N=0); the mean loss "
            "is undefined — use reduction='sum' or 'none' for empty shards"
        )
    n_classes = logits.shape[1]
    if idx.size and (idx.min() < 0 or idx.max() >= n_classes):
        raise ValueError(
            f"softmax_cross_entropy targets must be class indices in "
            f"[0, {n_classes}), got values in [{idx.min()}, {idx.max()}]"
        )
    rows = np.arange(idx.shape[0])
    logp = be.log_softmax(logits, -1)
    losses = -logp[rows, idx]
    if reduction == "mean":
        out = losses.mean(dtype=losses.dtype)
    elif reduction == "sum":
        out = losses.sum(dtype=losses.dtype)
    else:
        out = losses
    return np.asarray(out), logp, rows


# --------------------------------------------------------------------------- #
# IR forward evaluators
#
# Each replays a recorded node's forward from its saved attrs over new input
# arrays, through the exact same core the trace kernel ran — graph replay
# (repro.serve) is therefore bit-identical to the eager computation.
# --------------------------------------------------------------------------- #
def _bn_replay_stats(be, xd: np.ndarray, attrs: dict) -> Tuple[np.ndarray, np.ndarray]:
    """``(mean, inv_std)`` for replaying a recorded batch-norm node."""
    if attrs["training"]:
        raise RuntimeError(
            "cannot replay a train-mode batch_norm node: replaying would "
            "re-update the running statistics; capture the trace in eval mode"
        )
    if attrs["use_batch_stats"]:
        # Eval without running statistics: the batch-statistics fallback is
        # recomputed from the new input, like the eager kernel does.
        mean = be.mean(xd, axis=attrs["axes"])
        var = be.var(xd, axis=attrs["axes"])
        return mean, 1.0 / np.sqrt(var + attrs["eps"])
    # Running statistics are frozen constants of the trace.
    return attrs["mean"], attrs["inv_std"]


def _bn_affine_inputs(inputs, attrs) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Extract ``(gamma, beta)`` from a batch-norm node's input arrays."""
    gamma = inputs[1] if attrs["has_weight"] else None
    if attrs["has_bias"]:
        beta = inputs[2] if attrs["has_weight"] else inputs[1]
    else:
        beta = None
    return gamma, beta


@ir.register_forward("linear")
def _eval_linear(be, inputs, attrs):
    return be.linear(inputs[0], inputs[1], inputs[2] if len(inputs) == 3 else None)


@ir.register_forward("conv2d")
def _eval_conv2d(be, inputs, attrs):
    (sh, sw), (ph, pw) = attrs["stride"], attrs["padding"]
    bd = inputs[2] if len(inputs) == 3 else None
    return _conv2d_forward(be, inputs[0], inputs[1], bd, sh, sw, ph, pw)[0]


@ir.register_forward("max_pool2d")
def _eval_max_pool2d(be, inputs, attrs):
    (kh, kw), (sh, sw), (ph, pw) = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    return _max_pool2d_forward(be, inputs[0], kh, kw, sh, sw, ph, pw)[0]


@ir.register_forward("avg_pool2d")
def _eval_avg_pool2d(be, inputs, attrs):
    (kh, kw), (sh, sw), (ph, pw) = attrs["kernel_size"], attrs["stride"], attrs["padding"]
    return _avg_pool2d_forward(be, inputs[0], kh, kw, sh, sw, ph, pw)[0]


@ir.register_forward("batch_norm")
def _eval_batch_norm(be, inputs, attrs):
    xd = inputs[0]
    mean, inv_std = _bn_replay_stats(be, xd, attrs)
    gamma, beta = _bn_affine_inputs(inputs, attrs)
    return be.bn_normalize(xd, mean, inv_std, gamma, beta, attrs["bshape"])[1]


@ir.register_forward("dropout")
def _eval_dropout(be, inputs, attrs):
    # Deterministic replay of the mask drawn at trace time.
    return be.multiply(inputs[0], attrs["mask"])


@ir.register_forward("softmax")
def _eval_softmax(be, inputs, attrs):
    return be.softmax(inputs[0], attrs["axis"])


@ir.register_forward("log_softmax")
def _eval_log_softmax(be, inputs, attrs):
    return be.log_softmax(inputs[0], attrs["axis"])


@ir.register_forward("softmax_cross_entropy")
def _eval_softmax_cross_entropy(be, inputs, attrs):
    idx = inputs[1].astype(np.int64).reshape(-1)
    return _softmax_cross_entropy_forward(be, inputs[0], idx, attrs["reduction"])[0]
