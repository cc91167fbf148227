"""Pluggable array backends and the compute-dtype policy for :mod:`repro.nn`.

Every array operation the autograd substrate performs — GEMMs, im2col /
col2im unfolding, pooling-window extraction, elementwise math, reductions,
padding, contiguity — is routed through the *active* :class:`ArrayBackend`
instead of inline ``np.*`` calls.  That seam is what lets the same CIP
reproduction run on different substrates without touching the op
definitions (in the spirit of HIPS ``autograd``'s thin NumPy wrapper and
``xitorch``'s pluggable linear operators):

* :class:`NumpyBackend` (the default) executes the exact same NumPy call
  sequence the pre-backend code did — it is **bitwise identical** to the
  historical behaviour, which the pinned-digest test in
  ``tests/fl/test_backend_identity.py`` asserts end-to-end.
* :class:`AcceleratedBackend` unfolds convolutions channels-last (NHWC
  canvases, (KH, KW, C) columns), keeps its canvas/column/GEMM
  workspaces alive across steps (steady-state training performs the big
  conv allocations once, then recycles them) and runs conv2d as a single
  preallocated GEMM.  Combined with the float32 policy this is the fast
  path measured by ``perfbench`` (``cip_silo``).

Orthogonally, a :class:`DtypePolicy` decides what dtype differentiable
data lives in.  The default ``"float64"`` policy reproduces the historical
coercion rules exactly; the opt-in ``"float32"`` policy keeps parameters,
activations and gradients in float32 while still *accumulating loss
reductions in float64* (see ``repro.nn.losses._reduce``), so the reported
loss does not drift with batch size.

Selection is global-per-process (mirroring ``repro.nn.diagnostics``):
:func:`set_backend` activates a backend and/or policy, :func:`use_backend`
scopes the activation to a block, and the ``REPRO_NN_BACKEND`` /
``REPRO_NN_COMPUTE_DTYPE`` environment variables activate at import time so
process-pool workers inherit the selection (the FL executor additionally
activates explicitly via its worker initializer).

This module deliberately imports nothing from the rest of ``repro`` so the
op modules can depend on it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

#: Environment variables activating a backend / dtype policy at import time.
BACKEND_ENV_VAR = "REPRO_NN_BACKEND"
DTYPE_ENV_VAR = "REPRO_NN_COMPUTE_DTYPE"


class WorkspaceStats(NamedTuple):
    """Freelist effectiveness counters reported by :meth:`ArrayBackend.workspace_stats`.

    ``hits``/``misses`` count pool acquisitions served from the freelist
    versus freshly allocated (cumulative since the last
    :meth:`~ArrayBackend.clear_workspaces`); ``buffers``/``resident_bytes``
    describe what is currently parked in the pool.
    """

    hits: int
    misses: int
    buffers: int
    resident_bytes: int


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution/pooling along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def _window_view(
    images: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(N, C, OH, OW, KH, KW)`` sliding-window view of NCHW images.

    The only ``as_strided`` call in the nn substrate (enforced by the
    dispatch-hygiene test); works on non-contiguous inputs because it uses
    the array's own strides.
    """
    strides = images.strides
    return np.lib.stride_tricks.as_strided(
        images,
        shape=(images.shape[0], images.shape[1], out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def _scatter_cols(
    padded: np.ndarray,
    cols: np.ndarray,
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> None:
    """Accumulate a column matrix into a (padded) NCHW image in place."""
    batch, channels = padded.shape[0], padded.shape[1]
    cols6 = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    for kh in range(kernel):
        h_end = kh + stride * out_h
        for kw in range(kernel):
            w_end = kw + stride * out_w
            padded[:, :, kh:h_end:stride, kw:w_end:stride] += cols6[:, :, :, :, kh, kw]


def _one_group(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Add the leading group axis of the grouped conv kernels."""
    return None if array is None else array[None]


def _only_group(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Drop the leading axis of a one-group conv gradient."""
    return None if array is None else array[0]


def _permute_kernel(w_mat3: np.ndarray, kernel: int, channels_last: bool) -> np.ndarray:
    """Reorder ``(G, O, K)`` weight rows between (C, KH, KW) and (KH, KW, C)."""
    groups, out_channels, size = w_mat3.shape
    channels = size // (kernel * kernel)
    if channels_last:
        split, order = (channels, kernel, kernel), (0, 1, 3, 4, 2)
    else:
        split, order = (kernel, kernel, channels), (0, 1, 4, 2, 3)
    return np.ascontiguousarray(
        w_mat3.reshape((groups, out_channels) + split).transpose(order)
    ).reshape(groups, out_channels, size)


# ----------------------------------------------------------------------
# Dtype policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DtypePolicy:
    """What dtype differentiable data, gradients and losses live in.

    Attributes
    ----------
    name:
        Registry key (``"float64"`` or ``"float32"``).
    compute_dtype:
        The dtype parameters, buffers and leaf tensors are coerced to.
    cast_floating_leaves:
        Whether *floating* leaf data is also coerced to ``compute_dtype``
        (the float64 policy keeps the historical rule: only non-floating
        differentiable data is coerced, so explicitly-float32 tensors stay
        float32 under the default policy).
    preserve_grad_dtype:
        ``False`` — gradients are always accumulated in float64 (the
        historical, bit-identical behaviour); ``True`` — gradients match
        their tensor's dtype, keeping the whole backward pass in
        ``compute_dtype``.
    upcast_loss:
        Whether loss reductions (mean/sum over per-sample losses) are
        accumulated in float64 even when activations are float32.
    """

    name: str
    compute_dtype: "np.dtype"
    cast_floating_leaves: bool
    preserve_grad_dtype: bool
    upcast_loss: bool

    @property
    def loss_dtype(self) -> "np.dtype":
        """Dtype loss reductions accumulate in (always float64)."""
        return np.dtype(np.float64)

    def grad_dtype(self, data_dtype: "np.dtype") -> "np.dtype":
        """Dtype of the gradient accumulated into a tensor of ``data_dtype``."""
        if not self.preserve_grad_dtype:
            return np.dtype(np.float64)
        dtype = np.dtype(data_dtype)
        if np.issubdtype(dtype, np.floating):
            return dtype
        return np.dtype(self.compute_dtype)

    def coerce_leaf(
        self, array: np.ndarray, requires_grad: bool, is_leaf: bool
    ) -> np.ndarray:
        """Apply the policy's dtype coercion to freshly-constructed data."""
        if requires_grad and not np.issubdtype(array.dtype, np.floating):
            return array.astype(self.compute_dtype)
        if (
            self.cast_floating_leaves
            and is_leaf
            and np.issubdtype(array.dtype, np.floating)
            and array.dtype != self.compute_dtype
        ):
            return array.astype(self.compute_dtype)
        return array


_POLICIES: Dict[str, DtypePolicy] = {
    "float64": DtypePolicy(
        name="float64",
        compute_dtype=np.dtype(np.float64),
        cast_floating_leaves=False,
        preserve_grad_dtype=False,
        upcast_loss=False,
    ),
    "float32": DtypePolicy(
        name="float32",
        compute_dtype=np.dtype(np.float32),
        cast_floating_leaves=True,
        preserve_grad_dtype=True,
        upcast_loss=True,
    ),
}


def available_dtype_policies() -> Tuple[str, ...]:
    return tuple(_POLICIES)


def get_policy(name: str) -> DtypePolicy:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown compute dtype {name!r}; choose from {tuple(_POLICIES)}"
        ) from None


# ----------------------------------------------------------------------
# Backend protocol (the base class doubles as the NumPy reference impl)
# ----------------------------------------------------------------------
class ArrayBackend:
    """The array-op protocol the nn substrate dispatches through.

    The base class *is* the NumPy reference implementation: every method
    runs the exact call the pre-backend inline code ran, so a subclass only
    overrides what it accelerates.  All methods take/return plain
    ``np.ndarray``s — autograd bookkeeping stays in ``repro.nn.tensor``.
    """

    name = "base"

    #: True when conv scratch (the im2col column cache) is recycled inside
    #: the backward pass — a graph built on such a backend supports only a
    #: single backward (``repro.nn.functional.conv2d`` enforces this).
    recycles_workspaces = False

    # -- allocation / layout -------------------------------------------
    def contiguous(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array)

    def zeros(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def pad(self, array: np.ndarray, pad_width) -> np.ndarray:
        return np.pad(array, pad_width)

    # -- elementwise ----------------------------------------------------
    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def abs(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x)

    def sign(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x)

    def clip(self, x: np.ndarray, low: float, high: float) -> np.ndarray:
        return np.clip(x, low, high)

    def where(self, condition: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.where(condition, a, b)

    # -- reductions -----------------------------------------------------
    def sum(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def amax(self, x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    # -- linear algebra -------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GEMM over a leading batch axis: ``(G, M, K) @ (G, K, N) -> (G, M, N)``.

        NumPy's batched ``matmul`` runs each slice through the same GEMM
        kernel as a 2-D call, so the result is bitwise identical to G
        independent 2-D products — the property the batched executor's
        per-client equivalence rests on.
        """
        return np.matmul(a, b)

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(subscripts, *operands)

    # -- conv / pool machinery -----------------------------------------
    def pool_windows(
        self, images: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
    ) -> np.ndarray:
        """Read-only (N, C, OH, OW, KH, KW) sliding-window view (no padding)."""
        return _window_view(images, kernel, stride, out_h, out_w)

    def im2col(
        self, images: np.ndarray, kernel: int, stride: int, padding: int
    ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Unfold NCHW images into ``(N*OH*OW, C*KH*KW)``; returns (cols, (OH, OW))."""
        batch, channels, height, width = images.shape
        out_h = conv_output_size(height, kernel, stride, padding)
        out_w = conv_output_size(width, kernel, stride, padding)
        if padding > 0:
            images = np.pad(
                images, ((0, 0), (0, 0), (padding, padding), (padding, padding))
            )
        view = _window_view(images, kernel, stride, out_h, out_w)
        cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(
            batch * out_h * out_w, channels * kernel * kernel
        )
        return np.ascontiguousarray(cols), (out_h, out_w)

    def col2im(
        self,
        cols: np.ndarray,
        image_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Fold a column matrix back into NCHW images (adjoint of im2col)."""
        batch, channels, height, width = image_shape
        out_h = conv_output_size(height, kernel, stride, padding)
        out_w = conv_output_size(width, kernel, stride, padding)
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding),
            dtype=cols.dtype,
        )
        _scatter_cols(padded, cols, kernel, stride, out_h, out_w)
        if padding > 0:
            return padded[:, :, padding:-padding, padding:-padding]
        return padded

    def conv2d_forward(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        bias: Optional[np.ndarray],
        kernel: int,
        stride: int,
        padding: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """NCHW conv via im2col + one GEMM; returns ``(out, cols)``.

        ``cols`` is the backward cache — pass it back to
        :meth:`conv2d_backward` exactly once (backends may recycle it).
        """
        batch = x.shape[0]
        out_channels = w_mat.shape[0]
        cols, (out_h, out_w) = self.im2col(x, kernel, stride, padding)
        out_mat = self.matmul(cols, w_mat.T)
        if bias is not None:
            out_mat = out_mat + bias
        out = out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        return out, cols

    def conv2d_backward(
        self,
        grad: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
        need_x: bool,
        need_weight: bool,
        need_bias: bool,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Gradients of :meth:`conv2d_forward`: ``(grad_x, grad_w_mat, grad_bias)``."""
        out_channels = grad.shape[1]
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        grad_w = self.matmul(grad_mat.T, cols) if need_weight else None
        grad_b = grad_mat.sum(axis=0) if need_bias else None
        grad_x = None
        if need_x:
            grad_cols = self.matmul(grad_mat, w_mat)
            grad_x = self.col2im(grad_cols, x_shape, kernel, stride, padding)
        return grad_x, grad_w, grad_b

    # -- grouped (client-batched) conv machinery -----------------------
    def grouped_im2col(
        self, images: np.ndarray, groups: int, kernel: int, stride: int, padding: int
    ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Unfold a ``(G*N, C, H, W)`` batch into ``(G, N*OH*OW, C*KH*KW)``.

        The folded batch is client-major, so slice ``g`` of the result is
        exactly the 2-D column matrix :meth:`im2col` would produce for
        client ``g``'s own ``(N, C, H, W)`` batch.
        """
        batch, channels, _, _ = images.shape
        cols, (out_h, out_w) = self.im2col(images, kernel, stride, padding)
        per = batch // groups
        return (
            cols.reshape(groups, per * out_h * out_w, channels * kernel * kernel),
            (out_h, out_w),
        )

    def grouped_col2im(
        self,
        cols: np.ndarray,
        image_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Adjoint of :meth:`grouped_im2col`; returns ``(G*N, C, H, W)`` images."""
        return self.col2im(
            cols.reshape(-1, cols.shape[-1]), image_shape, kernel, stride, padding
        )

    def grouped_conv2d_forward(
        self,
        x: np.ndarray,
        w_mat3: np.ndarray,
        bias2: Optional[np.ndarray],
        kernel: int,
        stride: int,
        padding: int,
        relu: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-group conv over a client-major ``(G*N, C, H, W)`` batch.

        ``w_mat3`` is ``(G, O, C*KH*KW)`` (one flattened weight matrix per
        group) and ``bias2`` is ``(G, O)`` or ``None``.  Returns
        ``(out, cols3)`` where ``out`` is ``(G*N, O, OH, OW)`` and
        ``cols3`` is the grouped backward cache.  Slice-for-slice this runs
        the same GEMM/bias/reshape sequence as :meth:`conv2d_forward`, so
        each group's output is bitwise identical to a standalone conv.
        With ``relu=True`` the fused ``out * (out > 0)`` activation is
        applied (bitwise equal to a separate relu op).
        """
        batch = x.shape[0]
        out_channels = w_mat3.shape[1]
        cols3, (out_h, out_w) = self.grouped_im2col(x, w_mat3.shape[0], kernel, stride, padding)
        out_mat = self.batched_matmul(cols3, np.swapaxes(w_mat3, -1, -2))
        if bias2 is not None:
            out_mat = out_mat + bias2[:, None, :]
        out = out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        if relu:
            out = out * (out > 0)
        return out, cols3

    def grouped_conv2d_backward(
        self,
        grad: np.ndarray,
        out: Optional[np.ndarray],
        cols3: np.ndarray,
        w_mat3: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
        need_x: bool,
        need_weight: bool,
        need_bias: bool,
        relu: bool = False,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Gradients of :meth:`grouped_conv2d_forward`.

        Returns ``(grad_x, grad_w_mat3, grad_bias2)`` with the grouped
        shapes ``(G*N, C, H, W)``, ``(G, O, C*KH*KW)`` and ``(G, O)``.
        When ``relu=True``, ``out`` (the fused forward output) supplies the
        activation mask.  Consumes ``cols3`` exactly once.
        """
        groups = w_mat3.shape[0]
        batch, out_channels, out_h, out_w = grad.shape
        per = batch // groups
        if relu:
            grad = grad * (out > 0)
        grad_mat3 = grad.transpose(0, 2, 3, 1).reshape(
            groups, per * out_h * out_w, out_channels
        )
        grad_w = (
            self.batched_matmul(np.swapaxes(grad_mat3, -1, -2), cols3)
            if need_weight
            else None
        )
        grad_b = grad_mat3.sum(axis=1) if need_bias else None
        grad_x = None
        if need_x:
            grad_cols = self.batched_matmul(grad_mat3, w_mat3)
            grad_x = self.grouped_col2im(grad_cols, x_shape, kernel, stride, padding)
        return grad_x, grad_w, grad_b

    # -- fused forward/backward primitives -----------------------------
    def conv2d_relu_forward(
        self,
        x: np.ndarray,
        w_mat: np.ndarray,
        bias: Optional[np.ndarray],
        kernel: int,
        stride: int,
        padding: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused conv2d+bias+relu; returns ``(out, cols)``.

        The activation is computed as ``pre * (pre > 0)`` — the exact
        formula ``Tensor.relu`` applies — so fusing is bitwise neutral.
        The mask is recoverable from the output (``out > 0``), so no extra
        cache is carried to the backward.
        """
        out, cols = self.conv2d_forward(x, w_mat, bias, kernel, stride, padding)
        out = out * (out > 0)
        return out, cols

    def conv2d_relu_backward(
        self,
        grad: np.ndarray,
        out: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
        need_x: bool,
        need_weight: bool,
        need_bias: bool,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Gradients of :meth:`conv2d_relu_forward` (``out`` supplies the mask)."""
        grad = grad * (out > 0)
        return self.conv2d_backward(
            grad, cols, w_mat, x_shape, kernel, stride, padding,
            need_x, need_weight, need_bias,
        )

    def linear_relu_forward(
        self, x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        """Fused ``relu(x @ w + bias)``; supports stacked 3-D operands.

        ``x`` may be ``(N, F)`` with ``w`` ``(F, O)`` or client-stacked
        ``(K, N, F)`` with ``w`` ``(K, F, O)`` / ``bias`` broadcastable
        (e.g. ``(K, 1, O)``).  Runs matmul, broadcast add and
        ``pre * (pre > 0)`` in the exact order the unfused Tensor ops do.
        """
        pre = self.matmul(x, w)
        if bias is not None:
            pre = pre + bias
        return pre * (pre > 0)

    def linear_relu_backward(
        self,
        grad: np.ndarray,
        out: np.ndarray,
        x: np.ndarray,
        w: np.ndarray,
        need_x: bool,
        need_weight: bool,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
        """Gradients of :meth:`linear_relu_forward`.

        Returns ``(grad_x, grad_w, grad_pre)`` where ``grad_pre`` is the
        masked upstream gradient (the bias gradient before un-broadcasting;
        the autograd wrapper reduces it to the bias shape).
        """
        grad_pre = grad * (out > 0)
        grad_x = self.matmul(grad_pre, np.swapaxes(w, -1, -2)) if need_x else None
        grad_w = (
            self.matmul(np.swapaxes(x, -1, -2), grad_pre) if need_weight else None
        )
        return grad_x, grad_w, grad_pre

    # -- workspace lifecycle -------------------------------------------
    def clear_workspaces(self) -> None:
        """Drop any cached scratch buffers (no-op for stateless backends)."""

    def workspace_stats(self) -> WorkspaceStats:
        """Freelist counters: ``(hits, misses, buffers, resident_bytes)``."""
        return WorkspaceStats(0, 0, 0, 0)


class NumpyBackend(ArrayBackend):
    """The default backend: bitwise-identical to the historical inline NumPy."""

    name = "numpy"


class AcceleratedBackend(ArrayBackend):
    """NumPy backend with channels-last conv kernels and recycled workspaces.

    Convolutions unfold through a channels-last (NHWC) layout: the input is
    written once into a padded NHWC canvas and the columns are copied out
    of a window view in (KH, KW, C) order, so every copy moves runs of
    KW*C contiguous floats.  One GEMM against the weights permuted to
    (O, KH, KW, C) gives the output; the backward reuses the columns for
    the weight gradient and adds the input-gradient columns into a zeroed
    NHWC canvas in C-contiguous chunks.  A single conv is the one-group
    case of the grouped kernels, so a client's conv has the same bits
    whether it runs alone or stacked with other clients.

    Scratch arrays (canvases, column matrices, GEMM outputs, gradient
    columns) are drawn from a per-shape free-list and returned once their
    contents have been consumed, so steady-state training performs each
    large allocation once and then recycles it; :meth:`clear_workspaces`
    releases everything.  The GEMMs write into the pooled buffers via
    ``np.matmul(..., out=...)``.

    Constraint: a conv graph built under this backend supports a *single*
    backward pass (its cache — the columns plus the permuted weights — is
    recycled inside the backward), which is how every training loop in
    this codebase uses autograd.  The stateless :class:`NumpyBackend` has
    no such constraint.

    Numerically this backend matches :class:`NumpyBackend` to rounding,
    not bitwise: the forward GEMM sums over KH*KW*C in a different order.
    The measured speedup comes from the float32 dtype policy, the
    channels-last copies and the recycled workspaces.
    """

    name = "accelerated"

    recycles_workspaces = True

    #: Buffers smaller than this (elements) are not worth pooling.
    _MIN_POOLED_ELEMENTS = 4096

    def __init__(self) -> None:
        self._pool: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._hits = 0
        self._misses = 0

    # -- buffer pool ----------------------------------------------------
    def _acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        bucket = self._pool.get((tuple(shape), np.dtype(dtype).str))
        if bucket:
            self._hits += 1
            return bucket.pop()
        self._misses += 1
        return np.empty(shape, dtype=dtype)

    def _release(self, *arrays: Optional[np.ndarray]) -> None:
        for array in arrays:
            if (
                array is None
                or array.size < self._MIN_POOLED_ELEMENTS
                or array.base is not None
                or not array.flags.c_contiguous
            ):
                continue
            key = (array.shape, array.dtype.str)
            self._pool.setdefault(key, []).append(array)

    def clear_workspaces(self) -> None:
        self._pool.clear()
        self._hits = 0
        self._misses = 0

    def workspace_stats(self) -> WorkspaceStats:
        count = sum(len(bucket) for bucket in self._pool.values())
        total = sum(
            array.nbytes for bucket in self._pool.values() for array in bucket
        )
        return WorkspaceStats(self._hits, self._misses, count, total)

    # -- channels-last conv machinery ----------------------------------
    def _canvas(
        self, image_shape: Tuple[int, int, int, int], padding: int, dtype
    ) -> np.ndarray:
        """A pooled padded NHWC canvas for NCHW ``image_shape``."""
        batch, channels, height, width = image_shape
        return self._acquire(
            (batch, height + 2 * padding, width + 2 * padding, channels), dtype
        )

    def _columns(
        self, x: np.ndarray, groups: int, kernel: int, stride: int, padding: int
    ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Unfold a client-major ``(G*N, C, H, W)`` batch into
        ``(G, N*OH*OW, KH*KW*C)`` columns."""
        batch, channels, height, width = x.shape
        out_h = conv_output_size(height, kernel, stride, padding)
        out_w = conv_output_size(width, kernel, stride, padding)
        canvas = self._canvas(x.shape, padding, x.dtype)
        if padding > 0:
            canvas.fill(0.0)
        canvas[:, padding : padding + height, padding : padding + width] = x.transpose(
            0, 2, 3, 1
        )
        cols = self._acquire(
            (groups, batch // groups * out_h * out_w, kernel * kernel * channels),
            x.dtype,
        )
        windows = _window_view(canvas.transpose(0, 3, 1, 2), kernel, stride, out_h, out_w)
        np.copyto(
            cols.reshape(batch, out_h, out_w, kernel, kernel, channels),
            windows.transpose(0, 2, 3, 4, 5, 1),
        )
        self._release(canvas)
        return cols, (out_h, out_w)

    def _fold_columns(
        self,
        cols: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Adjoint of :meth:`_columns` for ``(G, KH*KW, N*OH*OW, C)`` columns.

        Each kernel offset's contiguous block is added into a zeroed NHWC
        canvas in (kh, kw) order; the canvas is then cropped back to NCHW.
        """
        batch, channels, height, width = x_shape
        groups = cols.shape[0]
        out_h = conv_output_size(height, kernel, stride, padding)
        out_w = conv_output_size(width, kernel, stride, padding)
        canvas = self._canvas(x_shape, padding, cols.dtype)
        canvas.fill(0.0)
        per_group = canvas.reshape((groups, batch // groups) + canvas.shape[1:])
        blocks = cols.reshape(
            groups, kernel, kernel, batch // groups, out_h, out_w, channels
        )
        for kh in range(kernel):
            h_end = kh + stride * out_h
            for kw in range(kernel):
                w_end = kw + stride * out_w
                per_group[:, :, kh:h_end:stride, kw:w_end:stride] += blocks[:, kh, kw]
        grad_x = np.ascontiguousarray(
            canvas[:, padding : padding + height, padding : padding + width].transpose(
                0, 3, 1, 2
            )
        )
        self._release(canvas)
        return grad_x

    def grouped_conv2d_forward(
        self,
        x: np.ndarray,
        w_mat3: np.ndarray,
        bias2: Optional[np.ndarray],
        kernel: int,
        stride: int,
        padding: int,
        relu: bool = False,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        batch = x.shape[0]
        groups, out_channels = w_mat3.shape[0], w_mat3.shape[1]
        cols3, (out_h, out_w) = self._columns(x, groups, kernel, stride, padding)
        w_perm3 = _permute_kernel(w_mat3, kernel, channels_last=True)
        out_mat = self._acquire(
            (groups, cols3.shape[1], out_channels), np.result_type(cols3, w_perm3)
        )
        np.matmul(cols3, np.swapaxes(w_perm3, -1, -2), out=out_mat)
        if bias2 is not None:
            out_mat += bias2[:, None, :]
        # Materialize a fresh contiguous NCHW output so the GEMM buffer can
        # be recycled immediately (and downstream ops see dense memory).
        out = np.ascontiguousarray(
            out_mat.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        )
        self._release(out_mat)
        if relu:
            np.multiply(out, out > 0, out=out)
        return out, (cols3, w_perm3)

    def grouped_conv2d_backward(
        self,
        grad: np.ndarray,
        out: Optional[np.ndarray],
        cache: Tuple[np.ndarray, np.ndarray],
        w_mat3: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        kernel: int,
        stride: int,
        padding: int,
        need_x: bool,
        need_weight: bool,
        need_bias: bool,
        relu: bool = False,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        cols3, w_perm3 = cache
        groups, rows, size = cols3.shape
        batch, out_channels, out_h, out_w = grad.shape

        def channel_major(array: np.ndarray) -> np.ndarray:
            """(G, O, N, OH*OW) view of a client-major NCHW array."""
            return array.reshape(
                groups, batch // groups, out_channels, out_h * out_w
            ).transpose(0, 2, 1, 3)

        # The upstream gradient as (G, O, N*OH*OW), masked by a fused relu.
        # Scratch is drawn in the forward's buffer shapes (GEMM output,
        # columns) and viewed in the layouts needed here, so the backward
        # adds no pool buckets of its own.
        grad_buffer = self._acquire((groups, rows, out_channels), grad.dtype)
        grad_mat3 = grad_buffer.reshape(groups, out_channels, rows)
        target = grad_mat3.reshape(groups, out_channels, -1, out_h * out_w)
        if relu:
            np.multiply(channel_major(grad), channel_major(out) > 0, out=target)
        else:
            np.copyto(target, channel_major(grad))
        grad_w = None
        if need_weight:
            grad_w = _permute_kernel(
                self.batched_matmul(grad_mat3, cols3), kernel, channels_last=False
            )
        grad_b = grad_mat3.sum(axis=2) if need_bias else None
        grad_x = None
        if need_x:
            # One (N*OH*OW, O) @ (O, C) GEMM per kernel offset, so that each
            # offset's block of input-gradient columns is contiguous.
            channels = size // (kernel * kernel)
            w_blocks = w_perm3.reshape(groups, out_channels, -1, channels).swapaxes(1, 2)
            cols_buffer = self._acquire(cols3.shape, np.result_type(grad_mat3, w_perm3))
            grad_cols = cols_buffer.reshape(groups, kernel * kernel, rows, channels)
            np.matmul(np.swapaxes(grad_mat3, -1, -2)[:, None], w_blocks, out=grad_cols)
            grad_x = self._fold_columns(grad_cols, x_shape, kernel, stride, padding)
            self._release(cols_buffer)
        # The cache is consumed exactly once per forward (see the class
        # docstring), so its columns can re-enter the pool here.
        self._release(grad_buffer, cols3)
        return grad_x, grad_w, grad_b

    # -- single convs: the one-group case of the grouped kernels -------
    def conv2d_forward(self, x, w_mat, bias, kernel, stride, padding):
        return self.grouped_conv2d_forward(
            x, w_mat[None], _one_group(bias), kernel, stride, padding
        )

    def conv2d_relu_forward(self, x, w_mat, bias, kernel, stride, padding):
        return self.grouped_conv2d_forward(
            x, w_mat[None], _one_group(bias), kernel, stride, padding, relu=True
        )

    def conv2d_backward(
        self, grad, cache, w_mat, x_shape, kernel, stride, padding,
        need_x, need_weight, need_bias,
    ):
        grad_x, grad_w, grad_b = self.grouped_conv2d_backward(
            grad, None, cache, w_mat[None], x_shape, kernel, stride, padding,
            need_x, need_weight, need_bias,
        )
        return grad_x, _only_group(grad_w), _only_group(grad_b)

    def conv2d_relu_backward(
        self, grad, out, cache, w_mat, x_shape, kernel, stride, padding,
        need_x, need_weight, need_bias,
    ):
        grad_x, grad_w, grad_b = self.grouped_conv2d_backward(
            grad, out, cache, w_mat[None], x_shape, kernel, stride, padding,
            need_x, need_weight, need_bias, relu=True,
        )
        return grad_x, _only_group(grad_w), _only_group(grad_b)

    # -- accelerated fused primitives ----------------------------------
    def linear_relu_forward(
        self, x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        pre = self._acquire(
            x.shape[:-1] + (w.shape[-1],), np.result_type(x, w)
        )
        np.matmul(x, w, out=pre)
        if bias is not None:
            pre += bias
        out = pre * (pre > 0)
        self._release(pre)
        return out


# ----------------------------------------------------------------------
# Registry and activation
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}

BackendLike = Union[str, ArrayBackend]


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (instantiated lazily, once)."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def _resolve(backend: BackendLike) -> ArrayBackend:
    if isinstance(backend, ArrayBackend):
        return backend
    if backend not in _REGISTRY:
        raise ValueError(
            f"unknown nn backend {backend!r}; choose from {tuple(_REGISTRY)}"
        )
    if backend not in _INSTANCES:
        _INSTANCES[backend] = _REGISTRY[backend]()
    return _INSTANCES[backend]


register_backend("numpy", NumpyBackend)
register_backend("accelerated", AcceleratedBackend)

_active_backend: ArrayBackend = _resolve("numpy")
_active_policy: DtypePolicy = _POLICIES["float64"]


def get_backend() -> ArrayBackend:
    """The backend all nn ops currently dispatch through."""
    return _active_backend


def get_dtype_policy() -> DtypePolicy:
    """The dtype policy currently governing tensor/grad/loss dtypes."""
    return _active_policy


def active_backend_name() -> str:
    return _active_backend.name


def active_compute_dtype() -> str:
    return _active_policy.name


def set_backend(
    backend: Optional[BackendLike] = None, compute_dtype: Optional[str] = None
) -> ArrayBackend:
    """Activate a backend and/or dtype policy process-wide.

    Either argument may be ``None`` to leave that axis unchanged.  Returns
    the backend now active.  Worker processes of the FL parallel executor
    re-run this with the coordinator's selection (see
    ``repro.fl.executor._worker_init``), so both executors compute under
    the same configuration.
    """
    global _active_backend, _active_policy
    if backend is not None:
        _active_backend = _resolve(backend)
    if compute_dtype is not None:
        _active_policy = get_policy(compute_dtype)
    return _active_backend


class use_backend:
    """Context manager scoping a backend/policy activation to a block.

    Restores the previous activation on exit, so tests can pin a
    configuration without leaking it::

        with use_backend("accelerated", "float32"):
            train(...)
    """

    def __init__(
        self,
        backend: Optional[BackendLike] = None,
        compute_dtype: Optional[str] = None,
    ) -> None:
        self._backend = backend
        self._compute_dtype = compute_dtype

    def __enter__(self) -> ArrayBackend:
        self._prev_backend = _active_backend
        self._prev_policy = _active_policy
        return set_backend(self._backend, self._compute_dtype)

    def __exit__(self, *exc_info: object) -> None:
        global _active_backend, _active_policy
        _active_backend = self._prev_backend
        _active_policy = self._prev_policy


# Honour the environment at import time so a whole run — including
# process-pool workers, which inherit the environment — can be switched
# without code changes (the executor additionally activates explicitly).
_env_backend = os.environ.get(BACKEND_ENV_VAR, "").strip()
_env_dtype = os.environ.get(DTYPE_ENV_VAR, "").strip()
if _env_backend or _env_dtype:
    set_backend(_env_backend or None, _env_dtype or None)
del _env_backend, _env_dtype
