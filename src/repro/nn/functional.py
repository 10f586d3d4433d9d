"""Stateless differentiable operations: convolution, pooling, losses.

Convolution uses im2col (stride-tricks window extraction + one matmul),
which is the standard way to keep numpy convs fast.  The input gradient
of a dense stride-1 conv that does not widen its channels is a *gather*:
one im2col of the fully padded output gradient times the flipped,
transposed weight (:func:`_conv_dx_gathers`).  Every other conv scatters
its window gradients back with a col2im that loops over kernel taps only
(kh*kw iterations), never over pixels.  All tensors follow the NCHW
layout.

The conv and pooling kernels below are the only copy of that math: the
eager ops call them with no buffers, and the compiled executor
(:mod:`repro.nn.graph`) passes its pooled scratch and output buffers in.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor, _unbroadcast

IntPair = Union[int, Tuple[int, int]]


def _pair(v: IntPair) -> Tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: int, pw: int) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding windows from NCHW ``x``.

    Returns ``cols`` of shape (N, C, kh, kw, OH, OW) (a view when possible)
    and the output spatial size.
    """
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    N, C, H, W = x.shape
    oh = (H - kh) // sh + 1
    ow = (W - kw) // sw + 1
    s0, s1, s2, s3 = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(N, C, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )
    return cols, (oh, ow)


def _col2im(dcols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
            sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Scatter-add window gradients back to input layout (inverse of im2col)."""
    N, C, H, W = x_shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    oh = (Hp - kh) // sh + 1
    ow = (Wp - kw) // sw + 1
    dx = np.zeros((N, C, Hp, Wp), dtype=dcols.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            dx[:, :, i:i_max:sh, j:j_max:sw] += dcols[:, :, i, j]
    if ph or pw:
        dx = dx[:, :, ph:Hp - ph if ph else Hp, pw:Wp - pw if pw else Wp]
    return dx


def _col2im_xpad(W: int, pw: int, sw: int) -> int:
    """Row length the conv backward must X-pad its gradient to so that
    :func:`_col2im_flat` rows tile the phase image seamlessly.  For
    stride 1 this is the padded input width itself."""
    return -(-(W + 2 * pw) // sw)


def _col2im_flat(dcolsp: np.ndarray, x_shape: Tuple[int, ...], kh: int,
                 kw: int, sh: int, sw: int, ph: int, pw: int,
                 oh: int, ow: int,
                 out: Optional[np.ndarray] = None,
                 dx_out: Optional[np.ndarray] = None) -> np.ndarray:
    """Phase-major flat col2im from X-padded tap-major window gradients.

    ``dcolsp`` has shape (N, C, kh, kw, OH * XP) with ``XP =
    _col2im_xpad(W, pw, sw)``, where columns beyond OW of each window row
    are exact zeros (they come from zero-padded logits in the producing
    matmul).  Tap (i, j) only ever touches input pixels whose row is
    ``i (mod sh)`` and column ``j (mod sw)`` — one of ``sh * sw``
    disjoint *phase* sub-images, each of pitch XP.  Because every tap
    row then has its phase image's own row pitch, each tap lands with
    ONE contiguous shifted-slice add over the flattened phase image
    instead of the classic per-tap strided scatter — same additions,
    same (i, j) order per destination element, plus interleaved exact
    ``+0.0`` terms, so values match :func:`_col2im` bit-for-bit (modulo
    the sign of negative zeros).  For stride 1 there is a single phase
    and the flat buffer *is* the padded image.

    ``out`` is an optional (N, C, sh * sw, Hq * XP) scratch with
    ``Hq = ceil(Hp / sh)``; ``dx_out`` an optional (N, C, Hp, Wp)
    interleave target (unused when stride is 1).  Fresh arrays are
    allocated when omitted.  Returns the (N, C, H, W) crop (a view).
    """
    N, C, H, W = x_shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    Hq, Wq = -(-Hp // sh), -(-Wp // sw)
    phases = sh * sw
    flat = Hq * Wq
    full = oh * Wq
    if out is None:
        out = np.empty((N, C, phases, flat), dtype=dcolsp.dtype)
    # the first tap landing on a phase image ASSIGNS (plus zero-fills the
    # complement of its span) instead of accumulating into a memset
    # buffer: one full write+read per element saved, values unchanged up
    # to the sign of zeros the docstring already excepts
    started = [False] * phases
    for i in range(kh):
        for j in range(kw):
            p = (i % sh) * sw + (j % sw)
            off = (i // sh) * Wq + (j // sw)
            span = min(full, flat - off)
            dst = out[:, :, p, off:off + span]
            if started[p]:
                np.add(dst, dcolsp[:, :, i, j, :span], out=dst)
            else:
                out[:, :, p, :off].fill(0.0)
                np.copyto(dst, dcolsp[:, :, i, j, :span])
                out[:, :, p, off + span:].fill(0.0)
                started[p] = True
    for p in range(phases):
        if not started[p]:          # 1x1 kernels leave phases untouched
            out[:, :, p].fill(0.0)
    if phases == 1:
        dx = out.reshape(N, C, Hp, Wp)
    else:
        if dx_out is None:
            dx_out = np.empty((N, C, Hp, Wp), dtype=dcolsp.dtype)
        for pi in range(sh):
            rows = -(-(Hp - pi) // sh)
            for pj in range(sw):
                cols = -(-(Wp - pj) // sw)
                img = out[:, :, pi * sw + pj].reshape(N, C, Hq, Wq)
                dx_out[:, :, pi::sh, pj::sw] = img[:, :, :rows, :cols]
        dx = dx_out
    if ph or pw:
        dx = dx[:, :, ph:ph + H, pw:pw + W]
    return dx


def _pad2d(x: np.ndarray, ph: int, pw: int, fill: float = 0.0,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """NCHW ``x`` with constant ``fill`` borders of (ph, pw); ``x`` itself
    when there is no padding.  ``out`` is a buffer whose borders already
    hold ``fill``: only its interior is written."""
    if not (ph or pw):
        return x
    N, C, H, W = x.shape
    if out is None:
        out = np.full((N, C, H + 2 * ph, W + 2 * pw), fill, dtype=x.dtype)
    out[:, :, ph:ph + H, pw:pw + W] = x
    return out


def _conv_dx_gathers(C: int, F: int, groups: int, stride: Tuple[int, int],
                     padding: Tuple[int, int],
                     kernel: Tuple[int, int]) -> bool:
    """Whether a conv's input gradient runs as a gather instead of the
    col2im scatter.

    For stride 1, ``dX`` is the valid correlation of ``dY`` padded by
    ``k - 1 - p`` on each side with the flipped kernel, transposed to
    (C, F): one im2col and one GEMM, no per-tap accumulation.  That
    needs a non-negative pad (``p <= k - 1``), and it only pays when the
    gradient is no wider than the input (``F <= C``): a widening stem
    conv would im2col more channels than the scatter's matmul emits.
    """
    return (groups == 1 and stride == (1, 1) and F <= C
            and padding[0] <= kernel[0] - 1 and padding[1] <= kernel[1] - 1)


def _conv_dw_bm(P: int, K: int) -> bool:
    """Whether a dense conv's weight gradient runs as the copy-free
    batched matmul (wide spatial extent ``P``) rather than tensordot's
    single large GEMM (contraction ``K`` dwarfing the batch axis)."""
    return P * 4 >= K


def _conv_fwd_wmat(w: np.ndarray, groups: int) -> np.ndarray:
    """(F, C/G, kh, kw) weight -> the forward contraction's matrix:
    (F, K) dense, (G, F/G, K) grouped."""
    F, Cg, kh, kw = w.shape
    if groups == 1:
        return np.ascontiguousarray(w.reshape(F, Cg * kh * kw))
    return w.reshape(groups, F // groups, Cg * kh * kw)


def _conv_dx_wmat(w: np.ndarray, groups: int, stride: Tuple[int, int],
                  padding: Tuple[int, int]) -> np.ndarray:
    """(F, C/G, kh, kw) weight -> the input gradient's matrix: for a
    gather (:func:`_conv_dx_gathers`) the (C, F*kh*kw) weight transposed
    to (C, F) and flipped in both spatial axes; for a dense scatter the
    (K, F) transpose; for a grouped scatter the (G, F/G, K) forward
    layout."""
    F, Cg, kh, kw = w.shape
    if groups != 1:
        return _conv_fwd_wmat(w, groups)
    if _conv_dx_gathers(Cg, F, 1, stride, padding, (kh, kw)):
        return np.ascontiguousarray(
            w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(Cg, F * kh * kw)
    return np.ascontiguousarray(w.reshape(F, Cg * kh * kw).T)


def _conv_forward(x: np.ndarray, wmat: np.ndarray, kernel: Tuple[int, int],
                  stride: Tuple[int, int], padding: Tuple[int, int],
                  groups: int, bias: Optional[np.ndarray] = None,
                  xpad: Optional[np.ndarray] = None,
                  cols: Optional[np.ndarray] = None,
                  out: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Conv forward: returns the (N, F, OH, OW) output and the window
    scratch the weight gradient reads back.

    Dense and depthwise convs keep the windows tap-major — the im2col
    view (N, C, kh, kw, OH, OW) copies straight into (N, C*kh*kw, P)
    scratch — so dense is one (F, K) @ (N, K, P) matmul writing NCHW
    output with no transposes, and depthwise a batched matvec.  General
    grouped convs lay the windows out (N, G, OH, OW, C/G*kh*kw) for an
    einsum (a batched matvec when each group has one output).

    ``xpad`` (borders pre-zeroed), ``cols`` and ``out`` are optional
    buffers of those shapes; each one omitted is allocated.
    """
    kh, kw = kernel
    win, (oh, ow) = _im2col(_pad2d(x, padding[0], padding[1], out=xpad),
                            kh, kw, stride[0], stride[1], 0, 0)
    N, C = x.shape[:2]
    P = oh * ow
    F = wmat.shape[0] if groups == 1 else groups * wmat.shape[1]
    if out is None:
        out = np.empty((N, F, oh, ow), dtype=np.result_type(x, wmat))
    if groups == 1 or C == F == groups:
        if cols is None:
            cols = np.empty((N, C * kh * kw, P), dtype=x.dtype)
        np.copyto(cols.reshape(N, C, kh, kw, oh, ow), win)
        if groups == 1:
            np.matmul(wmat, cols.reshape(N, C * kh * kw, P),
                      out=out.reshape(N, F, P))
        else:
            K = kh * kw
            np.matmul(wmat.reshape(1, C, 1, K), cols.reshape(N, C, K, P),
                      out=out.reshape(N, C, 1, P))
    else:
        G, Fg, K = wmat.shape
        Cg = C // G
        if cols is None:
            cols = np.empty((N, G, oh, ow, K), dtype=x.dtype)
        np.copyto(cols.reshape(N, G, oh, ow, Cg, kh, kw),
                  win.reshape(N, G, Cg, kh, kw, oh, ow)
                  .transpose(0, 1, 5, 6, 2, 3, 4))
        if Fg == 1:
            np.matmul(cols.reshape(N, G, P, K), wmat.reshape(1, G, K, 1),
                      out=out.reshape(N, G, P, 1))
        else:
            np.einsum("ngxyk,gfk->ngfxy", cols.reshape(N, G, oh, ow, K),
                      wmat, out=out.reshape(N, G, Fg, oh, ow),
                      optimize=True)
    y = out.reshape(N, F, oh, ow)
    if bias is not None:
        y += bias.reshape(1, F, 1, 1)
    return y, cols


def _conv_weight_grad(g: np.ndarray, cols: np.ndarray,
                      w_shape: Tuple[int, ...], groups: int,
                      mm: Optional[np.ndarray] = None) -> np.ndarray:
    """Weight gradient from the output gradient ``g`` and the forward's
    window scratch ``cols`` (any shape of :func:`_conv_forward`'s).

    Dense convs contract with the batched matmul or tensordot as
    :func:`_conv_dw_bm` decides; ``mm`` is an optional (N, F, K) buffer
    for the batched product.  Depthwise convs (and grouped ones with
    one output per group) run batched matvecs, other grouped convs an
    einsum.
    """
    F, Cg, kh, kw = w_shape
    N, _, oh, ow = g.shape
    P = oh * ow
    K = Cg * kh * kw
    if groups == 1:
        g2 = np.ascontiguousarray(g).reshape(N, F, P)
        cols = cols.reshape(N, K, P)
        if _conv_dw_bm(P, K):
            dw = np.matmul(g2, cols.transpose(0, 2, 1), out=mm).sum(axis=0)
        else:
            dw = np.tensordot(g2, cols, axes=([0, 2], [0, 2]))
    elif Cg == 1 and F == groups:
        g2 = np.ascontiguousarray(g).reshape(N, F, P, 1)
        dw = np.matmul(cols.reshape(N, F, K, P), g2).sum(axis=0)
    else:
        G, Fg = groups, F // groups
        gg = g.reshape(N, G, Fg, oh, ow)
        cols = cols.reshape(N, G, oh, ow, K)
        if Fg == 1:
            dw = np.matmul(gg.reshape(N, G, 1, P),
                           cols.reshape(N, G, P, K)).sum(axis=0)
        else:
            dw = np.einsum("ngfxy,ngxyk->gfk", gg, cols, optimize=True)
    return dw.reshape(w_shape)


def _conv_gather_dx(g: np.ndarray, wgather: np.ndarray,
                    x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                    padding: Tuple[int, int],
                    gpad: Optional[np.ndarray] = None,
                    cols: Optional[np.ndarray] = None,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gather input gradient of a dense stride-1 conv: the im2col of
    ``g`` padded by ``k - 1 - p`` times the flipped, transposed weight
    (:func:`_conv_dx_wmat`).  ``gpad`` (borders pre-zeroed), the
    (N, F*kh*kw, H*W) window scratch ``cols`` and the (N, C, H*W)
    result ``out`` are allocated when omitted."""
    N, C, H, W = x_shape
    kh, kw = kernel
    F = g.shape[1]
    K = F * kh * kw
    win, _ = _im2col(_pad2d(g, kh - 1 - padding[0], kw - 1 - padding[1],
                            out=gpad), kh, kw, 1, 1, 0, 0)
    if cols is None:
        cols = np.empty((N, K, H * W), dtype=g.dtype)
    np.copyto(cols.reshape(N, F, kh, kw, H, W), win)
    if out is None:
        out = np.empty((N, C, H * W), dtype=np.result_type(wgather, g))
    np.matmul(wgather, cols.reshape(N, K, H * W), out=out.reshape(N, C, H * W))
    return out.reshape(N, C, H, W)


def _conv_scatter_dx(g: np.ndarray, wdx: np.ndarray,
                     x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                     stride: Tuple[int, int], padding: Tuple[int, int],
                     groups: int, gpad: Optional[np.ndarray] = None,
                     dcols: Optional[np.ndarray] = None,
                     acc: Optional[np.ndarray] = None,
                     dxi: Optional[np.ndarray] = None) -> np.ndarray:
    """Scatter input gradient, any stride and groups.

    ``g`` is X-padded to the stride-phase image's pitch (``gpad``,
    (N, F, OH, XP), its columns beyond OW pre-zeroed), so the producing
    contraction emits tap-major window rows (``dcols``: (N, K, OH*XP)
    dense, (N, G, K, OH*XP) grouped) and col2im collapses to one
    contiguous shifted-slice add per tap (:func:`_col2im_flat`, whose
    ``out`` / ``dx_out`` are ``acc`` / ``dxi``).  Depthwise-style groups
    (one output each) need no contraction: a broadcast multiply emits
    the same products.  Buffers omitted are allocated.
    """
    N, C, H, W = x_shape
    kh, kw = kernel
    _, F, oh, ow = g.shape
    Xp = _col2im_xpad(W, padding[1], stride[1])
    QX = oh * Xp
    if gpad is None:
        gpad = np.zeros((N, F, oh, Xp), dtype=g.dtype)
    np.copyto(gpad[..., :ow], g)
    if groups == 1:
        dcols = np.matmul(wdx, gpad.reshape(N, F, QX), out=dcols)
    elif F == groups:
        K = wdx.shape[-1]
        dcols = np.multiply(gpad.reshape(N, F, 1, QX),
                            wdx.reshape(1, F, K, 1), out=dcols)
    else:
        dcols = np.einsum("ngfq,gfk->ngkq",
                          gpad.reshape(N, groups, F // groups, QX), wdx,
                          out=dcols, optimize=True)
    return _col2im_flat(dcols.reshape(N, C, kh, kw, QX), x_shape, kh, kw,
                        stride[0], stride[1], padding[0], padding[1], oh, ow,
                        out=acc, dx_out=dxi)


def _max_pool_forward(x: np.ndarray, kernel: Tuple[int, int],
                      stride: Tuple[int, int], padding: Tuple[int, int],
                      xpad: Optional[np.ndarray] = None,
                      out: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling: returns the output and the per-window argmax the
    backward scatters through.  ``xpad`` is an optional padded buffer
    with -inf borders, ``out`` an optional output buffer."""
    kh, kw = kernel
    win, (oh, ow) = _im2col(
        _pad2d(x, padding[0], padding[1], fill=-np.inf, out=xpad),
        kh, kw, stride[0], stride[1], 0, 0)
    N, C = x.shape[:2]
    flat = win.transpose(0, 1, 4, 5, 2, 3).reshape(N, C, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    if out is None:
        return y, arg
    np.copyto(out, y)
    return out, arg


def _max_pool_backward(g: np.ndarray, arg: np.ndarray,
                       x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                       stride: Tuple[int, int],
                       padding: Tuple[int, int]) -> np.ndarray:
    """Max-pool input gradient: ``g`` routed to each window's argmax."""
    N, C, oh, ow = g.shape
    kh, kw = kernel
    dflat = np.zeros((N, C, oh, ow, kh * kw), dtype=g.dtype)
    np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
    dcols = dflat.reshape(N, C, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
    return _col2im(dcols, x_shape, kh, kw, *stride, *padding)


def _avg_pool_forward(x: np.ndarray, kernel: Tuple[int, int],
                      stride: Tuple[int, int], padding: Tuple[int, int],
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Average pooling (zero padding counts toward the mean)."""
    win, _ = _im2col(x, kernel[0], kernel[1], *stride, *padding)
    return win.mean(axis=(2, 3), out=out)


def _avg_pool_backward(g: np.ndarray, x_shape: Tuple[int, ...],
                       kernel: Tuple[int, int], stride: Tuple[int, int],
                       padding: Tuple[int, int]) -> np.ndarray:
    """Average-pool input gradient: ``g / (kh*kw)`` spread over each
    window."""
    N, C, oh, ow = g.shape
    kh, kw = kernel
    dcols = np.broadcast_to(
        g[:, :, None, None, :, :] / (kh * kw), (N, C, kh, kw, oh, ow)
    ).astype(g.dtype)
    return _col2im(dcols, x_shape, kh, kw, *stride, *padding)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0, groups: int = 1) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x: (N, C_in, H, W)
    weight: (C_out, C_in // groups, kh, kw)
    bias: (C_out,) or None
    groups: 1 for dense conv, C_in for depthwise.
    """
    stride, padding = _pair(stride), _pair(padding)
    N, C, H, W = x.shape
    F, Cg, kh, kw = weight.shape
    if C % groups or F % groups:
        raise ValueError(f"channels {C}/{F} not divisible by groups={groups}")
    if Cg != C // groups:
        raise ValueError(f"weight expects {Cg} in-channels/group, input has {C // groups}")

    out_data, cols = _conv_forward(
        x.data, _conv_fwd_wmat(weight.data, groups), (kh, kw), stride,
        padding, groups, None if bias is None else bias.data)
    parents = (x, weight) + ((bias,) if bias is not None else ())
    req = any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=req, _parents=parents if req else ())
    if req:
        def _bw(g, x=x, weight=weight, bias=bias, cols=cols):
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)))
            if weight.requires_grad:
                weight._accumulate(
                    _conv_weight_grad(g, cols, weight.shape, groups),
                    owned=True)
            if x.requires_grad:
                wdx = _conv_dx_wmat(weight.data, groups, stride, padding)
                if _conv_dx_gathers(C, F, groups, stride, padding, (kh, kw)):
                    dx = _conv_gather_dx(g, wdx, x.shape, (kh, kw), padding)
                else:
                    dx = _conv_scatter_dx(g, wdx, x.shape, (kh, kw), stride,
                                          padding, groups)
                x._accumulate(dx, owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("conv2d", parents, out,
                                   {"stride": stride, "padding": padding,
                                    "groups": groups,
                                    "has_bias": bias is not None})
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Max pooling over NCHW windows."""
    kernel = _pair(kernel)
    stride = _pair(stride if stride is not None else kernel)
    padding = _pair(padding)
    out_data, arg = _max_pool_forward(x.data, kernel, stride, padding)
    out = Tensor(out_data, requires_grad=x.requires_grad,
                 _parents=(x,) if x.requires_grad else ())
    if x.requires_grad:
        def _bw(g, x=x, arg=arg):
            x._accumulate(_max_pool_backward(g, arg, x.shape, kernel, stride,
                                             padding), owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("max_pool2d", (x,), out,
                                   {"kernel": kernel, "stride": stride,
                                    "padding": padding})
    return out


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Average pooling over NCHW windows."""
    kernel = _pair(kernel)
    stride = _pair(stride if stride is not None else kernel)
    padding = _pair(padding)
    out = Tensor(_avg_pool_forward(x.data, kernel, stride, padding),
                 requires_grad=x.requires_grad,
                 _parents=(x,) if x.requires_grad else ())
    if x.requires_grad:
        def _bw(g, x=x):
            x._accumulate(_avg_pool_backward(g, x.shape, kernel, stride,
                                             padding), owned=True)
        out._backward = _bw
    if _tensor._GRAPH_TRACER is not None:
        _tensor._GRAPH_TRACER.emit("avg_pool2d", (x,), out,
                                   {"kernel": kernel, "stride": stride,
                                    "padding": padding})
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    m = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - m
    lse = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - lse


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy against integer labels.

    ``labels`` is an int array of shape (N,).
    """
    labels = np.asarray(labels)
    logp = log_softmax(logits, axis=-1)
    nll = -logp.gather_rows(labels)
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    if reduction == "none":
        return nll
    raise ValueError(f"unknown reduction: {reduction}")


def nll_loss(logp: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given log-probabilities."""
    nll = -logp.gather_rows(np.asarray(labels))
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    return nll


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray],
             reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    d = pred - target
    sq = d * d
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def kl_div(logp: Tensor, q: Union[Tensor, np.ndarray],
           reduction: str = "batchmean") -> Tensor:
    """KL(q || p) given log-probabilities ``logp`` and target probs ``q``.

    Matches the convention of distillation losses: target distribution ``q``
    is treated as constant.
    """
    q_data = q.data if isinstance(q, Tensor) else np.asarray(q)
    q_const = Tensor(q_data)
    eps = 1e-12
    terms = q_const * (Tensor(np.log(q_data + eps)) - logp)
    if reduction == "batchmean":
        return terms.sum() * (1.0 / logp.shape[0])
    if reduction == "sum":
        return terms.sum()
    return terms


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if _tensor._GRAPH_TRACER is not None:
        # refuse BEFORE drawing: a traced mask would be frozen into the
        # program, and the un-advanced rng keeps the eager fallback
        # bitwise identical to a run that never attempted to compile
        _tensor._GRAPH_TRACER.refuse(
            "dropout redraws its mask per step; cannot compile")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)
