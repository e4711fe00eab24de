"""Rank-4 tensor arithmetic with reverse-mode automatic differentiation.

Feature maps are [N,C,H,W] float32 numpy arrays wrapped in `Tensor` nodes.
Parameters reuse the same node type at rank 1 (biases, BN vectors) and rank 2
(excitation matrices); losses are rank-0. Only an op with an input that
requires grad records its parents and a backward closure on its output; any
other op yields a constant, so a pass over tensors that require no grad builds
no graph. The graph itself is the tape: node creation order is a topological
order, and `backward` replays it in reverse.

All math is plain numpy. Ops propagate the input dtype, which lets the
gradient checker run an entire graph in float64 while normal execution stays
in float32.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor", "Tape", "backward", "zero_grads",
    "conv2d", "max_pool2d", "upsample_bilinear", "batch_norm",
    "activation", "relu", "sigmoid",
    "global_avg_pool", "channel_pool", "mul_broadcast", "concat_channels",
    "linear", "bce_loss", "add", "scale", "sum_all",
    "grad_check",
]

_next_id = 0


def _new_id() -> int:
    global _next_id
    _next_id += 1
    return _next_id


class Tensor:
    """A node in the compute graph: numpy data plus an optional grad buffer."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32) if not isinstance(data, np.ndarray) else data
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.requires_grad = requires_grad
        self.grad = None  # allocated as zeros on first accumulation
        self.op = None  # name of the op that produced this node, None for leaves
        self._parents = ()
        self._backward = None
        self._id = _new_id()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def accum_grad(self, g) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, op={self.op})"


@dataclass
class OpRecord:
    name: str
    inputs: tuple
    output: "Tensor"


class Tape:
    """Execution trace: ordered (op, inputs, output) records.

    The autodiff graph lives on the tensors themselves; this context manager
    additionally logs every op run inside it, in execution order, so tests can
    assert structural facts (e.g. that a dilated block never pools).
    """

    _active: list = []

    def __init__(self):
        self.ops: list[OpRecord] = []

    def __enter__(self):
        Tape._active.append(self)
        return self

    def __exit__(self, *exc):
        Tape._active.remove(self)
        return False

    def names(self) -> list[str]:
        return [r.name for r in self.ops]


def _record(name: str, inputs: tuple, out: Tensor) -> None:
    out.op = name
    for tape in Tape._active:
        tape.ops.append(OpRecord(name, inputs, out))


def _make_out(data: np.ndarray, name: str, parents: tuple, grad_fn) -> Tensor:
    """The one place that decides graph membership: the output gets parents
    and `grad_fn` only if some parent requires grad. Otherwise it is a constant
    and `grad_fn` is dropped, freeing whatever only the closure held."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = grad_fn
    _record(name, parents, out)
    return out


def _check_dtypes(*ts: Tensor) -> np.dtype:
    dt = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != dt:
            raise ValueError(f"mixed dtypes in op: {dt} vs {t.data.dtype}")
    return dt


def _require_rank(t: Tensor, rank: int, what: str) -> None:
    if t.data.ndim != rank:
        raise ValueError(f"{what} must be rank {rank}, got shape {t.data.shape}")


def backward(loss: Tensor) -> None:
    """Reverse-topological accumulation of gradients from a scalar loss.

    Node ids increase monotonically at creation and inputs are created
    strictly before their outputs, so descending-id order is a valid reverse
    topological order. Repeated calls without zeroing accumulate.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    seen = {loss._id}
    nodes = [loss]
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if p._id not in seen:
                seen.add(p._id)
                nodes.append(p)
                stack.append(p)
    loss.accum_grad(np.ones_like(loss.data))
    for t in sorted(nodes, key=lambda n: n._id, reverse=True):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# convolution / pooling / resampling


def _conv_out_size(n: int, k: int, stride: int, pad: int, dilation: int) -> int:
    span = n + 2 * pad - dilation * (k - 1) - 1
    if span < 0 or span % stride != 0:
        raise ValueError(
            f"conv output size not integral: input {n}, kernel {k}, "
            f"stride {stride}, pad {pad}, dilation {dilation}"
        )
    return span // stride + 1


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0,
           dilation: int = 1) -> Tensor:
    """Cross-correlation with zero padding: [N,Cin,H,W] -> [N,Cout,H',W']."""
    _require_rank(x, 4, "conv2d input")
    _require_rank(w, 4, "conv2d kernel")
    _require_rank(b, 1, "conv2d bias")
    _check_dtypes(x, w, b)
    n, cin, h, wd = x.data.shape
    cout, wcin, kh, kw = w.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd, got {kh}x{kw}")
    if wcin != cin:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {wcin}")
    if b.data.shape[0] != cout:
        raise ValueError(f"conv2d bias length {b.data.shape[0]} != Cout {cout}")
    ho = _conv_out_size(h, kh, stride, pad, dilation)
    wo = _conv_out_size(wd, kw, stride, pad, dilation)

    # zero-padded and channels-last: a row of any kernel tap's window is then
    # one run of Wo*Cin values (at stride 1), for im2col and for its adjoint.
    xq = x.data.transpose(0, 2, 3, 1)
    if pad:
        xp = np.zeros((n, h + 2 * pad, wd + 2 * pad, cin), dtype=xq.dtype)
        xp[:, pad: pad + h, pad: pad + wd] = xq
        xq = xp

    def tap(a, i, j):
        # the [N, Ho, Wo, C] positions kernel tap (i, j) reads
        r, c = i * dilation, j * dilation
        return a[:, r: r + ho * stride: stride, c: c + wo * stride: stride]

    def im2col():
        # rows [N*Ho*Wo], columns in kernel order [Cin*kh*kw]. A 1x1 kernel's
        # is xq reshaped; for an unpadded input that view keeps the memory
        # layout, and with it the BLAS rounding, np.tensordot gave the GEMM.
        if kh == kw == 1:
            return tap(xq, 0, 0).reshape(n * ho * wo, cin)
        cols = np.empty((n, ho, wo, cin, kh, kw), dtype=xq.dtype)
        for i, j in np.ndindex(kh, kw):
            cols[..., i, j] = tap(xq, i, j)
        return cols.reshape(n * ho * wo, cin * kh * kw)

    out_data = np.dot(im2col(), w.data.transpose(1, 2, 3, 0).reshape(cin * kh * kw, cout))
    out_data = out_data.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2) + b.data[None, :, None, None]

    def grad_fn(g):
        # im2col is kh*kw times the input, so it is rebuilt here, not kept
        if w.requires_grad:
            gw = np.dot(g.transpose(1, 0, 2, 3).reshape(cout, n * ho * wo), im2col())
            w.accum_grad(gw.reshape(cout, cin, kh, kw))
        if b.requires_grad:
            b.accum_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gt = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
            gxq = np.zeros(xq.shape, dtype=xq.dtype)
            for i, j in np.ndindex(kh, kw):
                contrib = np.dot(gt, w.data[:, :, i, j].reshape(cout, cin))
                tap(gxq, i, j)[...] += contrib.reshape(n, ho, wo, cin)
            x.accum_grad(gxq[:, pad: pad + h, pad: pad + wd].transpose(0, 3, 1, 2))
    return _make_out(out_data, "conv2d", (x, w, b), grad_fn)


def max_pool2d(x: Tensor, k: int = 2, stride: int = 2) -> Tensor:
    """Per-window maximum; ties resolve to the first occurrence in row-major
    window order, and the backward pass routes the gradient there."""
    _require_rank(x, 4, "max_pool2d input")
    n, c, h, w = x.data.shape
    if k > h or k > w:
        raise ValueError(f"pool window {k} exceeds input {h}x{w}")
    if (h - k) % stride != 0 or (w - k) % stride != 0:
        raise ValueError(f"pool windows do not tile input {h}x{w} with k={k}, stride={stride}")
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    v = sliding_window_view(x.data, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = v.reshape(n, c, ho, wo, k * k)
    idx = flat.argmax(axis=-1)  # first occurrence on ties
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        ni, ci, hi, wi = np.indices((n, c, ho, wo), sparse=True)
        np.add.at(gx, (ni, ci, hi * stride + idx // k, wi * stride + idx % k), g)
        x.accum_grad(gx)
    return _make_out(out_data, "max_pool2d", (x,), grad_fn)


def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic bilinear weights with half-pixel centers (no corner
    alignment): source coordinate = (dst + 0.5) * n_in/n_out - 0.5, clamped."""
    dst = np.arange(n_out, dtype=np.float64)
    src = np.clip((dst + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    np.add.at(m, (np.arange(n_out), i0), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), i1), frac)
    return m.astype(dtype)


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize to (out_h, out_w) >= input size; equal size is identity."""
    _require_rank(x, 4, "upsample input")
    n, c, h, w = x.data.shape
    if out_h < h or out_w < w:
        raise ValueError(f"upsample target {out_h}x{out_w} smaller than input {h}x{w}")
    mh = _interp_matrix(h, out_h, x.data.dtype)
    mw = _interp_matrix(w, out_w, x.data.dtype)
    out_data = np.matmul(np.matmul(mh, x.data), mw.T)

    def grad_fn(g):
        x.accum_grad(np.matmul(np.matmul(mh.T, g), mw))
    return _make_out(out_data, "upsample_bilinear", (x,), grad_fn)


# ---------------------------------------------------------------------------
# normalization / activations


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, eps: float = 1e-5, momentum: float = 0.1,
               training: bool = True) -> Tensor:
    """Per-channel batch normalization over the N,H,W axes.

    Training mode normalizes with batch statistics and folds them into the
    running buffers as running <- (1-momentum)*running + momentum*batch
    (biased batch variance throughout); eval mode normalizes with the running
    buffers. Running buffers are plain state, not graph nodes.
    """
    if eps <= 0:
        raise ValueError("batch_norm eps must be > 0")
    _require_rank(x, 4, "batch_norm input")
    c = x.data.shape[1]
    for t, name in ((gamma, "gamma"), (beta, "beta"),
                    (running_mean, "running_mean"), (running_var, "running_var")):
        if t.data.shape != (c,):
            raise ValueError(f"batch_norm {name} shape {t.data.shape} != ({c},)")
    _check_dtypes(x, gamma, beta)

    if training:
        m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean.data[:] = (1.0 - momentum) * running_mean.data + momentum * mu
        running_var.data[:] = (1.0 - momentum) * running_var.data + momentum * var
    else:
        mu = running_mean.data.astype(x.data.dtype)
        var = running_var.data.astype(x.data.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def grad_fn(g):
        if gamma.requires_grad:
            gamma.accum_grad((g * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accum_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :, None, None]
            if training:
                sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                gx = (inv_std[None, :, None, None] / m) * (
                    m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
            else:
                gx = dxhat * inv_std[None, :, None, None]
            x.accum_grad(gx)
    return _make_out(out_data, "batch_norm", (x, gamma, beta), grad_fn)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it never overflows and
    # saturation lands exactly on 0.0 / 1.0 in the working precision
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise relu or sigmoid; relu' at exactly 0 is defined as 0."""
    if kind == "relu":
        def grad_fn(g):
            x.accum_grad(g * (x.data > 0))
        return _make_out(np.maximum(x.data, 0), "relu", (x,), grad_fn)
    if kind == "sigmoid":
        s = _stable_sigmoid(x.data).astype(x.data.dtype)

        def grad_fn(g):
            x.accum_grad(g * s * (1.0 - s))
        return _make_out(s, "sigmoid", (x,), grad_fn)
    raise ValueError(f"unknown activation kind: {kind!r}")


def relu(x: Tensor) -> Tensor:
    return activation(x, "relu")


def sigmoid(x: Tensor) -> Tensor:
    return activation(x, "sigmoid")


# ---------------------------------------------------------------------------
# pooling over channels / broadcasting / concatenation


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C,1,1] spatial mean per channel."""
    _require_rank(x, 4, "global_avg_pool input")
    h, w = x.data.shape[2], x.data.shape[3]

    def grad_fn(g):
        x.accum_grad(np.broadcast_to(g / (h * w), x.data.shape))
    return _make_out(x.data.mean(axis=(2, 3), keepdims=True), "global_avg_pool", (x,), grad_fn)


def channel_pool(x: Tensor, mode: str) -> Tensor:
    """Reduce the channel axis per spatial location: [N,C,H,W] -> [N,1,H,W]."""
    _require_rank(x, 4, "channel_pool input")
    if mode == "avg":
        c = x.data.shape[1]

        def grad_fn(g):
            x.accum_grad(np.broadcast_to(g / c, x.data.shape))
        return _make_out(x.data.mean(axis=1, keepdims=True), "channel_pool_avg", (x,),
                         grad_fn)
    if mode == "max":
        idx = x.data.argmax(axis=1, keepdims=True)  # first occurrence on ties

        def grad_fn(g):
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, idx, g, axis=1)
            x.accum_grad(gx)
        return _make_out(np.take_along_axis(x.data, idx, axis=1), "channel_pool_max", (x,),
                         grad_fn)
    raise ValueError(f"unknown channel_pool mode: {mode!r}")


def _sum_to_shape(arr: np.ndarray, shape: tuple) -> np.ndarray:
    for axis, dim in enumerate(shape):
        if dim == 1 and arr.shape[axis] != 1:
            arr = arr.sum(axis=axis, keepdims=True)
    return arr


def mul_broadcast(x: Tensor, a: Tensor) -> Tensor:
    """Elementwise x * a where a is an exact match, a channel gate [N,C,1,1],
    or a spatial gate [N,1,H,W]; backward sums over broadcast axes."""
    _require_rank(x, 4, "mul_broadcast input")
    _require_rank(a, 4, "mul_broadcast gate")
    _check_dtypes(x, a)
    n, c, h, w = x.data.shape
    an, ac, ah, aw = a.data.shape
    if an != n or not (
        (ac, ah, aw) == (c, h, w)
        or (ac, ah, aw) == (1, h, w)
        or (ac, ah, aw) == (c, 1, 1)
    ):
        raise ValueError(f"mul_broadcast shapes incompatible: {x.data.shape} * {a.data.shape}")

    def grad_fn(g):
        if x.requires_grad:
            x.accum_grad(g * a.data)
        if a.requires_grad:
            a.accum_grad(_sum_to_shape(g * x.data, a.data.shape))
    return _make_out(x.data * a.data, "mul_broadcast", (x, a), grad_fn)


def concat_channels(xs: list) -> Tensor:
    """Channel-axis concatenation in argument order."""
    if not xs:
        raise ValueError("concat_channels needs at least one tensor")
    for x in xs:
        _require_rank(x, 4, "concat_channels input")
    _check_dtypes(*xs)
    n, _, h, w = xs[0].data.shape
    for x in xs[1:]:
        if x.data.shape[0] != n or x.data.shape[2] != h or x.data.shape[3] != w:
            raise ValueError(
                f"concat_channels spatial mismatch: {xs[0].data.shape} vs {x.data.shape}")

    def grad_fn(g):
        offsets = np.cumsum([0] + [x.data.shape[1] for x in xs])
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            x.accum_grad(g[:, lo:hi])
    return _make_out(np.concatenate([x.data for x in xs], axis=1), "concat_channels",
                     tuple(xs), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer on [N,C,1,1] vectors: y = w @ x + b."""
    _require_rank(x, 4, "linear input")
    _require_rank(w, 2, "linear weight")
    _require_rank(b, 1, "linear bias")
    _check_dtypes(x, w, b)
    n, c, h, wd = x.data.shape
    if h != 1 or wd != 1:
        raise ValueError(f"linear input spatial dims must be 1x1, got {h}x{wd}")
    cout, cin = w.data.shape
    if cin != c:
        raise ValueError(f"linear channel mismatch: input has {c}, weight expects {cin}")
    if b.data.shape[0] != cout:
        raise ValueError(f"linear bias length {b.data.shape[0]} != Cout {cout}")
    x2 = x.data.reshape(n, c)
    out_data = (x2 @ w.data.T + b.data).reshape(n, cout, 1, 1)

    def grad_fn(g):
        g2 = g.reshape(n, cout)
        if w.requires_grad:
            w.accum_grad(g2.T @ x2)
        if b.requires_grad:
            b.accum_grad(g2.sum(axis=0))
        if x.requires_grad:
            x.accum_grad((g2 @ w.data).reshape(n, c, 1, 1))
    return _make_out(out_data, "linear", (x, w, b), grad_fn)


# ---------------------------------------------------------------------------
# losses / reductions


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1-1e-7].

    The clamp is a hard clip, so saturated predictions get zero gradient;
    that choice matches central differences and keeps log away from 0.
    """
    if pred.data.shape != target.data.shape:
        raise ValueError(f"bce shape mismatch: {pred.data.shape} vs {target.data.shape}")
    _check_dtypes(pred, target)
    dt = pred.data.dtype
    lo = np.asarray(1e-7, dtype=dt)
    hi = np.asarray(1.0, dtype=dt) - lo
    p = np.clip(pred.data, lo, hi)
    t = target.data
    count = p.size
    out_data = np.asarray(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean(), dtype=dt)

    def grad_fn(g):
        if pred.requires_grad:
            inside = (pred.data > lo) & (pred.data < hi)
            gp = g * (p - t) / (p * (1.0 - p) * count)
            pred.accum_grad(np.where(inside, gp, 0.0).astype(dt))
        if target.requires_grad:
            target.accum_grad((g * (np.log(1.0 - p) - np.log(p)) / count).astype(dt))
    return _make_out(out_data, "bce_loss", (pred, target), grad_fn)


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual connections)."""
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch: {x.data.shape} vs {y.data.shape}")
    _check_dtypes(x, y)

    def grad_fn(g):
        x.accum_grad(g)
        y.accum_grad(g)
    return _make_out(x.data + y.data, "add", (x, y), grad_fn)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python constant (loss weighting)."""
    def grad_fn(g):
        x.accum_grad(g * x.data.dtype.type(s))
    return _make_out(x.data * x.data.dtype.type(s), "scale", (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to a rank-0 scalar."""
    def grad_fn(g):
        x.accum_grad(np.broadcast_to(g, x.data.shape))
    return _make_out(np.asarray(x.data.sum(), dtype=x.data.dtype), "sum_all", (x,), grad_fn)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build_fn, leaves, eps: float = 1e-3, promote=()) -> float:
    """Max relative error between analytic gradients and central differences.

    `build_fn(*leaves)` must construct a scalar loss from the given tensors.
    The leaves (plus any `promote` extras that participate in the graph, e.g.
    fixed biases) are temporarily switched to float64 in place so the whole
    graph runs in double precision; every element of every leaf is then
    perturbed by +/-eps and the loss re-evaluated with the leaves' grad flags
    cleared, so those evaluations build no graph. Original data, grad, and
    requires_grad are restored on exit. The error metric is
    |analytic - numeric| / max(1, |numeric|), maximized over all elements.
    """
    touched = list(leaves) + list(promote)
    saved = [(t, t.data, t.requires_grad, t.grad) for t in touched]
    try:
        for t in touched:
            t.data = t.data.astype(np.float64)
        for t in leaves:
            t.requires_grad = True
            t.grad = None
        loss = build_fn(*leaves)
        backward(loss)
        analytic = [t.grad_or_zeros().copy() for t in leaves]
        for t in leaves:  # the perturbed evaluations below differentiate nothing
            t.requires_grad = False

        worst = 0.0
        for leaf, ana in zip(leaves, analytic):
            flat = leaf.data.reshape(-1)
            ana_flat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = float(build_fn(*leaves).data)
                flat[i] = orig - eps
                down = float(build_fn(*leaves).data)
                flat[i] = orig
                numeric = (up - down) / (2.0 * eps)
                err = abs(ana_flat[i] - numeric) / max(1.0, abs(numeric))
                if err > worst:
                    worst = err
        return worst
    finally:
        for t, data, rg, grad in saved:
            t.data = data
            t.requires_grad = rg
            t.grad = grad
