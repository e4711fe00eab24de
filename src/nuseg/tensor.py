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

Memory: a backward closure keeps only what backward reads and cannot cheaply
recompute. `batch_norm` keeps no normalized copy of its input, and `conv2d`
keeps no padded copy or window: their closures rebuild these from `x.data`.
So an op's input data must not change between its forward and its backward.
A pass that builds no graph holds a map only while a name refers to it, and
the forward walks in `rsu` and `model` drop each map after its last reader.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor", "Tape", "backward", "zero_grads",
    "conv2d", "max_pool2d", "upsample_bilinear", "batch_norm",
    "activation", "relu", "sigmoid",
    "global_avg_pool", "channel_pool", "mul_broadcast", "concat_channels",
    "linear", "bce_loss", "add", "scale", "sum_all",
    "grad_check",
]

_next_id = 0

# Byte budget of one conv window chunk: half of a 2 MiB per-core L2, so the
# GEMM reads its copied window from cache, not from DRAM.
_WINDOW_BYTES = 1 << 20


def _new_id() -> int:
    global _next_id
    _next_id += 1
    return _next_id


class Tensor:
    """A node in the compute graph: numpy data plus an optional grad buffer."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            # a NumPy scalar, e.g. a rank-0 op result, keeps its dtype: float64 stays
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.generic) else np.float32)
        self.data = data
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


class _Replay:
    """`grad_check`'s change propagation (Acar, Self-Adjusting Computation,
    2005). The analytic evaluation records every op call; in a perturbed
    evaluation, the i-th op call returns the i-th record's output when it is
    the same function on the same arguments (tensors by identity) and the
    perturbed leaf is not among them. Any other call runs, and its new output
    makes every consumer of it run too. The records keep their arguments
    alive, so no identity is recycled."""

    _active = None  # the replay `grad_check` is running, or None

    def __init__(self):
        self.records = []  # (fn, args, kwargs, ids of the tensor args, out)
        self.leaf = None  # the perturbed leaf; None while recording
        self.pos = 0

    def call(self, fn, args, kwargs):
        if self.leaf is None:
            out = fn(*args, **kwargs)
            # lists copied, so a caller that refills one cannot fake a match
            args = tuple(list(a) if isinstance(a, list) else a for a in args)
            kwargs = {k: list(v) if isinstance(v, list) else v for k, v in kwargs.items()}
            ids = tuple(id(t) for a in (*args, *kwargs.values())
                        for t in (a if isinstance(a, list) else (a,)) if isinstance(t, Tensor))
            self.records.append((fn, args, kwargs, ids, out))
            return out
        i, self.pos = self.pos, self.pos + 1
        if i < len(self.records):
            rfn, rargs, rkwargs, ids, out = self.records[i]
            if rfn is fn and args == rargs and kwargs == rkwargs and id(self.leaf) not in ids:
                return out
        return fn(*args, **kwargs)

    def detach(self) -> None:
        """Cut every recorded output out of the analytic graph, so a replayed
        one makes no consumer build a graph node."""
        for *_, out in self.records:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
            out.grad = None

    def evaluate(self, build_fn, leaves) -> float:
        self.pos = 0
        return float(build_fn(*leaves).data)


def _replayable(fn):
    """Route a primitive op through the active `_Replay`, if any."""
    @functools.wraps(fn)
    def op(*args, **kwargs):
        if _Replay._active is None:
            return fn(*args, **kwargs)
        return _Replay._active.call(fn, args, kwargs)
    return op


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
    topological order. An interior node's grad is released once its closure
    has run, so only leaves keep a grad. Parents and closures stay, so a
    repeated call over the same graph accumulates into the leaves again.
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
            t.grad = None


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


def _windows(flat: np.ndarray, start: int, kh: int, kw: int, dilation: int, row: int,
             span: int) -> np.ndarray:
    """[N, C, L] -> [N, C*kh*kw, span]: for dense position q, kernel tap (i, j)
    reads flat[..., start + q + (i*row + j)*dilation], so every tap is a
    contiguous slice and the window a strided view over the C-contiguous
    `flat`; its reshape is the one copy (none for a 1x1 kernel). L must be at
    least start + span + ((kh-1)*row + kw-1)*dilation."""
    n, c, _ = flat.shape
    sn, sc, s = flat.strides
    win = np.ndarray((n, c, kh, kw, span), flat.dtype, flat, start * s,
                     (sn, sc, dilation * row * s, dilation * s, s))
    return win.reshape(n, c * kh * kw, span)


def _window_chunks(flat: np.ndarray, start: int, kh: int, kw: int, dilation: int, row: int,
                   span: int):
    """Yield (lo, hi, window columns lo:hi) of the `_windows` of `flat`, in
    chunks whose copies stay under _WINDOW_BYTES; a window that fits is one
    chunk."""
    n, c, _ = flat.shape
    cols = max(1, _WINDOW_BYTES // (n * c * kh * kw * flat.itemsize))
    for lo in range(0, span, cols):
        hi = min(lo + cols, span)
        yield lo, hi, _windows(flat, start + lo, kh, kw, dilation, row, hi - lo)


def _window_gemm(lhs: np.ndarray, flat: np.ndarray, start: int, kh: int, kw: int,
                 dilation: int, row: int, span: int) -> np.ndarray:
    """lhs [M, C*kh*kw] @ the window of `flat` -> [N, M, span], chunk by chunk."""
    out = np.empty((flat.shape[0], lhs.shape[0], span), dtype=flat.dtype)
    for lo, hi, win in _window_chunks(flat, start, kh, kw, dilation, row, span):
        np.matmul(lhs, win, out=out[..., lo:hi])
    return out


@_replayable
def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0,
           dilation: int = 1) -> Tensor:
    """Cross-correlation with zero padding: [N,Cin,H,W] -> [N,Cout,H',W'].
    With b None there is no bias add, and the op's inputs are (x, w)."""
    _require_rank(x, 4, "conv2d input")
    _require_rank(w, 4, "conv2d kernel")
    parents = (x, w) if b is None else (x, w, b)
    _check_dtypes(*parents)
    n, cin, h, wd = x.data.shape
    cout, wcin, kh, kw = w.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dims must be odd, got {kh}x{kw}")
    if wcin != cin:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {wcin}")
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"conv2d bias shape {b.data.shape} != ({cout},)")
    _conv_out_size(h, kh, stride, pad, dilation)
    _conv_out_size(wd, kw, stride, pad, dilation)

    # One code path for every kernel size, stride, pad and dilation. Each image
    # is zero-padded to hp x wp and flattened per channel. The dense (stride-1)
    # output is computed at hd rows of wp positions: the last wp - wdense of
    # each row wrap into the next padded row and are cropped, and stride > 1
    # subsamples the dense result. The dilation*(kw-1) zeros past the image
    # keep the last row's wrapped taps inside the buffer.
    hp, wp = h + 2 * pad, wd + 2 * pad
    hd, wdense = hp - dilation * (kh - 1), wp - dilation * (kw - 1)
    span = hd * wp
    maxoff = ((kh - 1) * wp + kw - 1) * dilation

    def padded():
        # rebuilt for dW, as is its kh*kw times larger window: the graph keeps neither
        flat = np.zeros((n, cin, hp * wp + dilation * (kw - 1)), dtype=x.data.dtype)
        flat[..., : hp * wp].reshape(n, cin, hp, wp)[..., pad: pad + h, pad: pad + wd] = x.data
        return flat

    wmat = w.data.reshape(cout, cin * kh * kw)
    dense = _window_gemm(wmat, padded(), 0, kh, kw, dilation, wp, span)
    # a C-contiguous [N, Cout, H', W'] result, so the ops after it run unstrided
    out_data = dense.reshape(n, cout, hd, wp)[..., ::stride, :wdense:stride]
    if b is None:
        out_data = np.ascontiguousarray(out_data)
    else:
        out_data = out_data + b.data[None, :, None, None]

    def grad_fn(g):
        # g scattered onto the dense positions, behind a maxoff zero margin:
        # dX is then the same tap GEMM with the kernel flipped and transposed
        gpad = np.zeros((n, cout, maxoff + hp * wp), dtype=g.dtype)
        gdense = gpad[..., maxoff: maxoff + span]
        gdense.reshape(n, cout, hd, wp)[..., ::stride, :wdense:stride] = g
        if w.requires_grad:
            for lo, hi, win in _window_chunks(padded(), 0, kh, kw, dilation, wp, span):
                gw = np.matmul(gdense[..., lo:hi], win.transpose(0, 2, 1))
                w.accum_grad(gw.sum(axis=0).reshape(cout, cin, kh, kw))
        if b is not None and b.requires_grad:
            b.accum_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * kh * kw)
            gx = _window_gemm(wflip, gpad, pad * wp, kh, kw, dilation, wp, h * wp)
            x.accum_grad(gx.reshape(n, cin, h, wp)[..., pad: pad + wd])
    return _make_out(out_data, "conv2d", parents, grad_fn)


@_replayable
def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max-pool at stride 2 over the four taps x[..., i::2, j::2]; ties
    resolve to the first tap in row-major order, which alone gets the grad."""
    _require_rank(x, 4, "max_pool2d input")
    h, w = x.data.shape[2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ValueError(f"2x2 pool windows do not tile input {h}x{w}")
    taps = [x.data[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]  # row-major
    out_data = np.maximum(np.maximum(taps[0], taps[1]), np.maximum(taps[2], taps[3]))

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        free = np.ones(out_data.shape, dtype=bool)  # windows not yet routed
        for k, tap in enumerate(taps):
            hit = free & (tap == out_data)
            np.copyto(gx[..., k // 2::2, k % 2::2], g, where=hit)
            free &= ~hit
        x.accum_grad(gx)
    return _make_out(out_data, "max_pool2d", (x,), grad_fn)


@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic bilinear weights with half-pixel centers (no corner
    alignment): source coordinate = (dst + 0.5) * n_in/n_out - 0.5, clamped.
    Cached, so the matrix is shared and read-only."""
    dst = np.arange(n_out, dtype=np.float64)
    src = np.minimum(np.maximum((dst + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    m[rows, i0] = 1.0 - frac
    m[rows, i1] += frac  # i1 == i0 only where src is clamped, and there frac is 0
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


@_replayable
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


@_replayable
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, training: bool = True) -> Tensor:
    """Per-channel batch normalization over the N,H,W axes, with eps 1e-5.

    Training mode normalizes with batch statistics and folds them into the
    running buffers as running <- 0.9*running + 0.1*batch (biased batch
    variance throughout); eval mode normalizes with the running buffers.
    Running buffers are plain state, not graph nodes.
    """
    _require_rank(x, 4, "batch_norm input")
    n, c, h, wd = x.data.shape
    for t, name in ((gamma, "gamma"), (beta, "beta"),
                    (running_mean, "running_mean"), (running_var, "running_var")):
        if t.data.shape != (c,):
            raise ValueError(f"batch_norm {name} shape {t.data.shape} != ({c},)")
    _check_dtypes(x, gamma, beta)

    # np.add.reduce(...) / m is ndarray.mean's value without its Python
    # wrapper; m stays a Python int so float32 is not promoted
    if training:
        m = n * h * wd
        mu = np.add.reduce(x.data, axis=(0, 2, 3)) / m
        shift = mu.reshape(1, c, 1, 1)
        xc = x.data - shift
        var = np.add.reduce(xc * xc, axis=(0, 2, 3)) / m  # np.var's value, without its own x - mu
        running_mean.data[:] = 0.9 * running_mean.data + 0.1 * mu
        running_var.data[:] = 0.9 * running_var.data + 0.1 * var
    else:
        # a copy, for the closure: a later training-mode call moves the buffer
        shift = running_mean.data.astype(x.data.dtype).reshape(1, c, 1, 1)
        xc = x.data - shift
        var = running_var.data.astype(x.data.dtype)
    inv_std = (1.0 / np.sqrt(var + 1e-5)).reshape(1, c, 1, 1)
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    # gamma * (xc * inv_std) + beta, in xc's buffer: the same values as out of
    # place, and the output is the one x-sized array the call leaves
    out_data = xc
    out_data *= inv_std
    out_data *= gamma4
    out_data += beta.data.reshape(1, c, 1, 1)

    def grad_fn(g):
        # xhat recomputed from x.data, as forward made it: x must be unchanged
        xhat = None
        if gamma.requires_grad or (training and x.requires_grad):
            xhat = (x.data - shift) * inv_std
        if gamma.requires_grad:
            gamma.accum_grad(np.add.reduce(g * xhat, axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accum_grad(np.add.reduce(g, axis=(0, 2, 3)))
        if x.requires_grad:
            dxhat = g * gamma4
            if training:
                sum_dxhat = np.add.reduce(dxhat, axis=(0, 2, 3), keepdims=True)
                sum_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=(0, 2, 3), keepdims=True)
                gx = (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
            else:
                gx = dxhat * inv_std
            x.accum_grad(gx)
    return _make_out(out_data, "batch_norm", (x, gamma, beta), grad_fn)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it never overflows and
    # saturation lands exactly on 0.0 / 1.0 in the working precision
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@_replayable
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


@_replayable
def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C,1,1] spatial mean per channel."""
    _require_rank(x, 4, "global_avg_pool input")
    h, w = x.data.shape[2], x.data.shape[3]

    def grad_fn(g):
        x.accum_grad(np.broadcast_to(g / (h * w), x.data.shape))
    return _make_out(x.data.mean(axis=(2, 3), keepdims=True), "global_avg_pool", (x,), grad_fn)


@_replayable
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


@_replayable
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


@_replayable
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

    parents = tuple(xs)  # the closure reads this, not the caller's list, which may change

    def grad_fn(g):
        offsets = np.cumsum([0] + [x.data.shape[1] for x in parents])
        for x, lo, hi in zip(parents, offsets[:-1], offsets[1:]):
            x.accum_grad(g[:, lo:hi])
    return _make_out(np.concatenate([x.data for x in parents], axis=1), "concat_channels",
                     parents, grad_fn)


@_replayable
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fully connected layer on [N,C,1,1] vectors: y = w @ x + b.
    With b None there is no bias add, and the op's inputs are (x, w)."""
    _require_rank(x, 4, "linear input")
    _require_rank(w, 2, "linear weight")
    parents = (x, w) if b is None else (x, w, b)
    _check_dtypes(*parents)
    n, c, h, wd = x.data.shape
    if h != 1 or wd != 1:
        raise ValueError(f"linear input spatial dims must be 1x1, got {h}x{wd}")
    cout, cin = w.data.shape
    if cin != c:
        raise ValueError(f"linear channel mismatch: input has {c}, weight expects {cin}")
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"linear bias shape {b.data.shape} != ({cout},)")
    x2 = x.data.reshape(n, c)
    y2 = x2 @ w.data.T
    if b is not None:
        y2 = y2 + b.data
    out_data = y2.reshape(n, cout, 1, 1)

    def grad_fn(g):
        g2 = g.reshape(n, cout)
        if w.requires_grad:
            w.accum_grad(g2.T @ x2)
        if b is not None and b.requires_grad:
            b.accum_grad(g2.sum(axis=0))
        if x.requires_grad:
            x.accum_grad((g2 @ w.data).reshape(n, c, 1, 1))
    return _make_out(out_data, "linear", parents, grad_fn)


# ---------------------------------------------------------------------------
# losses / reductions


@_replayable
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


@_replayable
def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual connections)."""
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch: {x.data.shape} vs {y.data.shape}")
    _check_dtypes(x, y)

    def grad_fn(g):
        x.accum_grad(g)
        y.accum_grad(g)
    return _make_out(x.data + y.data, "add", (x, y), grad_fn)


@_replayable
def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python constant (loss weighting)."""
    def grad_fn(g):
        x.accum_grad(g * x.data.dtype.type(s))
    return _make_out(x.data * x.data.dtype.type(s), "scale", (x,), grad_fn)


@_replayable
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

    A perturbed evaluation reuses the analytic evaluation's output of every
    op call that the perturbed leaf cannot reach (see `_Replay`), so its
    result equals a full re-evaluation's bit for bit provided that ops read
    only the tensors passed to them, that `build_fn` mutates no data its ops
    read, and that no tensor it keeps across evaluations shares memory with
    a leaf. A replayed training-mode `batch_norm` skips its running-buffer
    update; no training-mode output reads those buffers.
    """
    touched = list(leaves) + list(promote)
    saved = [(t, t.data, t.requires_grad, t.grad) for t in touched]
    outer, replay = _Replay._active, _Replay()
    try:
        for t in touched:
            t.data = t.data.astype(np.float64)
        for t in leaves:
            t.requires_grad = True
            t.grad = None
        _Replay._active = replay
        backward(build_fn(*leaves))
        analytic = [t.grad_or_zeros().copy() for t in leaves]
        replay.detach()  # the perturbed evaluations below differentiate nothing
        for t in leaves:
            t.requires_grad = False

        worst = 0.0
        for leaf, ana in zip(leaves, analytic):
            replay.leaf = leaf
            flat = leaf.data.reshape(-1)
            ana_flat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = replay.evaluate(build_fn, leaves)
                flat[i] = orig - eps
                down = replay.evaluate(build_fn, leaves)
                flat[i] = orig
                numeric = (up - down) / (2.0 * eps)
                err = abs(ana_flat[i] - numeric) / max(1.0, abs(numeric))
                if err > worst:
                    worst = err
        return worst
    finally:
        _Replay._active = outer
        for t, data, rg, grad in saved:
            t.data = data
            t.requires_grad = rg
            t.grad = grad
