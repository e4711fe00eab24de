"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: explicit python
loops, BFS flood fill, sort-based threshold sweeps, two-pass statistics. The
only thing taken from the package is raw parameter arrays (`.data`), never
its math. When a test compares the fast path against these, a shared bug
would have to be written twice independently to slip through.
"""

from collections import deque

import numpy as np


# ---------------------------------------------------------------------------
# tensor ops


def conv2d_loops(x, w, b, stride=1, pad=0, dilation=1):
    """b None means no bias: every sum starts at 0."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * pad - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * pad - dilation * (kw - 1) - 1) // stride + 1
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad: pad + h, pad: pad + wd] = x
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0 if b is None else float(b[co])
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation
                                ix = ox * stride + kx * dilation
                                acc += float(xp[ni, ci, iy, ix]) * float(w[co, ci, ky, kx])
                    out[ni, co, oy, ox] = acc
    return out


def linear_loops(x, w, b):
    """[N,C,1,1] -> [N,Cout,1,1]; b None means no bias."""
    n, c = x.shape[0], x.shape[1]
    cout = w.shape[0]
    out = np.zeros((n, cout, 1, 1), dtype=np.float64)
    for ni in range(n):
        for o in range(cout):
            acc = 0.0 if b is None else float(b[o])
            for ci in range(c):
                acc += float(w[o, ci]) * float(x[ni, ci, 0, 0])
            out[ni, o, 0, 0] = acc
    return out


def conv2d_mac_count(cin, cout, k, h, w, stride=1, pad=None, dilation=1):
    """Count multiply-accumulates by actually iterating the conv loop nest."""
    if pad is None:
        pad = dilation * (k // 2)
    ho = (h + 2 * pad - dilation * (k - 1) - 1) // stride + 1
    wo = (w + 2 * pad - dilation * (k - 1) - 1) // stride + 1
    macs = 0
    for _co in range(cout):
        for _oy in range(ho):
            for _ox in range(wo):
                macs += cin * k * k
    return macs


def maxpool_loops(x, k=2, stride=2):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = -np.inf
                    for ky in range(k):
                        for kx in range(k):
                            v = x[ni, ci, oy * stride + ky, ox * stride + kx]
                            if v > best:
                                best = v
                    out[ni, ci, oy, ox] = best
    return out


def maxpool_grad_loops(x, g):
    """Input gradient of a 2x2 stride-2 max-pool: each output's gradient goes
    to the first window element, in row-major order, that holds the max."""
    n, c, ho, wo = g.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    window = [(2 * oy + ky, 2 * ox + kx) for ky in range(2) for kx in range(2)]
                    best = max(x[ni, ci, y, xx] for y, xx in window)
                    for y, xx in window:
                        if x[ni, ci, y, xx] == best:
                            out[ni, ci, y, xx] = g[ni, ci, oy, ox]
                            break
    return out


def bilinear_loops(x, out_h, out_w):
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, oy, ox] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                 + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0]
                                 + fy * fx * x[:, :, y1, x1])
    return out


def batchnorm_train_loops(x, gamma, beta, eps=1e-5):
    """Two-pass per-channel statistics, normalized channel by channel."""
    n, c, h, w = x.shape
    out = np.empty_like(x, dtype=np.float64)
    size = n * h * w
    for ci in range(c):
        plane = x[:, ci].astype(np.float64)
        mu = float(plane.sum()) / size
        var = float(((plane - mu) ** 2).sum()) / size
        out[:, ci] = gamma[ci] * (plane - mu) / np.sqrt(var + eps) + beta[ci]
    return out


# Bit-level references: the plain ndarray expressions (.mean, .sum, np.clip,
# np.add.at, [None, :, None, None] broadcasting) whose exact bits the package's
# faster spellings must keep.


def batchnorm_bits_reference(x, gamma, beta, running_mean, running_var, training, g):
    """batch_norm's forward, running-buffer update and backward for output
    gradient g: (out, running_mean, running_var, dx, dgamma, dbeta)."""
    rm, rv = running_mean.copy(), running_var.copy()
    if training:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.mean(axis=(0, 2, 3))
        xc = x - mu[None, :, None, None]
        var = (xc * xc).mean(axis=(0, 2, 3))
        rm[:] = 0.9 * rm + 0.1 * mu
        rv[:] = 0.9 * rv + 0.1 * var
    else:
        xc = x - rm.astype(x.dtype)[None, :, None, None]
        var = rv.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    dxhat = g * gamma[None, :, None, None]
    if training:
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    else:
        dx = dxhat * inv_std[None, :, None, None]
    return out, rm, rv, dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def interp_matrix_bits_reference(n_in, n_out, dtype):
    dst = np.arange(n_out, dtype=np.float64)
    src = np.clip((dst + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    np.add.at(m, (np.arange(n_out), i0), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), i1), frac)
    return m.astype(dtype)


def grad_check_loops(build_fn, leaves, eps=1e-3, promote=()):
    """The whole-graph perturbation loop: `tensor.grad_check` without replay,
    every perturbed evaluation running every op. Calls the package's
    `backward` for the analytic side, as `grad_check` does."""
    from nuseg.tensor import backward

    touched = list(leaves) + list(promote)
    saved = [(t, t.data, t.requires_grad, t.grad) for t in touched]
    try:
        for t in touched:
            t.data = t.data.astype(np.float64)
        for t in leaves:
            t.requires_grad = True
            t.grad = None
        backward(build_fn(*leaves))
        analytic = [t.grad_or_zeros().copy() for t in leaves]
        for t in leaves:
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


def normal_whole_array(prng, shape, std=1.0):
    """`Prng.normal` over whole-tensor temporaries: all m = ceil(n/2) u1
    draws, then all m u2 draws, Box-Muller, and the cos half followed by the
    sin half cut to n values."""
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    a = prng.next_u64_array(m) >> np.uint64(40)
    b = prng.next_u64_array(m) >> np.uint64(40)
    u1 = (a.astype(np.float64) + 1.0) * 2.0**-24
    u2 = b.astype(np.float64) * 2.0**-24
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return (std * z[:n]).astype(np.float32).reshape(shape)


def sigmoid_f64(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def bce_f64(p, t, clamp=1e-7):
    p = np.clip(np.asarray(p, dtype=np.float64), clamp, 1.0 - clamp)
    t = np.asarray(t, dtype=np.float64)
    return float(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean())


# ---------------------------------------------------------------------------
# block-level forwards (straight-line, training-mode statistics)


def conv_bn_relu_loops(x, unit):
    """Forward one ConvBnRelu from its raw arrays."""
    y = conv2d_loops(x, unit.w.data.astype(np.float64), None,
                     pad=unit.dilation, dilation=unit.dilation)
    y = batchnorm_train_loops(y, unit.bn.gamma.data, unit.bn.beta.data)
    return np.maximum(y, 0.0)


def rsu_forward_loops(params, x):
    """Straight-line RSU forward matching the block wiring, both modes."""
    spec = params.spec
    x = np.asarray(x, dtype=np.float64)
    hin = conv_bn_relu_loops(x, params.conv_in)
    feats = [conv_bn_relu_loops(hin, params.encs[0])]
    for enc in params.encs[1:]:
        nxt = maxpool_loops(feats[-1]) if spec.mode == "pooling" else feats[-1]
        feats.append(conv_bn_relu_loops(nxt, enc))
    bot = conv_bn_relu_loops(feats[-1], params.bottom)

    d = conv_bn_relu_loops(np.concatenate([bot, feats[-1]], axis=1), params.decs[0])
    for dec, skip in zip(params.decs[1:], reversed(feats[:-1])):
        if spec.mode == "pooling":
            d = bilinear_loops(d, skip.shape[2], skip.shape[3])
        d = conv_bn_relu_loops(np.concatenate([d, skip], axis=1), dec)
    return d + hin


def ica_forward_loops(f_h_raw, f_l, params, gate_kind="sigmoid"):
    """Straight-line attention forward; returns (f_ca, f_ica, fused)."""
    f_l = np.asarray(f_l, dtype=np.float64)
    n, c, h, w = f_l.shape
    f_h = bilinear_loops(np.asarray(f_h_raw, dtype=np.float64), h, w)

    # channel gate: GAP -> w1 -> BN -> relu -> w2 -> BN -> sigmoid
    z = np.empty((n, c), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            z[ni, ci] = float(f_h[ni, ci].sum()) / (h * w)
    sq = params.w1.data.shape[0]
    t1 = np.empty((n, sq), dtype=np.float64)
    for ni in range(n):
        for o in range(sq):
            t1[ni, o] = sum(
                float(params.w1.data[o, ci]) * z[ni, ci] for ci in range(c))
    t1 = batchnorm_train_loops(t1[:, :, None, None], params.bn1.gamma.data,
                               params.bn1.beta.data)[:, :, 0, 0]
    t1 = np.maximum(t1, 0.0)
    t2 = np.empty((n, c), dtype=np.float64)
    for ni in range(n):
        for o in range(c):
            t2[ni, o] = sum(
                float(params.w2.data[o, s]) * t1[ni, s] for s in range(sq))
    t2 = batchnorm_train_loops(t2[:, :, None, None], params.bn2.gamma.data,
                               params.bn2.beta.data)[:, :, 0, 0]
    gate_c = sigmoid_f64(t2)

    f_ca = np.empty_like(f_l)
    for ni in range(n):
        for ci in range(c):
            f_ca[ni, ci] = f_l[ni, ci] * gate_c[ni, ci]

    # spatial gate: 1x1 conv -> BN -> relu -> (avg; max over channels) -> 3x3
    red = conv2d_loops(f_ca, params.c1_w.data.astype(np.float64),
                       np.zeros(sq, dtype=np.float64))
    red = np.maximum(batchnorm_train_loops(red, params.c1_bn.gamma.data,
                                           params.c1_bn.beta.data), 0.0)
    avg = np.empty((n, 1, h, w), dtype=np.float64)
    mx = np.empty((n, 1, h, w), dtype=np.float64)
    for ni in range(n):
        for yy in range(h):
            for xx in range(w):
                col = [float(red[ni, ci, yy, xx]) for ci in range(sq)]
                avg[ni, 0, yy, xx] = sum(col) / sq
                mx[ni, 0, yy, xx] = max(col)
    g = conv2d_loops(np.concatenate([avg, mx], axis=1),
                     params.c3_w.data.astype(np.float64), params.c3_b.data, pad=1)
    gate_s = sigmoid_f64(g) if gate_kind == "sigmoid" else np.maximum(g, 0.0)

    f_ica = f_h * gate_s  # [N,1,H,W] broadcasts over channels
    return f_ca, f_ica, np.concatenate([f_ca, f_ica], axis=1)


# ---------------------------------------------------------------------------
# metrics


def confusion_loops(pred, gt):
    tp = fp = fn = tn = 0
    for p, g in zip(np.asarray(pred).reshape(-1), np.asarray(gt).reshape(-1)):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif g:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def iou_dataset_loops(preds, gts):
    tp = t = p = 0
    for pred, gt in zip(preds, gts):
        ctp, cfp, cfn, _ = confusion_loops(pred, gt)
        tp += ctp
        t += ctp + cfn
        p += ctp + cfp
    union = t + p - tp
    return 1.0 if union == 0 else tp / union


def niou_loops(preds, gts):
    vals = []
    for pred, gt in zip(preds, gts):
        tp, fp, fn, _ = confusion_loops(pred, gt)
        union = tp + fp + fn
        vals.append(1.0 if union == 0 else tp / union)
    return sum(vals) / len(vals)


def roc_loops(scores, gts, n_thresholds, fpr_mode="standard"):
    """The threshold sweep with one full-dataset mask per threshold.

    Returns (thresholds, fpr, tpr, auc): thresholds descending, fpr in the
    given mode's semantics, auc the trapezoid over the standard-mode points
    sorted by fpr. A NaN score is >= no threshold.
    """
    flat_scores = np.concatenate([np.asarray(s, dtype=np.float64).reshape(-1) for s in scores])
    flat_gt = np.concatenate([np.asarray(g).reshape(-1).astype(bool) for g in gts])
    positives = int(np.count_nonzero(flat_gt))
    negatives = flat_gt.size - positives
    thresholds = np.unique(np.concatenate([np.linspace(0.0, 1.0, n_thresholds),
                                           [0.0, 1.0]]))[::-1]
    tpr = np.empty(thresholds.size)
    fpr_std = np.empty(thresholds.size)
    fpr_lit = np.empty(thresholds.size)
    for i, thr in enumerate(thresholds):
        pred = flat_scores >= thr
        tp = int(np.count_nonzero(pred & flat_gt))
        fp = int(np.count_nonzero(pred & ~flat_gt))
        tpr[i] = tp / positives
        fpr_std[i] = fp / negatives if negatives else 0.0
        predicted = tp + fp
        fpr_lit[i] = fp / predicted if predicted else 0.0
    order = np.lexsort((tpr, fpr_std))
    xs, ys = fpr_std[order], tpr[order]
    auc = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    return thresholds, (fpr_std if fpr_mode == "standard" else fpr_lit), tpr, auc


def roc_point_sorted(scores, gts, thr):
    """(tp, fp, positives, negatives) at one threshold via sorted arrays.

    A NaN score sorts last and so counts as >= every threshold here: this is
    no reference for NaN scores (`roc_loops` is).
    """
    flat = np.concatenate([np.asarray(s, dtype=np.float64).reshape(-1) for s in scores])
    lab = np.concatenate([np.asarray(g).reshape(-1).astype(bool) for g in gts])
    pos = np.sort(flat[lab])
    neg = np.sort(flat[~lab])
    tp = pos.size - int(np.searchsorted(pos, thr, side="left"))
    fp = neg.size - int(np.searchsorted(neg, thr, side="left"))
    return tp, fp, pos.size, neg.size


def flood_fill_components(mask):
    """BFS 8-connected labeling; objects ordered by first pixel in scan order."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        mask = mask.reshape(mask.shape[-2], mask.shape[-1])
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    objects = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            comp = set()
            queue = deque([(r, c)])
            seen[r, c] = True
            while queue:
                cr, cc = queue.popleft()
                comp.add((cr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cchere = cr + dr, cc + dc
                        if (0 <= rr < h and 0 <= cchere < w
                                and mask[rr, cchere] and not seen[rr, cchere]):
                            seen[rr, cchere] = True
                            queue.append((rr, cchere))
            objects.append(comp)
    return len(objects), objects
