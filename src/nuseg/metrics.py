"""Binary segmentation metrics: dataset IoU, per-sample nIoU, ROC, objects.

All functions take plain numpy arrays (scores in [0,1], masks in {0,1}) and
are pure; sample order never changes any value. Dataset IoU pools pixel
counts over all samples, nIoU averages per-sample ratios, and the ROC slides
a pixel threshold over score maps. Connected components use 8-connectivity,
so diagonally touching blobs count as one object.
"""

from dataclasses import dataclass

import numpy as np

from .io import _write_lines

__all__ = [
    "ConfusionCounts", "RocCurve", "MetricsReport",
    "binarize", "confusion", "iou_dataset", "per_sample_iou", "niou",
    "roc", "connected_components", "compute_report",
    "write_report_csv", "write_roc_csv", "write_roc_svg",
]

FPR_MODES = ("standard", "paper_literal")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class RocCurve:
    thresholds: np.ndarray       # descending
    fpr: np.ndarray              # per threshold, in fpr_mode semantics
    tpr: np.ndarray              # per threshold
    auc: float                   # trapezoid over standard-mode points
    fpr_mode: str


@dataclass
class MetricsReport:
    iou: float
    niou: float
    per_sample_iou: list
    n_samples: int
    objects_per_sample: list
    roc: RocCurve = None


def binarize(scores: np.ndarray, thr: float) -> np.ndarray:
    """Threshold a score map: pixel >= thr -> 1, else 0 (boundary included)."""
    return (np.asarray(scores) >= thr).astype(np.uint8)


def confusion(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    tp = int(np.count_nonzero(pred & gt))
    fp = int(np.count_nonzero(pred & ~gt))
    fn = int(np.count_nonzero(~pred & gt))
    tn = int(np.count_nonzero(~pred & ~gt))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _check_pairs(preds, gts) -> None:
    if len(preds) == 0 or len(gts) == 0:
        raise ValueError("metric over an empty sample list is undefined")
    if len(preds) != len(gts):
        raise ValueError(f"got {len(preds)} predictions but {len(gts)} ground truths")
    for i, (p, g) in enumerate(zip(preds, gts)):
        if np.asarray(p).shape != np.asarray(g).shape:
            raise ValueError(f"sample {i}: shape mismatch "
                             f"{np.asarray(p).shape} vs {np.asarray(g).shape}")


def _iou(tp: int, fp: int, fn: int) -> float:
    """tp / (tp + fp + fn) of one sample's or pooled counts; 0/0 scores 1.0."""
    union = tp + fp + fn
    return 1.0 if union == 0 else tp / union


def _pooled_iou(counts: list) -> float:
    return _iou(sum(c.tp for c in counts), sum(c.fp for c in counts),
                sum(c.fn for c in counts))


def iou_dataset(preds, gts) -> float:
    """Pooled intersection over union: sum TP / (sum T + sum P - sum TP).

    An all-empty dataset (no foreground anywhere, nothing predicted) scores
    1.0 by the 0/0-as-perfect convention.
    """
    _check_pairs(preds, gts)
    return _pooled_iou([confusion(p, g) for p, g in zip(preds, gts)])


def per_sample_iou(pred, gt) -> float:
    c = confusion(pred, gt)
    return _iou(c.tp, c.fp, c.fn)


def niou(preds, gts) -> float:
    """Mean of per-sample IoUs; empty-vs-empty samples score 1.0."""
    _check_pairs(preds, gts)
    return float(np.mean([per_sample_iou(p, g) for p, g in zip(preds, gts)]))


def _check_fpr_mode(fpr_mode: str) -> None:
    if fpr_mode not in FPR_MODES:
        raise ValueError(f"fpr_mode must be one of {FPR_MODES}, got {fpr_mode!r}")


def roc(scores, gts, n_thresholds: int, fpr_mode: str = "standard") -> RocCurve:
    """Sweep thresholds (n evenly spaced in [0,1], plus 0 and 1, descending).

    TPR = TP/(TP+FN) pooled over all samples. FPR depends on the mode:
    standard = FP/(FP+TN); paper_literal = FP/(predicted positives). AUC is
    always the trapezoid over the standard-mode points sorted by fpr. A
    denominator of zero yields rate 0. No positive ground-truth pixel in the
    whole dataset is a hard error (TPR undefined everywhere).
    """
    _check_fpr_mode(fpr_mode)
    if n_thresholds < 1:
        raise ValueError(f"n_thresholds must be >= 1, got {n_thresholds}")
    _check_pairs(scores, gts)
    flat_scores = np.concatenate([np.asarray(s, dtype=np.float64).reshape(-1) for s in scores])
    flat_gt = np.concatenate([np.asarray(g).reshape(-1).astype(bool) for g in gts])
    pos, neg = np.sort(flat_scores[flat_gt]), np.sort(flat_scores[~flat_gt])
    if pos.size == 0:
        raise ValueError("no positive ground-truth pixels anywhere: TPR undefined")

    thresholds = np.unique(np.concatenate([np.linspace(0.0, 1.0, n_thresholds),
                                           [0.0, 1.0]]))[::-1]
    # NaN sorts last and is >= no threshold, so each count stops at the first NaN
    tp = np.searchsorted(pos, np.nan) - np.searchsorted(pos, thresholds)
    fp = np.searchsorted(neg, np.nan) - np.searchsorted(neg, thresholds)
    tpr = tp / pos.size
    fpr_std = fp / neg.size if neg.size else np.zeros(thresholds.size)
    fpr = fpr_std
    if fpr_mode == "paper_literal":
        fpr = np.divide(fp, tp + fp, out=np.zeros(thresholds.size), where=tp + fp > 0)
    # both rates rise as the threshold falls, so the points are already in fpr order
    auc = float(np.sum(0.5 * (tpr[1:] + tpr[:-1]) * np.diff(fpr_std)))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc, fpr_mode=fpr_mode)


def connected_components(mask) -> tuple:
    """8-connected labeling of a binary mask.

    Returns (M, objects) where objects is a list of M sets of (row, col)
    pixel coordinates, ordered by first-encountered pixel in scan order.

    Min-label propagation: each foreground pixel starts as its own flat index
    and takes the 3x3 minimum, then its label's label, until nothing changes.
    Labels only fall and stay in their object, so each ends as its first pixel.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        mask = mask.reshape(mask.shape[-2], mask.shape[-1])
    fg = np.pad(mask.astype(bool), 1)
    inner = fg[1:-1, 1:-1]
    background = fg.size  # above every flat index
    grid = np.where(fg, np.arange(fg.size).reshape(fg.shape), background)
    flat = grid.reshape(-1)
    pixels = np.flatnonzero(fg)  # scan order
    labels = flat[pixels]
    while True:
        vert = np.minimum(np.minimum(grid[:-2], grid[1:-1]), grid[2:])
        window = np.minimum(np.minimum(vert[:, :-2], vert[:, 1:-1]), vert[:, 2:])
        grid[1:-1, 1:-1] = np.where(inner, window, background)
        jumped = flat[flat[pixels]]
        if np.array_equal(jumped, labels):
            break
        flat[pixels] = labels = jumped

    order = np.argsort(labels, kind="stable")
    rows, cols = (a[order].tolist() for a in np.nonzero(inner))
    ends = np.cumsum(np.unique(labels, return_counts=True)[1]).tolist()
    objects = [set(zip(rows[a:b], cols[a:b])) for a, b in zip([0] + ends[:-1], ends)]
    return len(objects), objects


def _check_thr(thr: float, name: str = "thr") -> None:
    if not 0.0 <= thr <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must be in [0,1], got {thr}")


def _check_report_args(thr: float, n_thresholds: int, fpr_mode: str) -> None:
    _check_thr(thr)
    if n_thresholds < 0:
        raise ValueError(f"n_thresholds must be >= 0, got {n_thresholds}")
    _check_fpr_mode(fpr_mode)


def compute_report(scores, gts, thr: float = 0.5, n_thresholds: int = 0,
                   fpr_mode: str = "standard") -> MetricsReport:
    """Evaluate score maps against masks at a fixed threshold, optionally
    attaching a ROC curve when n_thresholds > 0."""
    _check_report_args(thr, n_thresholds, fpr_mode)
    _check_pairs(scores, gts)
    counts = [confusion(binarize(s, thr), g) for s, g in zip(scores, gts)]
    per_sample = [_iou(c.tp, c.fp, c.fn) for c in counts]
    objects = [connected_components(np.asarray(g))[0] for g in gts]
    curve = roc(scores, gts, n_thresholds, fpr_mode) if n_thresholds > 0 else None
    return MetricsReport(iou=_pooled_iou(counts),
                         niou=float(np.mean(per_sample)),
                         per_sample_iou=per_sample,
                         n_samples=len(counts),
                         objects_per_sample=objects,
                         roc=curve)


def write_report_csv(report: MetricsReport, path) -> None:
    lines = ["metric,value",
             f"iou,{report.iou!r}",
             f"niou,{report.niou!r}",
             f"n_samples,{report.n_samples}",
             f"objects_total,{sum(report.objects_per_sample)}"]
    if report.roc is not None:
        lines.append(f"auc,{report.roc.auc!r}")
    _write_lines(path, lines)


def write_roc_csv(curve: RocCurve, path) -> None:
    lines = ["thr,fpr,tpr"]
    for thr, f, t in zip(curve.thresholds, curve.fpr, curve.tpr):
        lines.append(f"{float(thr)!r},{float(f)!r},{float(t)!r}")
    _write_lines(path, lines)


def write_roc_svg(curve: RocCurve, path) -> None:
    """Minimal standalone plot: unit box, diagonal, and the ROC polyline."""
    size, margin = 400, 40
    span = size - 2 * margin

    def sx(v: float) -> float:
        return margin + v * span

    def sy(v: float) -> float:
        return size - margin - v * span

    order = np.lexsort((curve.tpr, curve.fpr))
    pts = " ".join(f"{sx(curve.fpr[i]):.2f},{sy(curve.tpr[i]):.2f}" for i in order)
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="white" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        'stroke="lightgray" stroke-dasharray="4"/>',
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="2"/>',
        f'<text x="{size // 2}" y="{size - 8}" text-anchor="middle">fpr '
        f'({curve.fpr_mode})</text>',
        f'<text x="12" y="{size // 2}" text-anchor="middle" '
        f'transform="rotate(-90 12 {size // 2})">tpr</text>',
        f'<text x="{size // 2}" y="{margin - 8}" text-anchor="middle">'
        f'auc={curve.auc:.4f}</text>',
        "</svg>",
    ]
    _write_lines(path, svg)
