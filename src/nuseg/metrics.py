"""Binary segmentation metrics: dataset IoU, per-sample nIoU, ROC, objects.

All functions take plain numpy arrays (scores in [0,1], masks in {0,1}) and
are pure; sample order never changes any value. Dataset IoU pools pixel
counts over all samples, nIoU averages per-sample ratios, and the ROC slides
a pixel threshold over score maps. Connected components use 8-connectivity,
so diagonally touching blobs count as one object.
"""

from dataclasses import dataclass

import numpy as np

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

    @property
    def points(self) -> list:
        return list(zip(self.fpr.tolist(), self.tpr.tolist()))


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


def iou_dataset(preds, gts) -> float:
    """Pooled intersection over union: sum TP / (sum T + sum P - sum TP).

    An all-empty dataset (no foreground anywhere, nothing predicted) scores
    1.0 by the 0/0-as-perfect convention.
    """
    _check_pairs(preds, gts)
    tp = t = p = 0
    for pred, gt in zip(preds, gts):
        c = confusion(pred, gt)
        tp += c.tp
        t += c.tp + c.fn
        p += c.tp + c.fp
    union = t + p - tp
    return 1.0 if union == 0 else tp / union


def per_sample_iou(pred, gt, empty_value: float = 1.0) -> float:
    c = confusion(pred, gt)
    union = c.tp + c.fp + c.fn
    return empty_value if union == 0 else c.tp / union


def niou(preds, gts, empty_value: float = 1.0) -> float:
    """Mean of per-sample IoUs; empty-vs-empty samples score `empty_value`."""
    _check_pairs(preds, gts)
    return float(np.mean([per_sample_iou(p, g, empty_value) for p, g in zip(preds, gts)]))


def roc(scores, gts, n_thresholds: int, fpr_mode: str = "standard") -> RocCurve:
    """Sweep thresholds (n evenly spaced in [0,1], plus 0 and 1, descending).

    TPR = TP/(TP+FN) pooled over all samples. FPR depends on the mode:
    standard = FP/(FP+TN); paper_literal = FP/(predicted positives). AUC is
    always the trapezoid over the standard-mode points sorted by fpr. A
    denominator of zero yields rate 0. No positive ground-truth pixel in the
    whole dataset is a hard error (TPR undefined everywhere).
    """
    if fpr_mode not in FPR_MODES:
        raise ValueError(f"fpr_mode must be one of {FPR_MODES}, got {fpr_mode!r}")
    if n_thresholds < 1:
        raise ValueError(f"n_thresholds must be >= 1, got {n_thresholds}")
    _check_pairs(scores, gts)
    flat_scores = np.concatenate([np.asarray(s, dtype=np.float64).reshape(-1) for s in scores])
    flat_gt = np.concatenate([np.asarray(g).reshape(-1).astype(bool) for g in gts])
    positives = int(np.count_nonzero(flat_gt))
    if positives == 0:
        raise ValueError("no positive ground-truth pixels anywhere: TPR undefined")
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
    return RocCurve(thresholds=thresholds,
                    fpr=fpr_std if fpr_mode == "standard" else fpr_lit,
                    tpr=tpr, auc=auc, fpr_mode=fpr_mode)


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1))


def connected_components(mask) -> tuple:
    """8-connected labeling of a binary mask.

    Returns (M, objects) where objects is a list of M sets of (row, col)
    pixel coordinates, ordered by first-encountered pixel in scan order.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        mask = mask.reshape(mask.shape[-2], mask.shape[-1])
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    parent = [0]  # union-find over provisional labels; 0 is background

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    nxt = 1
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            hits = []
            for dr, dc in _NEIGHBORS:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and labels[rr, cc]:
                    hits.append(find(labels[rr, cc]))
            if not hits:
                labels[r, c] = nxt
                parent.append(nxt)
                nxt += 1
            else:
                root = min(hits)
                labels[r, c] = root
                for other in hits:
                    parent[other] = root

    objects = []
    compact = {}
    for r in range(h):
        for c in range(w):
            if labels[r, c]:
                root = find(labels[r, c])
                if root not in compact:
                    compact[root] = len(objects)
                    objects.append(set())
                objects[compact[root]].add((r, c))
    return len(objects), objects


def _check_thr(thr: float, name: str = "thr") -> None:
    if not 0.0 <= thr <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must be in [0,1], got {thr}")


def compute_report(scores, gts, thr: float = 0.5, n_thresholds: int = 0,
                   fpr_mode: str = "standard") -> MetricsReport:
    """Evaluate score maps against masks at a fixed threshold, optionally
    attaching a ROC curve when n_thresholds > 0."""
    _check_thr(thr)
    _check_pairs(scores, gts)
    preds = [binarize(s, thr) for s in scores]
    per_sample = [per_sample_iou(p, g) for p, g in zip(preds, gts)]
    objects = [connected_components(np.asarray(g))[0] for g in gts]
    curve = roc(scores, gts, n_thresholds, fpr_mode) if n_thresholds > 0 else None
    return MetricsReport(iou=iou_dataset(preds, gts),
                         niou=float(np.mean(per_sample)),
                         per_sample_iou=per_sample,
                         n_samples=len(preds),
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_roc_csv(curve: RocCurve, path) -> None:
    lines = ["thr,fpr,tpr"]
    for thr, f, t in zip(curve.thresholds, curve.fpr, curve.tpr):
        lines.append(f"{float(thr)!r},{float(f)!r},{float(t)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_roc_svg(curve: RocCurve, path, size: int = 400) -> None:
    """Minimal standalone plot: unit box, diagonal, and the ROC polyline."""
    margin = 40
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
    with open(path, "w") as fh:
        fh.write("\n".join(svg) + "\n")
