"""Metric semantics: thresholding, pooled and per-sample IoU, the threshold
sweep, 8-connected object counting, and the report writers.

Counting claims are checked against independent implementations (loop
confusion, sorted-array threshold counts, BFS labeling) rather than against
rearrangements of the same formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuseg.metrics import (binarize, compute_report, confusion,
                           connected_components, iou_dataset, niou,
                           per_sample_iou, roc, write_report_csv,
                           write_roc_csv, write_roc_svg)
from nuseg.prng import Prng

from oracles import (confusion_loops, flood_fill_components,
                     iou_dataset_loops, niou_loops, roc_loops, roc_point_sorted)


def random_pair(seed, size=16, p=0.3):
    rng = Prng(seed)
    pred = (rng.uniform_array(size * size) < p).astype(np.uint8).reshape(size, size)
    gt = (rng.uniform_array(size * size) < p).astype(np.uint8).reshape(size, size)
    return pred, gt


def random_scores(seed, size=16):
    rng = Prng(seed)
    scores = rng.uniform_array(size * size).reshape(size, size)
    gt = (rng.uniform_array(size * size) < 0.3).astype(np.uint8).reshape(size, size)
    return scores, gt


class TestBinarize:
    def test_zero_threshold_keeps_everything(self):
        scores = np.array([0.0, 0.3, 1.0])
        np.testing.assert_array_equal(binarize(scores, 0.0), [1, 1, 1])

    def test_threshold_above_one_drops_everything(self):
        scores = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(binarize(scores, 1.0001), [0, 0, 0])

    def test_boundary_is_inclusive(self):
        np.testing.assert_array_equal(binarize(np.array([0.4, 0.5, 0.6]), 0.5),
                                      [0, 1, 1])

    def test_output_is_uint8(self):
        assert binarize(np.array([0.7]), 0.5).dtype == np.uint8


class TestConfusion:
    def test_hand_case(self):
        pred = np.array([[1, 1], [0, 0]])
        gt = np.array([[1, 0], [1, 0]])
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_matches_loop_oracle(self):
        pred, gt = random_pair(0)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_loops(pred, gt)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            confusion(np.zeros((2, 2)), np.zeros((3, 3)))


class TestIouDataset:
    def test_hand_case(self):
        """4 true pixels, 5 predicted, 3 overlapping: 3/(4+5-3) = 0.5."""
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[0, 0:4] = 1
        pred = np.zeros((4, 4), dtype=np.uint8)
        pred[0, 1:4] = 1
        pred[1, 0:2] = 1
        assert iou_dataset([pred], [gt]) == 0.5

    def test_perfect_match_is_one(self):
        pred, _ = random_pair(1)
        assert iou_dataset([pred], [pred]) == 1.0

    def test_any_disagreement_on_union_drops_below_one(self):
        pred, _ = random_pair(2)
        other = pred.copy()
        other[0, 0] ^= 1
        assert iou_dataset([other], [pred]) < 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((3, 3), dtype=np.uint8)
        b = np.zeros((3, 3), dtype=np.uint8)
        a[0, 0] = 1
        b[2, 2] = 1
        assert iou_dataset([a], [b]) == 0.0

    def test_all_empty_dataset_scores_one(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        assert iou_dataset([z, z], [z, z]) == 1.0

    def test_pooling_equals_concatenation(self):
        pairs = [random_pair(10 + i) for i in range(3)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        stacked = iou_dataset([np.concatenate([p.reshape(-1) for p in preds])],
                              [np.concatenate([g.reshape(-1) for g in gts])])
        assert iou_dataset(preds, gts) == stacked

    def test_matches_loop_oracle(self):
        pairs = [random_pair(20 + i) for i in range(4)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        assert iou_dataset(preds, gts) == iou_dataset_loops(preds, gts)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iou_dataset([], [])

    def test_length_mismatch_rejected(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="2 predictions but 1"):
            iou_dataset([z, z], [z])

    def test_sample_shape_mismatch_names_sample(self):
        with pytest.raises(ValueError, match="sample 1"):
            iou_dataset([np.zeros((2, 2)), np.zeros((2, 2))],
                        [np.zeros((2, 2)), np.zeros((3, 3))])


class TestNiou:
    def test_singleton_equals_per_sample(self):
        pred, gt = random_pair(30)
        assert niou([pred], [gt]) == per_sample_iou(pred, gt)

    def test_mean_of_perfect_and_disjoint(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        a[0, 0] = 1
        b = np.zeros((2, 2), dtype=np.uint8)
        b[1, 1] = 1
        assert niou([a, a], [a, b]) == 0.5

    def test_empty_sample_uses_empty_value(self):
        z = np.zeros((2, 2), dtype=np.uint8)
        assert per_sample_iou(z, z) == 1.0

    def test_matches_loop_oracle_exactly(self):
        pairs = [random_pair(40 + i, size=8) for i in range(3)]
        preds = [p for p, _ in pairs]
        gts = [g for _, g in pairs]
        assert abs(niou(preds, gts) - niou_loops(preds, gts)) < 1e-9

    @given(st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_order_invariance(self, order):
        """Pooled IoU accumulates integer counts, so permutation is exact;
        the nIoU mean reassociates float additions, so near-exact."""
        pairs = [random_pair(50 + i, size=8) for i in range(4)]
        preds = [pairs[i][0] for i in order]
        gts = [pairs[i][1] for i in order]
        base_p = [p for p, _ in pairs]
        base_g = [g for _, g in pairs]
        assert abs(niou(preds, gts) - niou(base_p, base_g)) < 1e-12
        assert iou_dataset(preds, gts) == iou_dataset(base_p, base_g)


class TestRoc:
    def test_perfect_scorer_auc_is_one(self):
        _, gt = random_scores(60)
        curve = roc([gt.astype(np.float64)], [gt], n_thresholds=17)
        assert abs(curve.auc - 1.0) < 1e-9

    def test_rates_monotone_against_threshold(self):
        scores, gt = random_scores(61)
        curve = roc([scores], [gt], n_thresholds=33)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.fpr) >= 0)

    def test_rates_bounded(self):
        scores, gt = random_scores(62)
        for mode in ("standard", "paper_literal"):
            curve = roc([scores], [gt], n_thresholds=9, fpr_mode=mode)
            for arr in (curve.fpr, curve.tpr):
                assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_thresholds_span_unit_interval(self):
        scores, gt = random_scores(63)
        curve = roc([scores], [gt], n_thresholds=5)
        assert curve.thresholds[0] == 1.0
        assert curve.thresholds[-1] == 0.0

    def test_constant_half_scores_hit_both_corners(self):
        """Scores all 0.5: at thr 1 nothing is predicted, at thr 0.5 and
        below everything is (boundary inclusive)."""
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[1, 1] = 1
        scores = np.full((4, 4), 0.5)
        curve = roc([scores], [gt], n_thresholds=3)
        pts = dict(zip(curve.thresholds.tolist(), zip(curve.fpr, curve.tpr)))
        assert pts[1.0] == (0.0, 0.0)
        assert pts[0.5] == (1.0, 1.0)
        assert pts[0.0] == (1.0, 1.0)

    def test_counts_match_sorted_oracle(self):
        scores_list = []
        gts_list = []
        for i in range(3):
            s, g = random_scores(70 + i, size=8)
            scores_list.append(s)
            gts_list.append(g)
        curve = roc(scores_list, gts_list, n_thresholds=17)
        for thr, tpr_val, fpr_val in zip(curve.thresholds, curve.tpr, curve.fpr):
            tp, fp, pos, neg = roc_point_sorted(scores_list, gts_list, thr)
            assert tpr_val == tp / pos
            assert fpr_val == (fp / neg if neg else 0.0)

    @pytest.mark.parametrize("case", ["uniform", "ties", "nan", "no_negatives", "constant"])
    def test_matches_loop_oracle_bytes(self, case):
        """Every array and the AUC's repr equal the per-threshold loop's, in
        both modes, including NaN scores (>= no threshold), scores that sit
        exactly on a threshold, and a dataset with no negative pixel."""
        scores_list, gts_list = [], []
        for i in range(3):
            s, g = random_scores(100 + i, size=6 + i)
            if case == "ties":
                s = np.floor(s * 8.0) / 8.0  # every value is a threshold at n=9 and n=33
            elif case == "nan":
                s[Prng(110 + i).uniform_array(s.size).reshape(s.shape) < 0.2] = np.nan
            elif case == "no_negatives":
                g = np.ones_like(g)
            elif case == "constant":
                s = np.full(s.shape, 0.5)
            scores_list.append(s)
            gts_list.append(g)
        for n in (1, 2, 9, 33, 200):
            for mode in ("standard", "paper_literal"):
                curve = roc(scores_list, gts_list, n_thresholds=n, fpr_mode=mode)
                thresholds, fpr, tpr, auc = roc_loops(scores_list, gts_list, n, mode)
                for got, want in ((curve.thresholds, thresholds), (curve.fpr, fpr),
                                  (curve.tpr, tpr)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                assert repr(curve.auc) == repr(auc)

    def test_no_positives_anywhere_is_an_error(self):
        scores = np.full((3, 3), 0.5)
        gt = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="no positive ground-truth"):
            roc([scores], [gt], n_thresholds=5)

    def test_all_positive_gt_gives_zero_standard_fpr(self):
        gt = np.ones((3, 3), dtype=np.uint8)
        scores = np.full((3, 3), 0.7)
        curve = roc([scores], [gt], n_thresholds=5)
        np.testing.assert_array_equal(curve.fpr, np.zeros_like(curve.fpr))

    def test_paper_literal_zero_predictions_rate_is_zero(self):
        gt = np.zeros((2, 2), dtype=np.uint8)
        gt[0, 0] = 1
        scores = np.full((2, 2), 0.4)
        curve = roc([scores], [gt], n_thresholds=3, fpr_mode="paper_literal")
        pts = dict(zip(curve.thresholds.tolist(), curve.fpr.tolist()))
        assert pts[1.0] == 0.0

    def test_paper_literal_hand_value(self):
        gt = np.array([[1, 0, 0, 0]], dtype=np.uint8)
        scores = np.array([[0.9, 0.8, 0.1, 0.1]])
        curve = roc([scores], [gt], n_thresholds=3, fpr_mode="paper_literal")
        pts = dict(zip(curve.thresholds.tolist(), curve.fpr.tolist()))
        # at thr 0.5: predictions {0.9, 0.8}, one true -> fp/(tp+fp) = 1/2
        assert pts[0.5] == 0.5

    def test_bad_mode_and_count_rejected(self):
        scores, gt = random_scores(75)
        with pytest.raises(ValueError, match="fpr_mode"):
            roc([scores], [gt], n_thresholds=5, fpr_mode="inverse")
        with pytest.raises(ValueError, match="n_thresholds"):
            roc([scores], [gt], n_thresholds=0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_tpr_monotone_for_any_seed(self, seed):
        scores, gt = random_scores(seed, size=8)
        if not gt.any():
            gt[0, 0] = 1
        curve = roc([scores], [gt], n_thresholds=9)
        assert np.all(np.diff(curve.tpr) >= 0)


class TestConnectedComponents:
    def test_empty_mask(self):
        assert connected_components(np.zeros((4, 4), dtype=np.uint8)) == (0, [])

    def test_single_pixel(self):
        mask = np.zeros((3, 3), dtype=np.uint8)
        mask[1, 2] = 1
        m, objs = connected_components(mask)
        assert m == 1 and objs == [{(1, 2)}]

    def test_diagonal_pixels_are_one_object(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1, 1] = 1
        mask[2, 2] = 1
        m, objs = connected_components(mask)
        assert m == 1 and objs == [{(1, 1), (2, 2)}]

    def test_separated_pixels_are_two_objects(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1
        mask[3, 3] = 1
        m, objs = connected_components(mask)
        assert m == 2
        assert objs[0] == {(0, 0)}  # scan order

    def test_u_shape_merges_provisional_labels(self):
        """Two columns meet only at the bottom row; the second pass must
        merge the left and right provisional labels into one object."""
        mask = np.array([[1, 0, 1],
                         [1, 0, 1],
                         [1, 1, 1]], dtype=np.uint8)
        m, objs = connected_components(mask)
        assert m == 1
        assert objs[0] == {(r, c) for r in range(3) for c in range(3)
                           if mask[r, c]}

    def test_matches_flood_fill_on_random_masks(self):
        """Same count and the same objects in the same (scan) order, on rows,
        columns and rectangles from sparse to nearly full."""
        for shape in ((16, 16), (1, 23), (23, 1), (9, 17)):
            for density in (0.1, 0.3, 0.5, 0.7, 0.9):
                for seed in range(8):
                    size = shape[0] * shape[1]
                    mask = (Prng(seed).uniform_array(size) < density).astype(np.uint8)
                    mask = mask.reshape(shape)
                    assert connected_components(mask) == flood_fill_components(mask)

    def test_serpentine_is_one_object(self):
        """A single 8k-pixel path that doubles back on every other row: the
        longest chain of labels to propagate through on a 128x128 mask."""
        mask = np.zeros((128, 128), dtype=np.uint8)
        mask[::2] = 1
        mask[1::4, -1] = 1
        mask[3::4, 0] = 1
        m, objs = connected_components(mask)
        assert m == 1 and len(objs[0]) == int(mask.sum())
        assert (m, objs) == flood_fill_components(mask)

    def test_component_tp_partition_sums_to_whole_mask_tp(self):
        """Splitting the ground truth by object and counting hits per object
        must reproduce the global true-positive count."""
        pred, gt = random_pair(80, size=12, p=0.35)
        _, objs = connected_components(gt)
        per_object = sum(int(sum(pred[r, c] for (r, c) in obj)) for obj in objs)
        assert per_object == confusion(pred, gt).tp

    def test_accepts_singleton_leading_axes(self):
        mask = np.zeros((1, 1, 3, 3), dtype=np.uint8)
        mask[0, 0, 1, 1] = 1
        m, objs = connected_components(mask)
        assert m == 1 and objs == [{(1, 1)}]


class TestReport:
    def test_fields_and_object_counts(self):
        scores, gt = random_scores(90)
        gt2 = np.zeros_like(gt)
        gt2[2:4, 2:4] = 1
        gt2[10, 10] = 1
        report = compute_report([scores, scores], [gt, gt2], thr=0.5)
        assert report.n_samples == 2
        assert report.roc is None
        assert len(report.per_sample_iou) == 2
        assert report.objects_per_sample[1] == 2
        np.testing.assert_allclose(report.niou,
                                   float(np.mean(report.per_sample_iou)))

    @pytest.mark.parametrize("thr", [float("nan"), float("inf"), -0.1, 1.5, 7.0])
    def test_threshold_outside_unit_interval_rejected(self, thr):
        scores, gt = random_scores(95)
        with pytest.raises(ValueError, match="thr must be in"):
            compute_report([scores], [gt], thr=thr)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_thresholds": -4}, "n_thresholds must be >= 0, got -4"),
        ({"fpr_mode": "bogus"}, "fpr_mode must be one of .* got 'bogus'"),
    ], ids=["n_thresholds", "fpr_mode"])
    def test_bad_roc_arguments_rejected(self, kwargs, message):
        scores, gt = random_scores(97)
        with pytest.raises(ValueError, match=message):
            compute_report([scores], [gt], **kwargs)

    @pytest.mark.parametrize("thr", [0.0, 1.0])
    def test_threshold_endpoints_accepted(self, thr):
        scores, gt = random_scores(96)
        assert compute_report([scores], [gt], thr=thr).n_samples == 1

    def test_roc_attached_when_requested(self):
        scores, gt = random_scores(91)
        report = compute_report([scores], [gt], n_thresholds=9)
        assert report.roc is not None
        assert report.roc.thresholds.size >= 9

    def test_report_csv_contents(self, tmp_path):
        scores, gt = random_scores(92)
        report = compute_report([scores], [gt], n_thresholds=5)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        keys = [line.split(",")[0] for line in lines[1:]]
        assert keys == ["iou", "niou", "n_samples", "objects_total", "auc"]
        assert float(dict(l.split(",") for l in lines[1:])["iou"]) == report.iou

    def test_roc_csv_round_trip(self, tmp_path):
        scores, gt = random_scores(93)
        curve = roc([scores], [gt], n_thresholds=7)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "thr,fpr,tpr"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(got[:, 0], curve.thresholds)
        np.testing.assert_array_equal(got[:, 1], curve.fpr)
        np.testing.assert_array_equal(got[:, 2], curve.tpr)

    def test_roc_svg_is_a_plot(self, tmp_path):
        scores, gt = random_scores(94)
        curve = roc([scores], [gt], n_thresholds=7)
        path = tmp_path / "roc.svg"
        write_roc_svg(curve, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "auc=" in text
