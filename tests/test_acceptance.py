"""Acceptance suite: one test per shipped acceptance property.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The two budgeted tests (gradient suite, overfit trainability)
measure their own wall time; the counting test prints full-preset totals
for order-of-magnitude comparison against the reference design figures
without asserting on them.
"""

import time

import numpy as np

from nuseg.data import (DatasetTemplate, gen_dataset, gen_scene, load_pgm,
                        save_pgm)
from nuseg.ica import IcaParams, channel_attention, ica_forward
from nuseg.io import load_tensor, save_tensor
from nuseg.metrics import binarize, iou_dataset, niou, roc
from nuseg.model import (ModelConfig, ModelParams, _conv_macs, count_flops,
                         count_params, forward, forward_features)
from nuseg.prng import Prng
from nuseg.rsu import RsuParams, RsuSpec, rsu_forward
from nuseg.tensor import (Tensor, activation, add, batch_norm, bce_loss,
                          channel_pool, concat_channels, conv2d,
                          global_avg_pool, grad_check, linear, max_pool2d,
                          mul_broadcast, relu, scale, sigmoid, sum_all,
                          upsample_bilinear)
from nuseg.train import (TrainConfig, evaluate_dataset, load_checkpoint,
                         run_ablation, save_checkpoint, train_loop)
from nuseg.layers import Conv

from oracles import (conv2d_mac_count, ica_forward_loops, iou_dataset_loops,
                     niou_loops, roc_point_sorted)

# Central differences run at eps=1e-5: the float64 graph holds the rounding
# floor near 1e-11 there, and the narrow stencil stays clear of relu kinks
# and pool-argmax ties that corrupt the quotient at wider steps.
EPS = 1e-5


def _rand(prng, *shape):
    return Tensor(prng.normal(shape), requires_grad=True)


def _wsum(out, prng):
    # fixed random weighting so no per-element gradient error can cancel
    if out.data.ndim != 4:
        return sum_all(out)
    w = Tensor(prng.normal(out.data.shape).astype(out.data.dtype))
    return sum_all(mul_broadcast(out, w))


def _per_op_errors(seed):
    """One grad check per differentiable op (both conv variants, both BN
    modes, both channel-pool reductions, both broadcast-gate shapes)."""
    errs = {}
    p = Prng(seed)
    x, w, b = _rand(p, 2, 3, 6, 6), _rand(p, 4, 3, 3, 3), _rand(p, 4)
    errs["conv2d"] = grad_check(
        lambda x_, w_, b_: _wsum(conv2d(x_, w_, b_, pad=1), Prng(seed)),
        [x, w, b], eps=EPS)
    x, w, b = _rand(p, 1, 2, 7, 7), _rand(p, 3, 2, 3, 3), _rand(p, 3)
    errs["conv2d_strided_dilated"] = grad_check(
        lambda x_, w_, b_: _wsum(
            conv2d(x_, w_, b_, stride=2, pad=2, dilation=2), Prng(seed + 1)),
        [x, w, b], eps=EPS)
    x = _rand(p, 2, 2, 6, 6)
    errs["max_pool2d"] = grad_check(
        lambda x_: _wsum(max_pool2d(x_), Prng(seed + 2)), [x], eps=EPS)
    x = _rand(p, 1, 2, 3, 4)
    errs["upsample_bilinear"] = grad_check(
        lambda x_: _wsum(upsample_bilinear(x_, 6, 7), Prng(seed + 3)),
        [x], eps=EPS)
    rm = Tensor(np.zeros(2, np.float32))
    rv = Tensor(np.ones(2, np.float32))
    x, g, be = _rand(p, 3, 2, 4, 4), _rand(p, 2), _rand(p, 2)
    errs["batch_norm_train"] = grad_check(
        lambda x_, g_, b_: _wsum(
            batch_norm(x_, g_, b_, rm, rv, training=True), Prng(seed + 4)),
        [x, g, be], eps=EPS, promote=[rm, rv])
    x = _rand(p, 2, 2, 3, 3)
    errs["batch_norm_eval"] = grad_check(
        lambda x_, g_, b_: _wsum(
            batch_norm(x_, g_, b_, rm, rv, training=False), Prng(seed + 5)),
        [x, g, be], eps=EPS, promote=[rm, rv])
    x = _rand(p, 2, 3, 4, 4)
    errs["relu"] = grad_check(
        lambda x_: _wsum(relu(x_), Prng(seed + 6)), [x], eps=EPS)
    x = _rand(p, 2, 3, 4, 4)
    errs["sigmoid"] = grad_check(
        lambda x_: _wsum(sigmoid(x_), Prng(seed + 7)), [x], eps=EPS)
    x = _rand(p, 2, 4, 5, 5)
    errs["global_avg_pool"] = grad_check(
        lambda x_: _wsum(global_avg_pool(x_), Prng(seed + 8)), [x], eps=EPS)
    for mode in ("avg", "max"):
        x = _rand(p, 2, 4, 4, 4)
        errs[f"channel_pool_{mode}"] = grad_check(
            lambda x_: _wsum(channel_pool(x_, mode), Prng(seed + 9)),
            [x], eps=EPS)
    x, a = _rand(p, 2, 3, 4, 4), _rand(p, 2, 3, 1, 1)
    errs["mul_broadcast_channel"] = grad_check(
        lambda x_, a_: _wsum(mul_broadcast(x_, a_), Prng(seed + 10)),
        [x, a], eps=EPS)
    x, a = _rand(p, 2, 3, 4, 4), _rand(p, 2, 1, 4, 4)
    errs["mul_broadcast_spatial"] = grad_check(
        lambda x_, a_: _wsum(mul_broadcast(x_, a_), Prng(seed + 11)),
        [x, a], eps=EPS)
    xs = [_rand(p, 2, c, 3, 3) for c in (1, 2, 3)]
    errs["concat_channels"] = grad_check(
        lambda *ts: _wsum(concat_channels(list(ts)), Prng(seed + 12)),
        xs, eps=EPS)
    x, w, b = _rand(p, 3, 4, 1, 1), _rand(p, 2, 4), _rand(p, 2)
    errs["linear"] = grad_check(
        lambda x_, w_, b_: _wsum(linear(x_, w_, b_), Prng(seed + 13)),
        [x, w, b], eps=EPS)
    z = _rand(p, 2, 1, 4, 4)
    t = Tensor((p.uniform_array(32) < 0.5).astype(np.float32).reshape(2, 1, 4, 4))
    errs["bce_loss"] = grad_check(
        lambda z_: bce_loss(sigmoid(z_), t), [z], eps=EPS, promote=[t])
    x, y = _rand(p, 2, 2, 3, 3), _rand(p, 2, 2, 3, 3)
    errs["add"] = grad_check(
        lambda x_, y_: _wsum(add(x_, y_), Prng(seed + 14)), [x, y], eps=EPS)
    x = _rand(p, 2, 2, 3, 3)
    errs["scale"] = grad_check(
        lambda x_: _wsum(scale(x_, -1.7), Prng(seed + 15)), [x], eps=EPS)
    x = _rand(p, 2, 2, 3, 3)
    errs["sum_all"] = grad_check(lambda x_: sum_all(x_), [x], eps=EPS)
    return errs


def _composed_error(seed):
    """Grad-check a full miniature path: pooling block into dilated block
    into the attention fusion into a side head, against a BCE target."""
    prng = Prng(seed)
    rsu_a = RsuParams(RsuSpec(3, 1, 1, 4, "pooling"), prng)
    rsu_b = RsuParams(RsuSpec(3, 4, 1, 4, "dilated"), prng)
    ica = IcaParams(prng, 4)
    head = Conv(prng, 8, 1, k=3)
    x = Tensor(prng.normal((1, 1, 4, 4)))
    target = Tensor((prng.uniform_array(16) < 0.5)
                    .astype(np.float32).reshape(1, 1, 4, 4))

    def build(*_):
        f_l = rsu_forward(rsu_a, x, training=True)
        f_h = rsu_forward(rsu_b, f_l, training=True)
        fused = ica_forward(f_h, f_l, ica, training=True).fused
        return bce_loss(activation(head.apply(fused), "sigmoid"), target)

    leaves = (rsu_a.trainables() + rsu_b.trainables() + ica.trainables()
              + head.trainables() + [x])
    return grad_check(build, leaves, eps=EPS, promote=[ica.c1_bias, target])


def _scene_set(out_dir, n, seed, **template_kwargs):
    specs = gen_dataset(out_dir, n, DatasetTemplate(**template_kwargs), seed)
    return [gen_scene(spec) for spec in specs]


def test_c01_gradient_suite():
    """Every differentiable op and a composed pooling/dilated/attention/head
    model pass central-difference checks below 1e-3 over 20 seeds, inside a
    two-minute budget."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, max(_per_op_errors(seed).values()))
        worst = max(worst, _composed_error(seed))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-3
    assert elapsed < 120.0


def test_c02_resolution_maintenance():
    """Both small presets emit every side map and the fused map at exactly
    the input resolution for 64/96/128-pixel squares."""
    for preset in ("tiny", "small"):
        cfg = ModelConfig(preset=preset)
        params = ModelParams(cfg, Prng(40))
        for size in (64, 96, 128):
            x = Tensor(Prng(41).normal((1, 3, size, size)))
            out = forward(params, x, training=False)
            maps = list(out.d) + [out.fused]
            assert len(maps) == cfg.n_side + 1
            for m in maps:
                assert m.data.shape == (1, 1, size, size)


def test_c03_residual_identity():
    """Zeroing the top decoder kernel and its BN gamma removes the inner U
    entirely, leaving the input conv bit for bit, in both block modes."""
    for mode in ("pooling", "dilated"):
        params = RsuParams(RsuSpec(3, 3, 2, 4, mode), Prng(50))
        top = params.dec_top()
        top.w.data[:] = 0.0
        top.bn.gamma.data[:] = 0.0
        x = Tensor(Prng(51).normal((1, 3, 8, 8)))
        out = rsu_forward(params, x, training=True)
        f = params.conv_in.apply(x, True)
        np.testing.assert_array_equal(out.data, f.data)


def test_c04_attention_gate_degeneracies():
    """Forced-open gates collapse the fusion to a plain concat, a forced-shut
    channel gate zeroes the attended features exactly, and the broadcast
    semantics match an explicit-loop forward on 1x4x8x8 inputs."""
    f_h = Prng(61).normal((1, 4, 8, 8))
    f_l = Prng(62).normal((1, 4, 8, 8))

    # constants die in the excitation BN, so the forcing goes through beta
    # and the fusion bias, which sit after the last normalization
    params = IcaParams(Prng(60), 4)
    params.w2.data[:] = 0.0
    params.bn2.beta.data[:] = 30.0
    params.c3_w.data[:] = 0.0
    params.c3_b.data[:] = 30.0
    fused = ica_forward(Tensor(f_h), Tensor(f_l), params, training=True).fused
    np.testing.assert_allclose(
        fused.data, np.concatenate([f_l, f_h], axis=1), atol=1e-6)

    params = IcaParams(Prng(63), 4)
    params.w2.data[:] = 0.0
    params.bn2.beta.data[:] = -120.0  # sigmoid underflows to f32 zero
    att = channel_attention(Tensor(f_h), Tensor(f_l), params, training=True)
    np.testing.assert_array_equal(att.data, np.zeros_like(f_l))

    params = IcaParams(Prng(64), 4)
    out = ica_forward(Tensor(f_h), Tensor(f_l), params, training=True)
    ca, icafeat, fused = ica_forward_loops(f_h, f_l, params)
    np.testing.assert_allclose(out.f_ca.data, ca, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(out.f_ica.data, icafeat, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(out.fused.data, fused, rtol=1e-4, atol=1e-5)


def test_c05_metric_oracle_equivalence():
    """Dataset IoU, per-sample mean IoU, and every ROC point agree with
    brute-force counting oracles on 50 random 16x16 pairs; the counts are
    integers, so the pooled ratios match as exact quotients."""
    pred = np.zeros((4, 4), dtype=np.uint8)
    gt = np.zeros((4, 4), dtype=np.uint8)
    pred.flat[:5] = 1          # 5 predicted
    gt.flat[[0, 1, 2, 8]] = 1  # 4 true, overlap 3
    assert iou_dataset([pred], [gt]) == 3 / (4 + 5 - 3) == 0.5

    preds, gts, scores = [], [], []
    for i in range(50):
        rng = Prng(5000 + i)
        s = rng.uniform_array(256).astype(np.float64).reshape(16, 16)
        g = (rng.uniform_array(256) < 0.3).astype(np.uint8).reshape(16, 16)
        scores.append(s)
        gts.append(g)
        preds.append(binarize(s, 0.5))

    assert iou_dataset(preds, gts) == iou_dataset_loops(preds, gts)
    assert abs(niou(preds, gts) - niou_loops(preds, gts)) < 1e-9
    curve = roc(scores, gts, n_thresholds=33)
    for thr, tpr_val, fpr_val in zip(curve.thresholds, curve.tpr, curve.fpr):
        tp, fp, pos, neg = roc_point_sorted(scores, gts, thr)
        assert tpr_val == tp / pos
        assert fpr_val == (fp / neg if neg else 0.0)


def test_c06_roc_properties():
    """TPR is monotone as the threshold falls, a perfect scorer reaches unit
    area, and standard-mode FPR never leaves [0,1]."""
    for seed in range(10):
        rng = Prng(7000 + seed)
        s = rng.uniform_array(400).astype(np.float64).reshape(20, 20)
        g = (rng.uniform_array(400) < 0.4).astype(np.uint8).reshape(20, 20)
        curve = roc([s], [g], n_thresholds=25)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all((curve.fpr >= 0.0) & (curve.fpr <= 1.0))

    g = (Prng(7100).uniform_array(64) < 0.5).astype(np.uint8).reshape(8, 8)
    curve = roc([g.astype(np.float64)], [g], n_thresholds=21)
    assert abs(curve.auc - 1.0) <= 1e-9


def test_c07_overfit_trainability(tmp_path):
    """With default optimizer settings the tiny preset memorizes 8 generated
    64x64 scenes within 300 steps: IoU at 0.5 reaches 0.8 and the loss drops
    below a tenth of its starting value for at least 4 of 5 seeds, inside a
    ten-minute budget."""
    t0 = time.perf_counter()
    passes = 0
    for seed in range(5):
        scenes = _scene_set(tmp_path / f"overfit{seed}", 8, 1000 + seed)
        params = ModelParams(ModelConfig(preset="tiny"), Prng(seed))
        result = train_loop(params, scenes, TrainConfig(seed=seed, epochs=1000),
                            max_steps=300)
        rows = result["rows"]
        iou = evaluate_dataset(params, scenes, 0.5)["iou"]
        if iou >= 0.8 and rows[-1][1] < 0.1 * rows[0][1]:
            passes += 1
    elapsed = time.perf_counter() - t0
    assert passes >= 4
    assert elapsed < 600.0


def test_c08_attention_ablation(tmp_path):
    """Toggling the attention path leaves encoder activations bit-identical
    and changes every decoder output; the harness writes the two-row
    config/iou/niou report for the same synthetic scenes."""
    params_on = ModelParams(ModelConfig(preset="tiny", ica_enabled=True),
                            Prng(5))
    params_off = ModelParams(ModelConfig(preset="tiny", ica_enabled=False),
                             Prng(5))
    x = Tensor(Prng(8).normal((1, 3, 64, 64)))
    feats_on = forward_features(params_on, x, training=False)
    feats_off = forward_features(params_off, x, training=False)
    for a, b in zip(feats_on["enc"], feats_off["enc"]):
        np.testing.assert_array_equal(a.data, b.data)
    for a, b in zip(feats_on["dec"], feats_off["dec"]):
        assert not np.array_equal(a.data, b.data)

    scenes = _scene_set(tmp_path / "scenes", 8, 1000)
    out_path = tmp_path / "ablation.csv"
    rows = run_ablation(scenes, TrainConfig(seed=0, epochs=1000),
                        out_path=out_path, max_steps=60)
    assert [r[0] for r in rows] == ["ica_on", "ica_off"]
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "config,iou,niou"
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        label, iou_text, niou_text = line.split(",")
        assert label == row[0]
        assert 0.0 <= float(iou_text) <= 1.0
        assert 0.0 <= float(niou_text) <= 1.0


def test_c09_determinism_and_persistence(tmp_path):
    """Same-seed runs write byte-identical loss curves; checkpoints and both
    file formats survive save/load/save without a bit of drift."""
    scenes = _scene_set(tmp_path / "scenes", 2, 77, width=32, height=32)
    cfg = TrainConfig(seed=11, epochs=2, batch_size=2)
    curves = []
    for run in ("a", "b"):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(7))
        curve_path = tmp_path / f"curve_{run}.csv"
        train_loop(params, scenes, cfg, curve_path=curve_path)
        curves.append(curve_path.read_bytes())
    assert curves[0] == curves[1]

    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, params, step=3, train_cfg=cfg)
    restored = ModelParams(ModelConfig(preset="tiny"), Prng(99))
    load_checkpoint(p1, restored)
    save_checkpoint(p2, restored, step=3, train_cfg=cfg)
    assert p1.read_bytes() == p2.read_bytes()

    arr = Prng(13).normal((2, 3, 5, 4))
    t1, t2 = tmp_path / "a.uiut", tmp_path / "b.uiut"
    save_tensor(t1, arr)
    back = load_tensor(t1)
    np.testing.assert_array_equal(back, arr)
    save_tensor(t2, back)
    assert t1.read_bytes() == t2.read_bytes()

    img = np.arange(64, dtype=np.float32).reshape(8, 8) / 63.0
    g1, g2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_pgm(g1, img)
    mid = load_pgm(g1)
    save_pgm(g2, mid)
    assert g1.read_bytes() == g2.read_bytes()
    np.testing.assert_array_equal(load_pgm(g2), mid)


def test_c10_counting_correctness(capsys):
    """The tiny preset's parameter count equals a hand-summed ledger built
    from closed forms, and the per-conv MAC formula matches a loop-nest
    count. Full-preset totals are printed next to the reference design's
    50.54M parameters and 33.64G MACs for comparison only."""
    def cbr(cin, cout):
        # conv kernel (no bias: the BN cancels one), then the BN affine pair
        return 9 * cin * cout + 2 * cout

    def rsu(depth, cin, mid, cout):
        total = cbr(cin, cout) + cbr(cout, mid)
        total += (depth - 2) * cbr(mid, mid)      # encoder chain below the top
        total += cbr(mid, mid)                    # bottom
        total += (depth - 2) * cbr(2 * mid, mid)  # decoder chain
        total += cbr(2 * mid, cout)               # top decoder
        return total

    def ica(c, r=4):
        s = c // r
        gates = (s * c + 2 * s) + (c * s + 2 * c)  # squeeze, excite; BN, no bias
        spatial = (s * c + 2 * s) + (2 * 9 + 1)  # 1x1 reduce + BN, 3x3 fuse
        return gates + spatial

    ledger = (rsu(4, 3, 4, 8) + rsu(3, 8, 8, 16) + rsu(3, 16, 8, 16)
              + rsu(3, 48, 8, 16) + rsu(4, 32, 4, 8)
              + (16 * 16 + 16) + (16 * 8 + 8)    # 1x1 skip projections
              + ica(16) + ica(8)
              + (9 * 8 + 1) + (9 * 16 + 1) + (9 * 16 + 1)  # side heads
              + (3 + 1))                                   # fusion 1x1
    # by hand: RSUs 2168 + 7040 + 8192 + 12800 + 4256 = 34456, projections
    # 408, ICAs 259 + 91, heads 363, fusion 4
    assert ledger == 35581
    params = ModelParams(ModelConfig(preset="tiny"), Prng(0))
    assert count_params(params) == ledger

    assert (_conv_macs(3, 8, 3, 10, 10)
            == conv2d_mac_count(3, 8, 3, 10, 10, pad=1)
            == 3 * 8 * 9 * 10 * 10
            == 21600)

    full = ModelConfig(preset="full")
    full_params = count_params(ModelParams(full, Prng(1)))
    full_macs = count_flops(full, 320, 320)
    with capsys.disabled():
        print(f"\nfull preset: params={full_params:,} (reference 50.54M), "
              f"macs@320x320={full_macs:,} (reference 33.64G)")
