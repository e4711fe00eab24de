"""Optimizer algebra, the deep-supervision objective, loop determinism, and
checkpoint round-trips.

Training-loop tests run a few steps of the smallest preset on 32x32 inputs;
nothing here should take more than a second or two.
"""

import gc
import re
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuseg import io as tio
from nuseg.metrics import compute_report
from nuseg.model import (CONFIG_KEYS, ModelConfig, ModelParams, SideOutputs, _config_lines,
                         forward, parse_model_config)
from nuseg.prng import Prng
from nuseg.tensor import Tensor, grad_check
from nuseg.train import (AdamState, TRAIN_KEYS, TrainConfig, adam_step,
                         evaluate_dataset, load_checkpoint, open_checkpoint,
                         parse_train_config, render_train_config, run_ablation,
                         save_checkpoint, total_loss, train_loop, write_curve)

from oracles import bce_f64, sigmoid_f64


README = Path(__file__).resolve().parents[1] / "README.md"

_rate = st.floats(min_value=0.0, allow_infinity=False)
_beta = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
# one strategy per TrainConfig field, each over its whole valid range
TRAIN_FIELDS = {
    "lr": _rate,
    "beta1": _beta,
    "beta2": _beta,
    "eps_adam": _rate,
    "batch_size": st.integers(min_value=1, max_value=2 ** 31),
    "epochs": st.integers(min_value=0, max_value=2 ** 31),
    "seed": st.integers(min_value=0, max_value=2 ** 64 - 1),
    "threshold": st.floats(min_value=0.0, max_value=1.0),
    "loss_weights": st.none() | st.lists(_rate, min_size=1, max_size=7).filter(
        lambda ws: any(w > 0 for w in ws)),
}


def leaf(values, dtype=np.float64):
    t = Tensor(np.asarray(values, dtype=np.float32))
    t.data = np.asarray(values, dtype=dtype)
    t.requires_grad = True
    return t


def tiny_sample(seed, size=32):
    rng = Prng(seed)
    img = rng.uniform_array(3 * size * size).reshape(1, 3, size, size)
    mask = np.zeros((1, 1, size, size), dtype=np.float32)
    mask[0, 0, 8:12, 8:12] = 1.0
    return SimpleNamespace(image=Tensor(img), mask=Tensor(mask))


def tiny_setup(seed=0, n=2, size=32, **cfg_kwargs):
    params = ModelParams(ModelConfig(preset="tiny"), Prng(seed))
    dataset = [tiny_sample(100 + i, size) for i in range(n)]
    cfg = TrainConfig(seed=seed, **cfg_kwargs)
    return params, dataset, cfg


class TestAdam:
    def test_textbook_first_step(self):
        """theta=0, g=1, lr=0.1, defaults: mhat=vhat=1 after bias correction,
        so the update is exactly -lr/(1+eps), computed in float64."""
        p = leaf([0.0])
        p.grad = np.ones(1, dtype=np.float64)
        state = AdamState([p])
        adam_step(state, TrainConfig(lr=0.1))
        assert state.t == 1
        assert p.data[0] == -(0.1 / (1.0 + 1e-8))
        assert p.data[0] == -0.09999999900000002

    def test_zero_gradient_is_a_fixed_point(self):
        p = leaf([1.5, -2.0])
        state = AdamState([p])
        before = p.data.copy()
        for _ in range(3):
            p.grad = None
            adam_step(state, TrainConfig(lr=0.5))
        np.testing.assert_array_equal(p.data, before)
        assert state.t == 3

    def test_first_step_is_sign_descent_with_zero_eps(self):
        """With eps=0 the first update divides the gradient by its own
        magnitude: theta moves by exactly -lr * sign(g), any scale."""
        g = np.array([3.0, -0.25, 1e-6, -40.0], dtype=np.float64)
        p = leaf(np.zeros(4))
        p.grad = g.copy()
        adam_step(AdamState([p]), TrainConfig(lr=0.01, eps_adam=0.0))
        np.testing.assert_allclose(p.data, -0.01 * np.sign(g), rtol=1e-12)

    def test_scale_invariance_with_zero_eps(self):
        updates = []
        for factor in (1.0, 1000.0):
            p = leaf(np.zeros(3))
            p.grad = factor * np.array([0.5, -1.0, 2.0], dtype=np.float64)
            adam_step(AdamState([p]), TrainConfig(lr=0.05, eps_adam=0.0))
            updates.append(p.data.copy())
        np.testing.assert_allclose(updates[0], updates[1], rtol=1e-12)

    def test_moments_accumulate_across_steps(self):
        p = leaf([0.0])
        state = AdamState([p])
        for _ in range(2):
            p.grad = np.ones(1, dtype=np.float64)
            adam_step(state, TrainConfig(lr=0.1))
        # m = 0.1 + 0.9*0.1 = 0.19 after two unit gradients
        np.testing.assert_allclose(state.m[0], [0.19], rtol=1e-12)
        assert state.t == 2


class TestTrainConfig:
    @given(st.builds(TrainConfig, **TRAIN_FIELDS))
    @example(TrainConfig())
    @settings(max_examples=50, deadline=None)
    def test_defaults_round_trip(self, cfg):
        assert list(TRAIN_FIELDS) == [f.name for f in fields(TrainConfig)]
        text = render_train_config(cfg)
        again = parse_train_config(text)
        assert again == cfg
        assert render_train_config(again) == text

    def test_rendered_text_is_pinned(self):
        """Checkpoints store this text, so its bytes are part of the format."""
        defaults = ("lr = 0.001\nbeta1 = 0.9\nbeta2 = 0.999\neps_adam = 1e-08\n"
                    "batch_size = 4\nepochs = 50\nseed = 0\nthreshold = 0.5\n")
        assert render_train_config(TrainConfig()) == defaults
        weighted = TrainConfig(loss_weights=[1, 0.5, 0.25, 2])
        assert render_train_config(weighted) == defaults + "loss_weights = 1.0,0.5,0.25,2.0\n"

    def test_readme_config_blocks_match_the_code(self):
        """The README's model block sets every model key; its train block
        lists every TrainConfig field in declaration order, at the defaults."""
        model_block, train_block = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        model_keys = {re.sub(r"\.\d+$", ".<i>", key) for key, _ in _config_lines(model_block)}
        assert model_keys >= set(CONFIG_KEYS.split(", "))
        parse_model_config(model_block)
        assert [key for key, _ in _config_lines(train_block)] == \
            [f.name for f in fields(TrainConfig)]
        assert parse_train_config(train_block) == TrainConfig(loss_weights=[1, 1, 1, 1])

    def test_loss_weights_round_trip(self):
        cfg = TrainConfig(loss_weights=[1.0, 0.5, 0.25, 2.0])
        again = parse_train_config(render_train_config(cfg))
        assert again.loss_weights == [1.0, 0.5, 0.25, 2.0]

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ValueError) as err:
            parse_train_config("momentum = 0.9\n")
        assert TRAIN_KEYS in str(err.value)

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"'lr' set twice, on lines 2 and 4"):
            parse_train_config("# rates\nlr = 0.1\nepochs = 2\nlr = 0.2\n")

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1e-3)

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta2"):
            TrainConfig(beta2=1.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            TrainConfig(loss_weights=[0.0, 0.0])

    @pytest.mark.parametrize("make", [lambda: TrainConfig(loss_weights=[]),
                                      lambda: parse_train_config("loss_weights = \n"),
                                      lambda: parse_train_config("loss_weights = ,\n")],
                             ids=["constructor", "blank", "comma"])
    def test_empty_weights_rejected_as_empty(self, make):
        with pytest.raises(ValueError, match="^loss_weights must not be empty$"):
            make()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            TrainConfig(loss_weights=[1.0, -0.5])

    def test_seed_must_fit_u64(self):
        with pytest.raises(ValueError, match="u64"):
            TrainConfig(seed=2 ** 64)

    @pytest.mark.parametrize("key", ["lr", "eps_adam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [-0.1, 1.5, 7.0, float("nan")])
    def test_threshold_range(self, value):
        with pytest.raises(ValueError, match="threshold"):
            TrainConfig(threshold=value)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="loss_weights"):
            TrainConfig(loss_weights=[1.0, float("nan")])

    def test_parsed_nan_lr_is_rejected_before_training(self):
        with pytest.raises(ValueError, match="lr"):
            parse_train_config("lr = nan\nthreshold = 7\n")

    @pytest.mark.parametrize("text,key", [("lr = fast\n", "lr"),
                                          ("epochs = ten\n", "epochs"),
                                          ("loss_weights = 1,x\n", "loss_weights")])
    def test_unparsable_value_names_the_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            parse_train_config(text)

    def test_line_without_equals_names_the_line(self):
        with pytest.raises(ValueError, match="line 2: expected key = value"):
            parse_train_config("lr = 0.1\nepochs 3\n")


class TestTotalLoss:
    def test_zero_logits_give_weighted_ln2(self):
        """Every probability map is 0.5 when the heads emit zeros, and BCE
        against any target is then ln 2; weights sum linearly."""
        params = ModelParams(ModelConfig(preset="tiny"), Prng(1))
        for head in params.heads + [params.fuse]:
            head.w.data[:] = 0.0
            head.b.data[:] = 0.0
        sample = tiny_sample(0)
        out = forward(params, sample.image, training=True)
        weights = [1.0, 0.5, 2.0, 0.25]
        loss = total_loss(out, sample.mask, weights)
        np.testing.assert_allclose(float(loss.data), sum(weights) * np.log(2.0),
                                   rtol=1e-6)

    def test_one_hot_fused_weight_equals_plain_bce(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(2))
        sample = tiny_sample(1)
        out = forward(params, sample.image, training=True)
        loss = total_loss(out, sample.mask, [0.0, 0.0, 0.0, 1.0])
        fused_prob = out.probability_maps()[-1]
        from nuseg.tensor import bce_loss
        only = bce_loss(fused_prob, sample.mask)
        assert float(loss.data) == float(only.data)

    def test_matches_float64_accumulation(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(3))
        sample = tiny_sample(2)
        out = forward(params, sample.image, training=True)
        weights = [0.7, 1.3, 0.2, 1.0]
        loss = float(total_loss(out, sample.mask, weights).data)
        target = sample.mask.data.astype(np.float64)
        want = sum(w * bce_f64(sigmoid_f64(t.data), target)
                   for w, t in zip(weights, out.d + [out.fused]))
        np.testing.assert_allclose(loss, want, rtol=1e-5)

    def test_grad_checks_in_float64(self):
        """Each weighted BCE term is a rank-0 float64 tensor under grad_check.
        Rounded to float32, the loss would leave a central-difference error of
        about 1e-2 at eps 1e-5."""
        prng = Prng(28)
        logits = [Tensor(prng.normal((1, 1, 4, 4))) for _ in range(3)]
        target = Tensor((prng.uniform_array(16).reshape(1, 1, 4, 4) > 0.5).astype(np.float32))

        def build(d1, d2, fused):
            return total_loss(SideOutputs(d=[d1, d2], fused=fused), target, [0.5, 2.0, 1.0])
        assert grad_check(build, logits, eps=1e-5, promote=(target,)) < 1e-3

    def test_wrong_weight_count_is_an_error(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(4))
        sample = tiny_sample(3)
        out = forward(params, sample.image, training=True)
        with pytest.raises(ValueError, match="need 4 loss weights"):
            total_loss(out, sample.mask, [1.0, 1.0])


class TestTrainLoop:
    def test_same_seed_runs_are_bit_identical(self, tmp_path):
        curves = []
        for run in range(2):
            params, dataset, cfg = tiny_setup(seed=5, epochs=3, batch_size=2)
            path = tmp_path / f"curve{run}.csv"
            train_loop(params, dataset, cfg, curve_path=path, max_steps=3)
            curves.append(path.read_bytes())
        assert curves[0] == curves[1]

    def test_zero_lr_freezes_trainables_but_not_bn_stats(self):
        """lr=0 must leave every trainable bit-identical while batch-norm
        running stats and the Adam moments still advance."""
        params, dataset, cfg = tiny_setup(seed=6, lr=0.0, epochs=1, batch_size=1)
        before = {k: t.data.copy() for k, t in params.named().items()}
        result = train_loop(params, dataset, cfg, max_steps=2)
        after = params.named()
        trainable_ids = {id(t) for t in params.trainables()}
        moved_stats = 0
        for key, old in before.items():
            if id(after[key]) in trainable_ids:
                np.testing.assert_array_equal(after[key].data, old, err_msg=key)
            elif not np.array_equal(after[key].data, old):
                moved_stats += 1
        assert moved_stats > 0
        state = result["state"]
        assert state.t == 2
        assert any(np.any(m != 0.0) for m in state.m)

    def test_rows_and_curve_format(self, tmp_path):
        params, dataset, cfg = tiny_setup(seed=7, epochs=2, batch_size=2)
        path = tmp_path / "curve.csv"
        result = train_loop(params, dataset, cfg, curve_path=path, max_steps=2)
        rows = result["rows"]
        assert [r[0] for r in rows] == [0, 1]
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,iou"
        assert len(lines) == 3
        step, loss_val, iou_val = lines[1].split(",")
        assert int(step) == 0
        assert float(loss_val) == rows[0][1]
        assert 0.0 <= float(iou_val) <= 1.0

    def test_max_steps_caps_work(self):
        params, dataset, cfg = tiny_setup(seed=8, epochs=50, batch_size=1)
        result = train_loop(params, dataset, cfg, max_steps=3)
        assert len(result["rows"]) == 3

    def test_non_finite_loss_names_the_step(self):
        params, dataset, cfg = tiny_setup(seed=9, epochs=1, batch_size=2)
        params.encoders[0].conv_in.w.data[:] = np.nan
        with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
            train_loop(params, dataset, cfg, max_steps=1)

    def test_mixed_sizes_cannot_batch(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(10))
        dataset = [tiny_sample(0, size=32), tiny_sample(1, size=48)]
        cfg = TrainConfig(epochs=1, batch_size=2)
        with pytest.raises(ValueError, match="mixed image sizes .*; give every image one size"):
            train_loop(params, dataset, cfg, max_steps=1)

    def test_no_step_graph_outlives_its_step(self, monkeypatch):
        """Each step's graph is freed by reference counting before the next
        forward starts, so its activations and closures never coexist with
        the next step's."""
        params, dataset, cfg = tiny_setup(seed=12, n=4, epochs=2, batch_size=2)
        refs, alive = [], []

        def recording_forward(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            out = forward(*args, **kwargs)
            refs.append(weakref.ref(out.fused.data))
            return out

        monkeypatch.setattr("nuseg.train.forward", recording_forward)
        gc.disable()
        try:
            train_loop(params, dataset, cfg)
        finally:
            gc.enable()
        assert alive == [0, 0, 0, 0]

    @pytest.mark.parametrize("arg", ["ckpt_every", "max_steps"])
    def test_negative_counts_rejected(self, tmp_path, arg):
        params, dataset, cfg = tiny_setup(seed=7, epochs=2, batch_size=2)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=f"{arg} must be >= 0, got -1"):
            train_loop(params, dataset, cfg, ckpt_path=path, **{arg: -1})
        assert not path.exists()

    @pytest.mark.parametrize("arg", ["ckpt_path", "curve_path"])
    def test_missing_output_directory_rejected_before_step_0(self, tmp_path, monkeypatch,
                                                              arg):
        params, dataset, cfg = tiny_setup(seed=8, epochs=1, batch_size=2)
        monkeypatch.setattr("nuseg.train.forward",
                            lambda *args, **kwargs: pytest.fail("a training step ran"))
        missing = tmp_path / "nodir"
        with pytest.raises(ValueError, match=re.escape(f"output directory '{missing}'")):
            train_loop(params, dataset, cfg, **{arg: missing / "out.file"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arg", ["ckpt_path", "curve_path"])
    def test_output_path_that_is_a_directory_rejected_before_step_0(self, tmp_path,
                                                                    monkeypatch, arg):
        params, dataset, cfg = tiny_setup(seed=8, epochs=1, batch_size=2)
        monkeypatch.setattr("nuseg.train.forward",
                            lambda *args, **kwargs: pytest.fail("a training step ran"))
        folder = tmp_path / "m.ckpt"
        folder.mkdir()
        with pytest.raises(ValueError, match=re.escape(f"{arg} '{folder}' is a directory")):
            train_loop(params, dataset, cfg, **{arg: folder})
        assert list(tmp_path.iterdir()) == [folder]
        assert list(folder.iterdir()) == []

    def test_empty_dataset_rejected(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(11))
        with pytest.raises(ValueError, match="empty"):
            train_loop(params, [], TrainConfig())

    def test_checkpoint_written_at_end(self, tmp_path):
        params, dataset, cfg = tiny_setup(seed=12, epochs=1, batch_size=2)
        path = tmp_path / "model.ckpt"
        train_loop(params, dataset, cfg, ckpt_path=path, max_steps=1)
        assert path.exists()
        restored, info = open_checkpoint(path)
        assert info["step"] == 1
        np.testing.assert_array_equal(restored.fuse.w.data, params.fuse.w.data)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        params, dataset, cfg = tiny_setup(seed=13, epochs=1, batch_size=2)
        result = train_loop(params, dataset, cfg, max_steps=2)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, state=result["state"], step=2, train_cfg=cfg)
        fresh = ModelParams(ModelConfig(preset="tiny"), Prng(99))
        info = load_checkpoint(p1, fresh)
        save_checkpoint(p2, fresh, state=info["state"], step=info["step"],
                        train_cfg=info["train_cfg"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_restores_all_tensors_in_place(self, tmp_path):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(14))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, step=7)
        fresh = ModelParams(ModelConfig(preset="tiny"), Prng(15))
        info = load_checkpoint(path, fresh)
        assert info["step"] == 7 and info["state"] is None
        for key, t in params.named().items():
            np.testing.assert_array_equal(fresh.named()[key].data, t.data,
                                          err_msg=key)

    def test_config_mismatch_is_rejected(self, tmp_path):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(16))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        other = ModelParams(ModelConfig(preset="tiny", ica_enabled=False), Prng(16))
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(path, other)

    def test_missing_tensor_is_named(self, tmp_path):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(17))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        entries = tio.load_entries(path)
        del entries["fuse.b"]
        tio.save_entries(path, entries)
        with pytest.raises(ValueError, match="missing tensor 'fuse.b'"):
            load_checkpoint(path, ModelParams(ModelConfig(preset="tiny"), Prng(0)))

    def test_shape_mismatch_is_named(self, tmp_path):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(18))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        entries = tio.load_entries(path)
        entries["fuse.w"] = np.zeros((2, 3, 1, 1), dtype=np.float32)
        tio.save_entries(path, entries)
        with pytest.raises(ValueError, match="'fuse.w' has shape"):
            load_checkpoint(path, ModelParams(ModelConfig(preset="tiny"), Prng(0)))

    def test_unknown_extra_tensor_is_rejected(self, tmp_path):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(19))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        entries = tio.load_entries(path)
        entries["mystery"] = np.zeros(3, dtype=np.float32)
        tio.save_entries(path, entries)
        with pytest.raises(ValueError, match="unknown tensors.*mystery"):
            load_checkpoint(path, ModelParams(ModelConfig(preset="tiny"), Prng(0)))

    def test_stale_bias_entries_are_rejected(self, tmp_path):
        """A checkpoint of the older layout, which kept a bias in every
        ConvBnRelu and in both ICA excitation matrices, does not load."""
        params = ModelParams(ModelConfig(preset="tiny"), Prng(22))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        entries = tio.load_entries(path)
        stale = {}
        for name, arr in entries.items():
            unit, _, stat = name.rpartition(".")
            if stat != "g":
                continue
            if unit.endswith(".bn") and not unit.endswith(".c1.bn"):
                stale[unit[:-len(".bn")] + ".b"] = np.zeros_like(arr)
            elif unit.endswith((".bn1", ".bn2")):
                stale[unit[:-len(".bn1")] + ".b" + unit[-1]] = np.zeros_like(arr)
        assert len(stale) == 38 and "en1.cin.b" in stale and "ica2.b1" in stale
        entries.update(stale)
        tio.save_entries(path, entries)
        want = f"checkpoint holds unknown tensors: {sorted(stale)}"
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path, ModelParams(ModelConfig(preset="tiny"), Prng(0)))
        assert str(exc.value) == want
        with pytest.raises(ValueError) as exc:
            open_checkpoint(path)
        assert str(exc.value) == want

    def test_open_checkpoint_rebuilds_the_stored_architecture(self, tmp_path):
        cfg = ModelConfig(preset="small", ica_enabled=False)
        params = ModelParams(cfg, Prng(20))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, step=3)
        restored, info = open_checkpoint(path)
        assert restored.cfg.preset == "small"
        assert restored.cfg.ica_enabled is False
        assert info["step"] == 3
        np.testing.assert_array_equal(restored.fuse.w.data, params.fuse.w.data)

    def test_open_checkpoint_reads_the_file_once(self, tmp_path, monkeypatch):
        params, dataset, cfg = tiny_setup(seed=25, epochs=1, batch_size=2)
        state = train_loop(params, dataset, cfg, max_steps=1)["state"]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, state=state, step=1, train_cfg=cfg)
        calls = []
        real_load = tio.load_entries

        def counting_load(p):
            calls.append(p)
            return real_load(p)

        monkeypatch.setattr(tio, "load_entries", counting_load)
        restored, info = open_checkpoint(path)
        assert calls == [path]
        assert info["step"] == 1 and info["train_cfg"] == cfg
        assert info["state"].t == 1
        np.testing.assert_array_equal(info["state"].m[0], state.m[0])

    def test_open_checkpoint_draws_no_init(self, tmp_path, monkeypatch):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(26))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)

        def no_draws(self, shape, std=1.0):
            raise AssertionError(f"Prng.normal called for shape {shape}")

        monkeypatch.setattr(Prng, "normal", no_draws)
        restored, _ = open_checkpoint(path)
        for key, t in params.named().items():
            np.testing.assert_array_equal(restored.named()[key].data, t.data, err_msg=key)
            assert restored.named()[key].requires_grad == t.requires_grad, key

    def _adam_checkpoint(self, tmp_path, seed):
        params, dataset, cfg = tiny_setup(seed=seed, epochs=1, batch_size=2)
        state = train_loop(params, dataset, cfg, max_steps=1)["state"]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, state=state, step=1, train_cfg=cfg)
        return path, tio.load_entries(path)

    def _assert_both_loads_fail(self, path, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path, ModelParams(ModelConfig(preset="tiny"), Prng(0)))
        with pytest.raises(ValueError, match=re.escape(message)):
            open_checkpoint(path)

    @pytest.mark.parametrize("breakage", ["missing fuse.b", "adam.t without moments"])
    def test_failed_load_leaves_the_model_untouched(self, tmp_path, breakage):
        """Every entry is checked before any is copied, so an error raised by
        a late entry comes before the early tensors are overwritten."""
        params = ModelParams(ModelConfig(preset="tiny"), Prng(31))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        entries = tio.load_entries(path)
        if breakage == "missing fuse.b":
            del entries["fuse.b"]
        else:
            entries["adam.t"] = np.asarray(1.0, dtype=np.float32)
        tio.save_entries(path, entries)
        target = ModelParams(ModelConfig(preset="tiny"), Prng(32))
        before = {key: t.data.copy() for key, t in target.named().items()}
        with pytest.raises(ValueError, match="checkpoint missing tensor"):
            load_checkpoint(path, target)
        for key, t in target.named().items():
            np.testing.assert_array_equal(t.data, before[key], err_msg=key)

    def test_missing_adam_moment_is_named(self, tmp_path):
        path, entries = self._adam_checkpoint(tmp_path, seed=29)
        del entries["adam.ica2.w1.m"]
        tio.save_entries(path, entries)
        self._assert_both_loads_fail(path, "checkpoint missing tensor 'adam.ica2.w1.m'")

    def test_misshapen_adam_moment_is_named(self, tmp_path):
        path, entries = self._adam_checkpoint(tmp_path, seed=30)
        entries["adam.en2.bt.w.v"] = np.zeros(3, dtype=np.float32)
        tio.save_entries(path, entries)
        self._assert_both_loads_fail(path, "checkpoint tensor 'adam.en2.bt.w.v' has shape (3,)")

    @pytest.mark.parametrize("key", ["meta.step", "adam.t"])
    def test_non_scalar_counter_is_named(self, tmp_path, key):
        params, dataset, cfg = tiny_setup(seed=27, epochs=1, batch_size=2)
        state = train_loop(params, dataset, cfg, max_steps=1)["state"]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, state=state, step=1, train_cfg=cfg)
        entries = tio.load_entries(path)
        entries[key] = np.ones(2, dtype=np.float32)
        tio.save_entries(path, entries)
        with pytest.raises(ValueError, match=f"'{key}' must be a scalar"):
            open_checkpoint(path)


class TestEvaluationHarness:
    def test_evaluate_dataset_shapes_and_ranges(self):
        params, dataset, cfg = tiny_setup(seed=21)
        scores = evaluate_dataset(params, dataset)
        assert set(scores) == {"iou", "niou", "per_sample", "scores", "gts", "report"}
        assert 0.0 <= scores["iou"] <= 1.0
        assert 0.0 <= scores["niou"] <= 1.0
        assert len(scores["per_sample"]) == 2
        assert scores["scores"][0].shape == (32, 32)

    def test_report_is_the_metrics_report_of_the_scores(self):
        params, dataset, cfg = tiny_setup(seed=24)
        result = evaluate_dataset(params, dataset, 0.4, n_thresholds=5,
                                  fpr_mode="paper_literal")
        want = compute_report(result["scores"], result["gts"], thr=0.4,
                              n_thresholds=5, fpr_mode="paper_literal")
        got = result["report"]
        assert (got.iou, got.niou, got.per_sample_iou) == (want.iou, want.niou,
                                                           want.per_sample_iou)
        assert (result["iou"], result["niou"]) == (got.iou, got.niou)
        assert result["per_sample"] == got.per_sample_iou
        assert got.roc.fpr_mode == "paper_literal"
        np.testing.assert_array_equal(got.roc.fpr, want.roc.fpr)
        np.testing.assert_array_equal(got.roc.tpr, want.roc.tpr)
        assert evaluate_dataset(params, dataset)["report"].roc is None

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_thresholds": 5, "fpr_mode": "bogus"}, "fpr_mode must be one of .* got 'bogus'"),
        ({"n_thresholds": -4}, "n_thresholds must be >= 0, got -4"),
    ], ids=["fpr_mode", "n_thresholds"])
    def test_bad_roc_arguments_rejected_before_inference(self, monkeypatch, kwargs, message):
        params, dataset, cfg = tiny_setup(seed=25)
        calls = []
        monkeypatch.setattr("nuseg.train.infer", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=message):
            evaluate_dataset(params, dataset, **kwargs)
        assert calls == []

    def test_evaluate_empty_dataset_rejected(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(22))
        with pytest.raises(ValueError, match="empty"):
            evaluate_dataset(params, [])

    def test_ablation_emits_both_rows(self, tmp_path):
        dataset = [tiny_sample(200 + i) for i in range(2)]
        cfg = TrainConfig(seed=23, epochs=1, batch_size=2)
        path = tmp_path / "ablation.csv"
        rows = run_ablation(dataset, cfg, out_path=path, max_steps=1)
        assert [r[0] for r in rows] == ["ica_on", "ica_off"]
        lines = path.read_text().splitlines()
        assert lines[0] == "config,iou,niou"
        assert len(lines) == 3
        assert lines[1].startswith("ica_on,")
        assert lines[2].startswith("ica_off,")


class TestCurveWriter:
    def test_floats_survive_repr_round_trip(self, tmp_path):
        rows = [(0, 0.6931471824645996, 0.0), (1, 1 / 3, 0.1234567890123)]
        path = tmp_path / "c.csv"
        write_curve(rows, path)
        lines = path.read_text().splitlines()
        for (step, lv, iv), line in zip(rows, lines[1:]):
            s, l, i = line.split(",")
            assert (int(s), float(l), float(i)) == (step, lv, iv)
