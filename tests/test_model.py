"""Network assembly: config parsing and validation, output shapes across
presets and input sizes, side-output plumbing, attention toggling, and the
parameter / MAC counters.
"""

import numpy as np
import pytest

from nuseg.layers import Conv
from nuseg.model import (CONFIG_KEYS, ModelConfig, ModelParams, count_flops,
                         count_params, forward, forward_features, infer,
                         parse_model_config, render_model_config)
from nuseg.prng import Prng
from nuseg.tensor import Tensor, add, backward, sum_all

from oracles import conv2d_mac_count


def image(seed, n=1, size=32):
    rng = Prng(seed)
    flat = rng.uniform_array(n * 3 * size * size)
    return Tensor(flat.reshape(n, 3, size, size))


class TestConfigValidation:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            ModelConfig(preset="huge")

    def test_unknown_gate_kind(self):
        with pytest.raises(ValueError, match="gate_kind"):
            ModelConfig(gate_kind="softmax")

    def test_full_rejects_stage_override(self):
        with pytest.raises(ValueError, match="fixed stage table"):
            ModelConfig(preset="full", stages=4)

    def test_too_few_stages(self):
        with pytest.raises(ValueError, match="at least 3"):
            ModelConfig(preset="tiny", stages=2)

    def test_mid_override_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ModelConfig(preset="tiny", mid_overrides={4: 8})

    def test_mid_override_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            ModelConfig(preset="tiny", mid_overrides={1: 0})


class TestFamilyStructure:
    def test_tiny_stage_table(self):
        cfg = ModelConfig(preset="tiny")
        assert cfg.stages == 3 and cfg.n_side == 3
        assert cfg.required_divisor() == 4
        assert [s.depth for s in cfg.encoders] == [4, 3, 3]
        assert [s.mode for s in cfg.encoders] == ["pooling", "pooling", "dilated"]
        assert [s.out_ch for s in cfg.encoders] == [8, 16, 16]
        assert cfg.encoders[0].in_ch == 3

    def test_tiny_decoder_widths_mirror_encoders(self):
        cfg = ModelConfig(preset="tiny")
        # deepest first: inputs are upsampled-deeper + doubled skip
        assert [(s.in_ch, s.mid_ch, s.out_ch) for s in cfg.decoders] == \
            [(48, 8, 16), (32, 4, 8)]

    def test_plain_skip_halves_decoder_inputs(self):
        cfg = ModelConfig(preset="tiny", ica_enabled=False)
        assert [s.in_ch for s in cfg.decoders] == [32, 24]

    def test_small_stage_table(self):
        cfg = ModelConfig(preset="small")
        assert cfg.stages == 4
        assert cfg.required_divisor() == 8
        assert [s.depth for s in cfg.encoders] == [5, 4, 3, 3]
        assert [s.out_ch for s in cfg.encoders] == [16, 32, 32, 32]

    def test_full_stage_table(self):
        cfg = ModelConfig(preset="full")
        assert cfg.stages == 6
        assert [s.depth for s in cfg.encoders] == [7, 6, 5, 4, 4, 4]
        assert [s.mode for s in cfg.encoders][-2:] == ["dilated", "dilated"]
        assert cfg.encoders[-1].out_ch == 512
        assert cfg.decoders[-1].out_ch == 64

    def test_mid_override_propagates_to_decoder(self):
        cfg = ModelConfig(preset="tiny", mid_overrides={2: 6})
        assert cfg.encoders[1].mid_ch == 6
        assert cfg.decoders[0].mid_ch == 6

    def test_deepest_mid_override_touches_only_encoder(self):
        base = ModelConfig(preset="tiny")
        cfg = ModelConfig(preset="tiny", mid_overrides={3: 6})
        assert cfg.encoders[2].mid_ch == 6
        assert [s.mid_ch for s in cfg.decoders] == \
            [s.mid_ch for s in base.decoders]


class TestConfigText:
    def test_empty_text_is_default(self):
        cfg = parse_model_config("")
        assert cfg.preset == "tiny" and cfg.ica_enabled is True
        assert cfg.gate_kind == "sigmoid"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_model_config("# header\n\npreset = small  # trailing\n")
        assert cfg.preset == "small"

    def test_round_trip(self):
        cfg = ModelConfig(preset="small", stages=5, ica_enabled=False,
                          gate_kind="relu", mid_overrides={2: 12})
        again = parse_model_config(render_model_config(cfg))
        assert render_model_config(again) == render_model_config(cfg)
        assert again.stages == 5 and again.mid_overrides == {2: 12}

    def test_full_render_omits_stages(self):
        text = render_model_config(ModelConfig(preset="full"))
        assert "stages" not in text
        assert parse_model_config(text).stages == 6

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ValueError) as err:
            parse_model_config("depth = 4\n")
        assert "unknown config key" in str(err.value)
        assert CONFIG_KEYS in str(err.value)

    def test_missing_equals_sign(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_model_config("preset small\n")

    def test_bad_int(self):
        with pytest.raises(ValueError, match="expected integer"):
            parse_model_config("stages = four\n")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="true or false"):
            parse_model_config("ica_enabled = yes\n")


class TestForwardShapes:
    @pytest.mark.parametrize("preset,size", [("tiny", 32), ("tiny", 48),
                                             ("small", 32), ("small", 64)])
    def test_all_maps_match_input_resolution(self, preset, size):
        cfg = ModelConfig(preset=preset)
        params = ModelParams(cfg, Prng(0))
        out = forward(params, image(1, n=2, size=size), training=True)
        assert len(out.d) == cfg.n_side
        for t in out.d + [out.fused]:
            assert t.data.shape == (2, 1, size, size)

    def test_encoder_decoder_feature_resolutions(self):
        cfg = ModelConfig(preset="tiny")
        params = ModelParams(cfg, Prng(0))
        feats = forward_features(params, image(2, size=32), training=True)
        assert [f.data.shape[2] for f in feats["enc"]] == [32, 16, 8]
        assert [f.data.shape[2] for f in feats["dec"]] == [16, 32]
        assert [f.data.shape[1] for f in feats["enc"]] == [8, 16, 16]

    def test_indivisible_input_names_required_padding(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(0))
        with pytest.raises(ValueError, match=r"pad by 2 rows and 2 cols"):
            forward(params, Tensor(np.zeros((1, 3, 30, 30), dtype=np.float32)),
                    training=True)

    def test_wrong_channel_count_rejected(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(0))
        with pytest.raises(ValueError, match=r"\[N,3,H,W\]"):
            forward(params, Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)),
                    training=True)

    def test_probability_maps_are_sigmoid_of_logits_fused_last(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(3))
        out = forward(params, image(4), training=True)
        probs = out.probability_maps()
        assert len(probs) == 4
        want = 1.0 / (1.0 + np.exp(-out.fused.data.astype(np.float64)))
        np.testing.assert_allclose(probs[-1].data, want, rtol=1e-6)


class TestZeroedHeads:
    def test_all_probability_maps_exactly_half(self):
        """Zero side heads and fusion make every logit exactly zero, so all
        K+1 probability maps are exactly 0.5 everywhere."""
        params = ModelParams(ModelConfig(preset="tiny"), Prng(5))
        for head in params.heads + [params.fuse]:
            head.w.data[:] = 0.0
            head.b.data[:] = 0.0
        probs = forward(params, image(6), training=True).probability_maps()
        for p in probs:
            np.testing.assert_array_equal(
                p.data, np.full(p.data.shape, 0.5, dtype=np.float32))


class TestAttentionToggle:
    def test_encoder_draws_identical_across_toggle(self):
        """Encoders build first, so disabling attention must not shift their
        init draws."""
        on = ModelParams(ModelConfig(preset="tiny", ica_enabled=True), Prng(7))
        off = ModelParams(ModelConfig(preset="tiny", ica_enabled=False), Prng(7))
        named_on, named_off = on.named(), off.named()
        enc_keys = [k for k in named_on if k.startswith("en")]
        assert enc_keys
        for key in enc_keys:
            np.testing.assert_array_equal(named_on[key].data, named_off[key].data)

    def test_disabled_attention_has_no_gate_params(self):
        off = ModelParams(ModelConfig(preset="tiny", ica_enabled=False), Prng(7))
        assert not any(k.startswith(("ica", "proj")) for k in off.named())
        on = ModelParams(ModelConfig(preset="tiny", ica_enabled=True), Prng(7))
        assert any(k.startswith("ica2.") for k in on.named())
        assert any(k.startswith("proj1.") for k in on.named())

    def test_decoder_outputs_change_with_toggle(self):
        x = image(8)
        on = ModelParams(ModelConfig(preset="tiny", ica_enabled=True), Prng(7))
        off = ModelParams(ModelConfig(preset="tiny", ica_enabled=False), Prng(7))
        a = forward(on, x, training=False).fused.data
        b = forward(off, x, training=False).fused.data
        assert not np.array_equal(a, b)


class TestGradientReach:
    def test_every_trainable_receives_a_gradient_buffer(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(9))
        out = forward(params, image(10), training=True)
        loss = sum_all(out.fused)
        for d in out.d:
            loss = add(loss, sum_all(d))
        backward(loss)
        for t in params.trainables():
            assert t.grad is not None
        # the fusion kernel sits on the only path to the loss
        assert np.any(params.fuse.w.grad != 0.0)
        assert np.any(params.heads[0].w.grad != 0.0)


class TestInfer:
    def test_probabilities_bounded_and_deterministic(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(11))
        x = image(12)
        p1 = infer(params, x).data
        p2 = infer(params, x).data
        np.testing.assert_array_equal(p1, p2)
        assert np.all(p1 >= 0.0) and np.all(p1 <= 1.0)

    def test_builds_no_graph(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(11))
        prob = infer(params, image(12))
        assert prob._parents == () and prob._backward is None
        assert not prob.requires_grad

    def test_parameter_grad_flags_survive_the_call(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(11))
        params.fuse.b.requires_grad = False  # a frozen parameter stays frozen
        before = {k: t.requires_grad for k, t in params.named().items()}
        infer(params, image(12))
        assert {k: t.requires_grad for k, t in params.named().items()} == before
        with pytest.raises(ValueError, match="not divisible"):
            infer(params, Tensor(np.zeros((1, 3, 30, 30), dtype=np.float32)))
        assert {k: t.requires_grad for k, t in params.named().items()} == before
        assert params.fuse.w.requires_grad and not params.fuse.b.requires_grad

    def test_eval_mode_leaves_running_stats_alone(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(13))
        key = "en1.cin.bn.rm"
        before = params.named()[key].data.copy()
        infer(params, image(14))
        np.testing.assert_array_equal(params.named()[key].data, before)

    def test_training_forward_moves_running_stats(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(13))
        key = "en1.cin.bn.rm"
        before = params.named()[key].data.copy()
        forward(params, image(14), training=True)
        assert not np.array_equal(params.named()[key].data, before)


class TestCounters:
    def test_conv_param_example(self):
        conv = Conv(Prng(0), 3, 8, k=3)
        assert sum(t.data.size for t in conv.trainables()) == 8 * 3 * 9 + 8

    def test_count_params_equals_named_trainables(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(15))
        named_total = sum(t.data.size for t in params.named().values()
                          if t.requires_grad)
        assert count_params(params) == named_total

    def test_attention_adds_params(self):
        on = count_params(ModelParams(ModelConfig(preset="tiny"), Prng(0)))
        off = count_params(ModelParams(
            ModelConfig(preset="tiny", ica_enabled=False), Prng(0)))
        assert on > off

    def test_single_conv_macs_match_loop_count(self):
        want = conv2d_mac_count(3, 8, 3, 10, 10, pad=1)
        assert want == 10 * 10 * 8 * 3 * 9 == 21600

    def test_count_flops_requires_divisible_input(self):
        with pytest.raises(ValueError, match="divisible"):
            count_flops(ModelConfig(preset="tiny"), 30, 30)

    def test_count_flops_grows_with_resolution(self):
        cfg = ModelConfig(preset="tiny")
        assert count_flops(cfg, 64, 64) > count_flops(cfg, 32, 32) > 0
