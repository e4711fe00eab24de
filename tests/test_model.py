"""Network assembly: config parsing and validation, output shapes across
presets and input sizes, side-output plumbing, attention toggling, and the
parameter / MAC counters.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuseg.ica import GATE_KINDS
from nuseg.layers import Conv
from nuseg.model import (CONFIG_KEYS, PRESETS, ModelConfig, ModelParams, count_flops,
                         count_params, forward, forward_features, infer,
                         parse_model_config, render_model_config)
from nuseg.prng import Prng
from nuseg.tensor import Tape, Tensor, add, backward, sum_all
from nuseg.train import total_loss

from oracles import conv2d_mac_count


README = Path(__file__).resolve().parents[1] / "README.md"


@st.composite
def model_configs(draw):
    """Any valid ModelConfig: every constructor argument is drawn."""
    preset = draw(st.sampled_from(PRESETS))
    stages = None if preset == "full" else draw(st.none() | st.integers(3, 7))
    n_stages = ModelConfig(preset=preset, stages=stages).stages
    mids = draw(st.dictionaries(st.integers(1, n_stages), st.integers(1, 64), max_size=3))
    return ModelConfig(preset=preset, stages=stages, mid_overrides=mids,
                       ica_enabled=draw(st.booleans()),
                       gate_kind=draw(st.sampled_from(GATE_KINDS)))


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

    @given(model_configs())
    @example(ModelConfig(preset="small", stages=5, ica_enabled=False,
                         gate_kind="relu", mid_overrides={2: 12}))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, cfg):
        text = render_model_config(cfg)
        again = parse_model_config(text)
        assert render_model_config(again) == text
        assert vars(again) == vars(cfg)

    def test_rendered_text_is_pinned(self):
        """Checkpoints store this text, so its bytes are part of the format."""
        assert render_model_config(ModelConfig(preset="tiny")) == (
            "preset = tiny\nstages = 3\nica_enabled = true\ngate_kind = sigmoid\n")
        assert render_model_config(ModelConfig(preset="small")) == (
            "preset = small\nstages = 4\nica_enabled = true\ngate_kind = sigmoid\n")
        assert render_model_config(ModelConfig(preset="full")) == (
            "preset = full\nica_enabled = true\ngate_kind = sigmoid\n")

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

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"'preset' set twice, on lines 1 and 3"):
            parse_model_config("preset = tiny\nstages = 3\npreset = small\n")

    def test_indexed_keys_are_distinct(self):
        cfg = parse_model_config("mid_ch.2 = 6\nmid_ch.3 = 7\n")
        assert cfg.mid_overrides == {2: 6, 3: 7}
        with pytest.raises(ValueError, match="'mid_ch.2' set twice"):
            parse_model_config("mid_ch.2 = 6\nmid_ch.2 = 7\n")


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

    def test_training_step_at_batch_4_reaches_every_trainable(self):
        """One training-mode forward and backward of the tiny preset at batch
        4 gives every trainable a non-zero gradient: none is a bias that a
        batch norm cancels."""
        params = ModelParams(ModelConfig(preset="tiny"), Prng(13))
        out = forward(params, image(14, n=4), training=True)
        mask = np.zeros((4, 1, 32, 32), dtype=np.float32)
        mask[:, :, 10:14, 18:21] = 1.0
        backward(total_loss(out, Tensor(mask), [1.0] * (params.cfg.n_side + 1)))
        names = {id(t): name for name, t in params.named().items()}
        dead = [names[id(t)] for t in params.trainables()
                if t.grad is None or not np.any(t.grad != 0.0)]
        assert dead == []
        assert len(params.trainables()) == 136


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

    def test_small_at_128px_frees_each_map_after_its_last_reader(self):
        """A pass that builds no graph drops each decoder input's parts once
        the concat exists, each block's input once its first conv has run,
        and each block's encoder levels once their decoder has read them:
        one `small` infer at 128 px then peaks at about 13.5 MiB of traced
        allocations, where holding them to the end of the block took 18.8."""
        params = ModelParams(ModelConfig(preset="small"), Prng(7))
        x = image(5, size=128)
        infer(params, x)  # fills the interpolation-matrix cache
        tracemalloc.start()
        try:
            infer(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"

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


class TestParamTree:
    @pytest.mark.parametrize("preset,ica_enabled,count", [
        ("tiny", True, 136), ("tiny", False, 110), ("small", True, 211), ("small", False, 172)])
    def test_trainables_are_the_grad_tensors_of_named(self, preset, ica_enabled, count):
        params = ModelParams(ModelConfig(preset=preset, ica_enabled=ica_enabled), None)
        named = params.named()
        got = params.trainables()
        assert len(got) == count
        assert [id(t) for t in got] == [id(t) for t in named.values() if t.requires_grad]
        frozen = {key.rpartition(".")[2] for key, t in named.items() if not t.requires_grad}
        assert frozen == {"rm", "rv"}  # only the BN running buffers


class TestCounters:
    def test_conv_param_example(self):
        conv = Conv(Prng(0), 3, 8, k=3)
        assert sum(t.data.size for t in conv.trainables()) == 8 * 3 * 9 + 8

    def test_count_params_equals_named_trainables(self):
        params = ModelParams(ModelConfig(preset="tiny"), Prng(15))
        named_total = sum(t.data.size for t in params.named().values()
                          if t.requires_grad)
        assert count_params(params) == named_total

    @pytest.mark.parametrize("preset,stages,n_params", [
        ("tiny", 3, 35_581), ("small", 4, 242_914), ("full", 6, 49_013_932)])
    def test_readme_presets_row_matches_the_model(self, preset, stages, n_params):
        """The README's presets table states each preset's stages and
        parameter count; this keeps that row in step with the code."""
        assert f"| `{preset}` | {stages} | {n_params:,} |" in README.read_text()
        params = ModelParams(ModelConfig(preset=preset), None)
        assert params.cfg.stages == stages
        assert count_params(params) == n_params

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

    @pytest.mark.parametrize("preset,ica_enabled,size", [
        ("tiny", True, 32), ("tiny", False, 32), ("small", True, 64), ("full", True, 32)])
    def test_macs_on_the_tape_equal_count_flops(self, preset, ica_enabled, size):
        """One eval-mode forward: n*cout*ho*wo*cin*kh*kw summed over its
        conv2d records plus n*cout*cin over its linear records."""
        cfg = ModelConfig(preset=preset, ica_enabled=ica_enabled)
        params = ModelParams(cfg, None)
        with Tape() as tape:
            forward(params, Tensor(np.zeros((1, 3, size, size), np.float32)), training=False)
        macs = 0
        for rec in tape.ops:
            if rec.name == "conv2d":
                n, cout, ho, wo = rec.output.data.shape
                _, cin, kh, kw = rec.inputs[1].data.shape
                macs += n * cout * ho * wo * cin * kh * kw
            elif rec.name == "linear":
                cout, cin = rec.inputs[1].data.shape
                macs += rec.output.data.shape[0] * cout * cin
        assert "linear" in tape.names() or not ica_enabled
        assert macs == count_flops(cfg, size, size)

    def test_count_flops_grows_with_resolution(self):
        cfg = ModelConfig(preset="tiny")
        assert count_flops(cfg, 64, 64) > count_flops(cfg, 32, 32) > 0
