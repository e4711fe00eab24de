"""The settable surface of nuseg, pinned as a literal.

SURFACE lists the parameters of every public function, class (dataclass
fields included) and public method in each nuseg module, and the options
of every `nuseg` subcommand. Adding, renaming or removing a setting fails
this test until SURFACE is edited in the same change, so every new setting
shows up in review next to the callers that need it.
"""

import argparse
import inspect

from nuseg import cli, data, ica, io, layers, metrics, model, prng, rsu, tensor, train

MODULES = (cli, data, ica, io, layers, metrics, model, prng, rsu, tensor, train)

SURFACE = {
    "cli.cmd_gen_data": ("args",),
    "cli.cmd_train": ("args",),
    "cli.cmd_infer": ("args",),
    "cli.cmd_eval": ("args",),
    "cli.cmd_roc": ("args",),
    "cli.cmd_report": ("args",),
    "cli.build_parser": (),
    "cli.main": ("argv",),
    "data.Background": ("kind", "level", "cutoff", "gain", "angle"),
    "data.TargetSpec": ("cx", "cy", "sigma", "amplitude"),
    "data.SceneSpec": ("width", "height", "background", "targets", "noise_std", "seed"),
    "data.Sample": ("image", "mask", "spec", "name"),
    "data.gen_scene": ("spec",),
    "data.DatasetTemplate": ("width", "height", "max_targets"),
    "data.gen_dataset": ("out_dir", "n", "template", "seed"),
    "data.save_pgm": ("path", "arr"),
    "data.load_pgm": ("path",),
    "data.load_dataset": ("dir_path",),
    "ica.IcaParams": ("prng", "channels"),
    "ica.IcaParams.named": ("prefix",),
    "ica.IcaOutput": ("f_ca", "f_ica", "fused"),
    "ica.channel_gate": ("f_h", "params", "training"),
    "ica.channel_attention": ("f_h", "f_l", "params", "training"),
    "ica.spatial_gate": ("f_ca", "params", "gate_kind", "training"),
    "ica.spatial_attention": ("f_ca", "f_h", "params", "gate_kind", "training"),
    "ica.ica_forward": ("f_h_raw", "f_l", "params", "gate_kind", "training"),
    "io.tensor_to_bytes": ("arr",),
    "io.tensor_from_bytes": ("buf", "offset"),
    "io.save_tensor": ("path", "arr"),
    "io.load_tensor": ("path",),
    "io.save_entries": ("path", "entries"),
    "io.load_entries": ("path",),
    "layers.zeros_param": ("shape",),
    "layers.Params": (),
    "layers.Params.named": ("prefix",),
    "layers.Params.trainables": (),
    "layers.BnParams": ("channels",),
    "layers.BnParams.apply": ("x", "training"),
    "layers.BnParams.named": ("prefix",),
    "layers.ConvBnRelu": ("prng", "cin", "cout", "dilation"),
    "layers.ConvBnRelu.apply": ("x", "training"),
    "layers.ConvBnRelu.named": ("prefix",),
    "layers.Conv": ("prng", "cin", "cout", "k"),
    "layers.Conv.apply": ("x",),
    "layers.Conv.named": ("prefix",),
    "metrics.ConfusionCounts": ("tp", "fp", "fn", "tn"),
    "metrics.RocCurve": ("thresholds", "fpr", "tpr", "auc", "fpr_mode"),
    "metrics.MetricsReport": (
        "iou", "niou", "per_sample_iou", "n_samples", "objects_per_sample", "roc"),
    "metrics.binarize": ("scores", "thr"),
    "metrics.confusion": ("pred", "gt"),
    "metrics.iou_dataset": ("preds", "gts"),
    "metrics.per_sample_iou": ("pred", "gt"),
    "metrics.niou": ("preds", "gts"),
    "metrics.roc": ("scores", "gts", "n_thresholds", "fpr_mode"),
    "metrics.connected_components": ("mask",),
    "metrics.compute_report": ("scores", "gts", "thr", "n_thresholds", "fpr_mode"),
    "metrics.write_report_csv": ("report", "path"),
    "metrics.write_roc_csv": ("curve", "path"),
    "metrics.write_roc_svg": ("curve", "path"),
    "model.ModelConfig": ("preset", "stages", "mid_overrides", "ica_enabled", "gate_kind"),
    "model.ModelConfig.required_divisor": (),
    "model.parse_model_config": ("text",),
    "model.render_model_config": ("cfg",),
    "model.SideOutputs": ("d", "fused"),
    "model.SideOutputs.probability_maps": (),
    "model.ModelParams": ("cfg", "prng"),
    "model.ModelParams.named": ("prefix",),
    "model.forward_features": ("params", "x", "training"),
    "model.forward": ("params", "x", "training"),
    "model.infer": ("params", "image"),
    "model.count_params": ("params",),
    "model.count_flops": ("cfg", "h", "w"),
    "prng.mix64": ("z",),
    "prng.Prng": ("seed",),
    "prng.Prng.next_u64": (),
    "prng.Prng.next_u64_array": ("n",),
    "prng.Prng.next_f32": (),
    "prng.Prng.uniform_array": ("n",),
    "prng.Prng.normal": ("shape", "std"),
    "prng.Prng.shuffle": ("items",),
    "rsu.RsuSpec": ("depth", "in_ch", "mid_ch", "out_ch", "mode"),
    "rsu.dilation_schedule": ("spec",),
    "rsu.RsuParams": ("spec", "prng"),
    "rsu.RsuParams.dec_top": (),
    "rsu.RsuParams.named": ("prefix",),
    "rsu.rsu_forward": ("params", "x", "training"),
    "rsu.conv_receptive_field": ("k", "dilation"),
    "rsu.rsu_receptive_field": ("spec",),
    "tensor.Tensor": ("data", "requires_grad"),
    "tensor.Tensor.zero_grad": (),
    "tensor.Tensor.accum_grad": ("g",),
    "tensor.Tensor.grad_or_zeros": (),
    "tensor.OpRecord": ("name", "inputs", "output"),
    "tensor.Tape": (),
    "tensor.Tape.names": (),
    "tensor.backward": ("loss",),
    "tensor.zero_grads": ("tensors",),
    "tensor.conv2d": ("x", "w", "b", "stride", "pad", "dilation"),
    "tensor.max_pool2d": ("x",),
    "tensor.upsample_bilinear": ("x", "out_h", "out_w"),
    "tensor.batch_norm": ("x", "gamma", "beta", "running_mean", "running_var", "training"),
    "tensor.activation": ("x", "kind"),
    "tensor.relu": ("x",),
    "tensor.sigmoid": ("x",),
    "tensor.global_avg_pool": ("x",),
    "tensor.channel_pool": ("x", "mode"),
    "tensor.mul_broadcast": ("x", "a"),
    "tensor.concat_channels": ("xs",),
    "tensor.linear": ("x", "w", "b"),
    "tensor.bce_loss": ("pred", "target"),
    "tensor.add": ("x", "y"),
    "tensor.scale": ("x", "s"),
    "tensor.sum_all": ("x",),
    "tensor.grad_check": ("build_fn", "leaves", "eps", "promote"),
    "train.TrainConfig": (
        "lr", "beta1", "beta2", "eps_adam", "batch_size", "epochs", "seed", "threshold",
        "loss_weights"),
    "train.parse_train_config": ("text",),
    "train.render_train_config": ("cfg",),
    "train.total_loss": ("outputs", "target", "weights"),
    "train.AdamState": ("params",),
    "train.adam_step": ("state", "cfg"),
    "train.train_loop": (
        "params", "dataset", "cfg", "ckpt_path", "curve_path", "ckpt_every", "max_steps"),
    "train.write_curve": ("rows", "path"),
    "train.save_checkpoint": ("path", "params", "state", "step", "train_cfg"),
    "train.load_checkpoint": ("path", "params"),
    "train.open_checkpoint": ("path",),
    "train.evaluate_dataset": ("params", "dataset", "thr", "n_thresholds", "fpr_mode"),
    "train.run_ablation": ("dataset", "train_cfg", "out_path", "max_steps"),
    "nuseg gen-data": ("--out", "--n", "--size", "--seed", "--max-targets"),
    "nuseg train": ("--data", "--model-cfg", "--train-cfg", "--out", "--curve", "--ckpt-every"),
    "nuseg infer": ("--ckpt", "--image", "--out"),
    "nuseg eval": ("--ckpt", "--data", "--thr", "--out"),
    "nuseg roc": ("--ckpt", "--data", "--n-thr", "--fpr-mode", "--out", "--svg"),
    "nuseg report": ("--ckpt", "--data", "--thr", "--n-thr", "--fpr-mode", "--out-dir"),
}


def _params(fn) -> tuple:
    return tuple(p for p in inspect.signature(fn).parameters if p != "self")


def settable_surface() -> dict:
    surface = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                surface[f"{short}.{name}"] = _params(obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                surface[f"{short}.{name}"] = _params(obj)
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        surface[f"{short}.{name}.{meth}"] = _params(fn)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        surface[f"nuseg {command}"] = tuple(a.option_strings[0] for a in parser._actions
                                            if a.dest != "help")
    return surface


def test_settable_surface_is_pinned():
    assert settable_surface() == SURFACE
