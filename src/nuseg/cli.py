"""Command-line entry point.

Subcommands: gen-data, train, infer, eval, roc, report. Every command is
deterministic given its flags and input files; seeds are the only entropy
source. Exit codes: 0 success, 1 runtime failure, 2 usage error (including
a named config file that does not exist). Summary output goes to stdout as
stable `key=value` lines.
"""

import argparse
import os
import sys

from .data import (DatasetTemplate, _model_input, gen_dataset, load_dataset, load_pgm,
                   save_pgm)
from .io import _check_output_paths, save_tensor
from .metrics import FPR_MODES, write_report_csv, write_roc_csv, write_roc_svg
from .model import ModelParams, infer, parse_model_config
from .prng import Prng
from .tensor import Tensor
from .train import (TrainConfig, evaluate_dataset, open_checkpoint,
                    parse_train_config, train_loop)

__all__ = ["main"]


class UsageError(Exception):
    """Operator mistake (bad flag value, missing config file): exit code 2."""


def _read_config(path, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} file not found: {path}")
    with open(path) as fh:
        return fh.read()


def _roc_thresholds(n: int) -> int:
    # checked here, since evaluate_dataset reads 0 as "no ROC"
    if n < 1:
        raise ValueError(f"n_thresholds must be >= 1, got {n}")
    return n


def cmd_gen_data(args) -> int:
    template = DatasetTemplate(width=args.size, height=args.size,
                               max_targets=args.max_targets)
    gen_dataset(args.out, args.n, template, args.seed)
    print(f"out={args.out}")
    print(f"n={args.n}")
    print(f"size={args.size}")
    print(f"seed={args.seed}")
    return 0


def cmd_train(args) -> int:
    model_cfg = (parse_model_config(_read_config(args.model_cfg, "model config"))
                 if args.model_cfg else parse_model_config(""))
    train_cfg = (parse_train_config(_read_config(args.train_cfg, "train config"))
                 if args.train_cfg else TrainConfig())
    dataset = load_dataset(args.data)
    params = ModelParams(model_cfg, Prng(train_cfg.seed))
    curve = args.curve or args.out + ".curve.csv"
    result = train_loop(params, dataset, train_cfg, ckpt_path=args.out,
                        curve_path=curve, ckpt_every=args.ckpt_every)
    rows = result["rows"]
    print(f"steps={len(rows)}")
    if rows:
        print(f"final_loss={rows[-1][1]!r}")
        print(f"final_iou={rows[-1][2]!r}")
    print(f"ckpt={args.out}")
    print(f"curve={curve}")
    return 0


def cmd_infer(args) -> int:
    pgm_path = args.out + ".pgm"
    _check_output_paths(out=args.out, pgm=pgm_path)
    params, _ = open_checkpoint(args.ckpt)
    prob = infer(params, Tensor(_model_input(load_pgm(args.image))))
    save_tensor(args.out, prob.data)
    save_pgm(pgm_path, prob.data[0, 0])
    print(f"out={args.out}")
    print(f"pgm={pgm_path}")
    print(f"min={float(prob.data.min())!r}")
    print(f"max={float(prob.data.max())!r}")
    return 0


def cmd_eval(args) -> int:
    _check_output_paths(out=args.out)
    params, _ = open_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    result = evaluate_dataset(params, dataset, args.thr)
    if args.out:
        write_report_csv(result["report"], args.out)
        print(f"report={args.out}")
    print(f"n={len(dataset)}")
    print(f"thr={args.thr!r}")
    print(f"iou={result['iou']!r}")
    print(f"niou={result['niou']!r}")
    return 0


def cmd_roc(args) -> int:
    _check_output_paths(out=args.out, svg=args.svg)
    params, _ = open_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    curve = evaluate_dataset(params, dataset, n_thresholds=_roc_thresholds(args.n_thr),
                             fpr_mode=args.fpr_mode)["report"].roc
    write_roc_csv(curve, args.out)
    print(f"roc={args.out}")
    if args.svg:
        write_roc_svg(curve, args.svg)
        print(f"svg={args.svg}")
    print(f"n_thresholds={curve.thresholds.size}")
    print(f"fpr_mode={curve.fpr_mode}")
    print(f"auc={curve.auc!r}")
    return 0


def _check_out_dir(path) -> None:
    """Refuse a directory that os.makedirs could not make: the nearest of
    `path` and its ancestors that exists must be a directory."""
    existing = os.path.normpath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
        if not existing:
            return  # a relative path below the working directory
    if os.path.isdir(existing):
        return
    if existing == os.path.normpath(path):
        raise ValueError(f"out_dir {path!r} is not a directory")
    raise ValueError(f"out_dir {path!r} cannot be made: {existing!r} is not a directory")


def cmd_report(args) -> int:
    # made only after the evaluation, so that a failed run leaves no directory
    _check_out_dir(args.out_dir)
    params, _ = open_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    report = evaluate_dataset(params, dataset, args.thr,
                              n_thresholds=_roc_thresholds(args.n_thr),
                              fpr_mode=args.fpr_mode)["report"]
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.csv")
    roc_path = os.path.join(args.out_dir, "roc.csv")
    svg_path = os.path.join(args.out_dir, "roc.svg")
    write_report_csv(report, report_path)
    write_roc_csv(report.roc, roc_path)
    write_roc_svg(report.roc, svg_path)
    print(f"report={report_path}")
    print(f"roc={roc_path}")
    print(f"svg={svg_path}")
    print(f"iou={report.iou!r}")
    print(f"niou={report.niou!r}")
    print(f"auc={report.roc.auc!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuseg",
        description="Small-object segmentation: data generation, training, "
                    "inference, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen-data", formatter_class=fmt,
                       help="write a synthetic dataset of image/mask PGM pairs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=8, help="number of samples")
    p.add_argument("--size", type=int, default=64, help="square image size in px")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    p.add_argument("--max-targets", type=int, default=2, help="targets per scene cap")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model-cfg", default=None, help="model config file (default: tiny preset)")
    p.add_argument("--train-cfg", default=None, help="train config file (default settings)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--curve", default=None, help="loss curve CSV path (default: <out>.curve.csv)")
    p.add_argument("--ckpt-every", type=int, default=0,
                   help="also checkpoint every N epochs (0 = only at end)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", formatter_class=fmt,
                       help="run a checkpoint on one image")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--image", required=True, help="input PGM image")
    p.add_argument("--out", required=True, help="probability map output (tensor file)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="fixed-threshold IoU/nIoU over a dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--thr", type=float, default=0.5, help="binarization threshold")
    p.add_argument("--out", default=None, help="also write metric,value CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roc", formatter_class=fmt,
                       help="threshold sweep over a dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--n-thr", type=int, default=33, help="number of thresholds")
    p.add_argument("--fpr-mode", choices=FPR_MODES,
                   default="standard", help="false-positive-rate definition")
    p.add_argument("--out", default="roc.csv", help="thr,fpr,tpr CSV path")
    p.add_argument("--svg", default=None, help="also write an SVG plot here")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("report", formatter_class=fmt,
                       help="full evaluation: report.csv + roc.csv + roc.svg")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--thr", type=float, default=0.5, help="binarization threshold")
    p.add_argument("--n-thr", type=int, default=33, help="number of ROC thresholds")
    p.add_argument("--fpr-mode", choices=FPR_MODES,
                   default="standard", help="false-positive-rate definition")
    p.add_argument("--out-dir", required=True, help="directory for the three files")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
