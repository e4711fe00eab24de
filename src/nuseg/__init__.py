"""Nested-U segmentation of infrared small objects.

A self-contained numpy implementation: reverse-mode autodiff over [N,C,H,W]
tensors, residual U-blocks, interactive-cross attention skips, deep
supervision with a fused head, Adam training with binary checkpoints, and
an IoU/nIoU/ROC evaluation suite over synthetic Gaussian-blob scenes.
"""

from .data import (Background, DatasetTemplate, Sample, SceneSpec, TargetSpec,
                   gen_dataset, gen_scene, load_dataset, load_pgm, save_pgm)
from .ica import (IcaOutput, IcaParams, channel_attention, ica_forward,
                  spatial_attention)
from .metrics import (ConfusionCounts, MetricsReport, RocCurve, binarize,
                      compute_report, confusion, connected_components,
                      iou_dataset, niou, roc)
from .model import (ModelConfig, ModelParams, SideOutputs, count_flops,
                    count_params, forward, forward_features, infer,
                    parse_model_config, render_model_config)
from .prng import Prng
from .rsu import (RsuParams, RsuSpec, dilation_schedule, rsu_forward,
                  rsu_receptive_field)
from .tensor import Tape, Tensor, backward, grad_check
from .train import (AdamState, TrainConfig, adam_step, evaluate_dataset,
                    load_checkpoint, open_checkpoint, parse_train_config,
                    render_train_config, run_ablation, save_checkpoint,
                    total_loss, train_loop)

__version__ = "0.1.0"
