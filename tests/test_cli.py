"""End-to-end command-line checks, run in process through main(argv).

A small dataset and one short training run are shared module-wide; every
command is then exercised against real files, including its exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

import numpy as np
import pytest

from nuseg import io as tio
from nuseg.cli import main
from nuseg.data import load_dataset, load_pgm
from nuseg.model import ModelParams, infer, parse_model_config
from nuseg.prng import Prng
from nuseg.train import evaluate_dataset, open_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--n", "4",
                 "--size", "32", "--seed", "5"]) == 0
    train_cfg = root / "train.cfg"
    train_cfg.write_text("epochs = 1\nbatch_size = 2\nseed = 3\n")
    ckpt = root / "model.ckpt"
    assert main(["train", "--data", str(data), "--train-cfg", str(train_cfg),
                 "--out", str(ckpt)]) == 0
    return {"root": root, "data": data, "ckpt": ckpt}


class TestGenData:
    def test_writes_pairs_and_manifest(self, workdir, capsys):
        names = sorted(p.name for p in workdir["data"].iterdir())
        assert names == ["manifest.csv"] + sorted(
            f"sample_{i:04d}.{k}.pgm" for i in range(4) for k in ("img", "mask"))

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["gen-data", "--out", str(d), "--n", "2",
                         "--size", "32", "--seed", "9"]) == 0
        for name in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("size", ["0", "7"])
    def test_size_too_small_creates_nothing(self, tmp_path, capsys, size):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), "--n", "2", "--size", size]) == 1
        assert "below the minimum of 21 px" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_lines(self, tmp_path, capsys):
        main(["gen-data", "--out", str(tmp_path / "d"), "--n", "2", "--size", "32"])
        out = capsys.readouterr().out
        assert "n=2\n" in out and "size=32\n" in out


class TestTrain:
    def test_artifacts_exist(self, workdir):
        assert workdir["ckpt"].exists()
        assert (workdir["root"] / "model.ckpt.curve.csv").exists()

    def test_curve_has_step_rows(self, workdir):
        lines = (workdir["root"] / "model.ckpt.curve.csv").read_text().splitlines()
        assert lines[0] == "step,loss,iou"
        assert len(lines) == 3  # 4 samples / batch 2, one epoch

    def test_missing_config_file_is_usage_error(self, workdir, capsys):
        code = main(["train", "--data", str(workdir["data"]),
                     "--model-cfg", str(workdir["root"] / "nope.cfg"),
                     "--out", str(workdir["root"] / "x.ckpt")])
        assert code == 2
        assert "model config file not found" in capsys.readouterr().err

    def test_indivisible_size_is_actionable(self, tmp_path, capsys):
        data = tmp_path / "odd"
        assert main(["gen-data", "--out", str(data), "--n", "2",
                     "--size", "30", "--seed", "1"]) == 0
        code = main(["train", "--data", str(data),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "pad by" in capsys.readouterr().err

    def test_zero_lr_checkpoint_keeps_the_init(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "frozen.cfg"
        cfg.write_text("lr = 0.0\nepochs = 1\nbatch_size = 4\nseed = 21\n")
        ckpt = tmp_path / "frozen.ckpt"
        assert main(["train", "--data", str(workdir["data"]),
                     "--train-cfg", str(cfg), "--out", str(ckpt)]) == 0
        params, info = open_checkpoint(ckpt)
        init = ModelParams(parse_model_config(""), Prng(21))
        for stored, fresh in zip(params.trainables(), init.trainables()):
            np.testing.assert_array_equal(stored.data, fresh.data)

    def test_negative_ckpt_every_writes_nothing(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(workdir["data"]),
                     "--out", str(ckpt), "--ckpt-every", "-1"])
        assert code == 1
        assert "error: ckpt_every must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_model_config_key_writes_nothing(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("preset = tiny\npreset = small\n")
        code = main(["train", "--data", str(workdir["data"]), "--model-cfg", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert ("error: config key 'preset' set twice, on lines 1 and 2"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_missing_output_directory_writes_nothing(self, workdir, tmp_path, capsys, flag):
        paths = {"--out": tmp_path / "m.ckpt", "--curve": tmp_path / "c.csv"}
        paths[flag] = tmp_path / "nodir" / paths[flag].name
        code = main(["train", "--data", str(workdir["data"]),
                     "--out", str(paths["--out"]), "--curve", str(paths["--curve"])])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: output directory '{tmp_path / 'nodir'}'" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_path_that_is_a_directory_writes_nothing(self, workdir, tmp_path, capsys):
        folder = tmp_path / "m.ckpt"
        folder.mkdir()
        code = main(["train", "--data", str(workdir["data"]), "--out", str(folder)])
        assert code == 1
        assert f"error: ckpt_path '{folder}' is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [folder]
        assert list(folder.iterdir()) == []

    def test_summary_reports_steps_and_loss(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 4\nseed = 2\n")
        assert main(["train", "--data", str(workdir["data"]),
                     "--train-cfg", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert out["steps"] == "1"
        assert np.isfinite(float(out["final_loss"]))
        assert 0.0 <= float(out["final_iou"]) <= 1.0


class TestInfer:
    def test_tensor_and_pgm_outputs_agree(self, workdir, tmp_path, capsys):
        out = tmp_path / "prob.uiut"
        code = main(["infer", "--ckpt", str(workdir["ckpt"]),
                     "--image", str(workdir["data"] / "sample_0000.img.pgm"),
                     "--out", str(out)])
        assert code == 0
        prob = tio.load_tensor(out)
        assert prob.shape == (1, 1, 32, 32)
        assert prob.min() >= 0.0 and prob.max() <= 1.0
        pgm = load_pgm(tmp_path / "prob.uiut.pgm")
        want = np.floor(prob[0, 0] * 255.0 + 0.5) / 255.0
        np.testing.assert_array_equal(pgm, want.astype(np.float32))

    def test_repeat_runs_are_byte_identical(self, workdir, tmp_path, capsys):
        outs = [tmp_path / "p1.uiut", tmp_path / "p2.uiut"]
        for out in outs:
            assert main(["infer", "--ckpt", str(workdir["ckpt"]),
                         "--image", str(workdir["data"] / "sample_0001.img.pgm"),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_probabilities_equal_the_library_on_the_loaded_image(self, workdir, tmp_path,
                                                                  capsys):
        out = tmp_path / "p.uiut"
        assert main(["infer", "--ckpt", str(workdir["ckpt"]),
                     "--image", str(workdir["data"] / "sample_0002.img.pgm"),
                     "--out", str(out)]) == 0
        params, _ = open_checkpoint(workdir["ckpt"])
        sample = load_dataset(workdir["data"])[2]
        assert sample.name == "sample_0002"
        assert tio.load_tensor(out).tobytes() == infer(params, sample.image).data.tobytes()

    def test_missing_checkpoint_is_runtime_error(self, workdir, tmp_path, capsys):
        code = main(["infer", "--ckpt", str(tmp_path / "ghost.ckpt"),
                     "--image", str(workdir["data"] / "sample_0000.img.pgm"),
                     "--out", str(tmp_path / "p.uiut")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_values_match_the_library(self, workdir, tmp_path, capsys):
        report = tmp_path / "metrics.csv"
        code = main(["eval", "--ckpt", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--out", str(report)])
        assert code == 0
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        params, _ = open_checkpoint(workdir["ckpt"])
        want = evaluate_dataset(params, load_dataset(workdir["data"]), 0.5)
        assert float(out["iou"]) == want["iou"]
        assert float(out["niou"]) == want["niou"]
        assert out["n"] == "4"
        lines = report.read_text().splitlines()
        assert lines[0] == "metric,value"

    @pytest.mark.parametrize("command,thr", [("eval", "nan"), ("report", "7")])
    def test_threshold_outside_unit_interval_is_runtime_error(self, workdir, tmp_path, capsys,
                                                              monkeypatch, command, thr):
        """The threshold is rejected before any image is inferred."""
        def no_infer(*_):
            raise AssertionError("infer ran before the threshold was checked")
        monkeypatch.setattr("nuseg.train.infer", no_infer)
        argv = [command, "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                "--thr", thr]
        if command == "report":
            argv += ["--out-dir", str(tmp_path / "rep")]
        code = main(argv)
        assert code == 1
        assert "error: thr must be in [0,1]" in capsys.readouterr().err

    def test_malformed_checkpoint_is_runtime_error(self, workdir, tmp_path, capsys):
        entries = tio.load_entries(workdir["ckpt"])
        entries["meta.step"] = np.ones(2, dtype=np.float32)
        bad = tmp_path / "bad.ckpt"
        tio.save_entries(bad, entries)
        code = main(["eval", "--ckpt", str(bad), "--data", str(workdir["data"])])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'meta.step'" in err
        assert "Traceback" not in err


class TestRoc:
    def test_csv_and_svg(self, workdir, tmp_path, capsys):
        csv = tmp_path / "roc.csv"
        svg = tmp_path / "roc.svg"
        code = main(["roc", "--ckpt", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--n-thr", "9",
                     "--out", str(csv), "--svg", str(svg)])
        assert code == 0
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        assert 0.0 <= float(out["auc"]) <= 1.0
        assert csv.read_text().startswith("thr,fpr,tpr")
        assert svg.read_text().startswith("<svg")

    def test_bad_fpr_mode_is_a_parser_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roc", "--ckpt", str(workdir["ckpt"]),
                  "--data", str(workdir["data"]), "--fpr-mode", "upside_down"])
        assert exc.value.code == 2


class TestReport:
    def test_three_files_and_matching_values(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code = main(["report", "--ckpt", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--n-thr", "9",
                     "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("report.csv", "roc.csv", "roc.svg"):
            assert (out_dir / name).exists()
        out = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines())
        rows = dict(line.split(",", 1) for line in
                    (out_dir / "report.csv").read_text().splitlines()[1:])
        assert float(out["iou"]) == float(rows["iou"])
        assert float(out["auc"]) == float(rows["auc"])


class TestSharedEvaluation:
    def test_roc_and_report_write_identical_roc_csv(self, workdir, tmp_path, capsys):
        roc_csv = tmp_path / "roc.csv"
        assert main(["roc", "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                     "--n-thr", "9", "--out", str(roc_csv)]) == 0
        assert main(["report", "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                     "--n-thr", "9", "--out-dir", str(tmp_path / "rep")]) == 0
        assert roc_csv.read_bytes() == (tmp_path / "rep" / "roc.csv").read_bytes()

    @pytest.mark.parametrize("command,out_flag", [("roc", "--out"), ("report", "--out-dir")])
    def test_zero_thresholds_is_runtime_error(self, workdir, tmp_path, capsys,
                                              command, out_flag):
        code = main([command, "--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                     "--n-thr", "0", out_flag, str(tmp_path / "x")])
        assert code == 1
        assert "n_thresholds must be >= 1" in capsys.readouterr().err


class TestOutputPaths:
    @pytest.mark.parametrize("command",
                             ["infer", "infer-pgm", "eval", "roc", "roc-svg", "report",
                              "report-below-a-file"])
    def test_unusable_output_path_is_refused_before_the_checkpoint(
            self, workdir, tmp_path, capsys, monkeypatch, command):
        """The command exits 1 naming the path and writes nothing, without
        opening the checkpoint."""
        monkeypatch.setattr("nuseg.cli.open_checkpoint",
                            lambda *_: pytest.fail("the checkpoint was opened"))
        folder = tmp_path / "taken.pgm"
        folder.mkdir()
        afile = tmp_path / "afile"
        afile.write_text("x")
        missing = tmp_path / "nodir"
        no_dir = f"error: output directory '{missing}' does not exist"
        base = ["--ckpt", str(workdir["ckpt"]), "--data", str(workdir["data"])]
        infer = ["infer", "--ckpt", str(workdir["ckpt"]),
                 "--image", str(workdir["data"] / "sample_0000.img.pgm"), "--out"]
        argv, message = {
            "infer": ([*infer, str(missing / "p.uiut")], no_dir),
            "infer-pgm": ([*infer, str(tmp_path / "taken")],
                          f"error: pgm '{folder}' is a directory"),
            "eval": (["eval", *base, "--out", str(missing / "m.csv")], no_dir),
            "roc": (["roc", *base, "--out", str(missing / "r.csv")], no_dir),
            "roc-svg": (["roc", *base, "--out", str(tmp_path / "r.csv"), "--svg", str(folder)],
                        f"error: svg '{folder}' is a directory"),
            "report": (["report", *base, "--out-dir", str(afile)],
                       f"error: out_dir '{afile}' is not a directory"),
            "report-below-a-file": (
                ["report", *base, "--out-dir", str(afile / "sub")],
                f"error: out_dir '{afile / 'sub'}' cannot be made: '{afile}' is not a directory"),
        }[command]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "taken.pgm"]
        assert list(folder.iterdir()) == [] and afile.read_text() == "x"


class TestParser:
    def test_help_exits_zero_and_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("gen-data", "train", "infer", "eval", "roc", "report"):
            assert command in out

    def test_subcommand_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roc", "--help"])
        assert exc.value.code == 0
        assert "default: 33" in capsys.readouterr().out

    def test_no_command_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
