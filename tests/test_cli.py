"""Command-line interface behavior and exit codes."""

import argparse
import copy
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmyo.cli import build_parser, main
from qmyo.features import save_recording
from qmyo.operators import (
    DOFS,
    Direction,
    Dof,
    load_model,
    model_to_dict,
    save_model,
    train,
)
from qmyo.synthetic import (
    default_mixing_model,
    generate_raw_emg,
    generate_training_set,
    generate_training_table,
    orthogonal_mixing_model,
)
from qmyo.datasets import (
    from_training_samples,
    from_training_table,
    load_feature_dataset,
    save_feature_dataset,
    training_table,
)
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import TrainingSample, TrainingTable

D1 = Dof.FLEXION_EXTENSION
DATA = Path(__file__).parent / "data"
V3_MODEL = DATA / "model_v3.json"  # format 3, 4 channels, d1 and d3
V1_TRAIN = DATA / "model_v1_train.csv"  # the 4-channel rows it was trained on


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_files(tmp_path):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    code = run(
        "synth",
        "--train-out", train_csv,
        "--test-out", test_csv,
        "--per-action", 30,
        "--blocks", 11,
        "--windows", 220,
        "--geometry", "orthogonal",
        "--seed", 5,
    )
    assert code == 0
    return train_csv, test_csv


class TestSmokePath:
    def test_synth_train_evaluate_round_trip(self, tmp_path, synth_files, capsys):
        train_csv, test_csv = synth_files
        model_json = tmp_path / "model.json"
        assert run("train", "--data", train_csv, "--out", model_json) == 0
        assert model_json.exists()

        report_txt = tmp_path / "report.txt"
        report_csv = tmp_path / "report.csv"
        decoded_csv = tmp_path / "decoded.csv"
        code = run(
            "evaluate",
            "--test", test_csv,
            "--model", model_json,
            "--report-out", report_txt,
            "--csv-out", report_csv,
            "--decode-out", decoded_csv,
        )
        assert code == 0
        assert "r2_global:" in report_txt.read_text()
        assert len(decoded_csv.read_text().splitlines()) == 221
        capsys.readouterr()

    def test_experiment_mode_with_sizes(self, tmp_path, synth_files, capsys):
        train_csv, test_csv = synth_files
        before = (train_csv.read_bytes(), test_csv.read_bytes())
        code = run(
            "evaluate",
            "--test", test_csv,
            "--train-data", train_csv,
            "--sizes", 10, 30,
            "--report-out", tmp_path / "report.txt",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[training_size=10]" in out
        assert "[training_size=30]" in out
        # input files are read, never rewritten
        assert (train_csv.read_bytes(), test_csv.read_bytes()) == before

    def test_decode_subcommand(self, tmp_path, synth_files, capsys):
        train_csv, test_csv = synth_files
        model_json = tmp_path / "model.json"
        run("train", "--data", train_csv, "--out", model_json)
        out_csv = tmp_path / "decoded.csv"
        assert run("decode", "--model", model_json, "--data", test_csv, "--out", out_csv) == 0
        assert out_csv.read_text().startswith("window,")
        capsys.readouterr()

    def test_decode_raw_recording(self, tmp_path, capsys):
        mixing = orthogonal_mixing_model(seed=2)
        samples = generate_training_set(mixing, 10)
        model = train(samples, mixing.n_channels)
        model_json = tmp_path / "model.json"
        save_model(model, model_json)
        rec = generate_raw_emg(mixing, {D1: 25.0}, duration_s=1.0)
        raw_csv = tmp_path / "raw.csv"
        save_recording(rec, raw_csv)
        out_csv = tmp_path / "decoded.csv"
        assert run("decode", "--model", model_json, "--raw", raw_csv, "--out", out_csv) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 11  # 10 windows of 100 ms at 1024 Hz
        assert ",positive," in lines[1]
        capsys.readouterr()

    def test_learning_curve(self, tmp_path, synth_files, capsys):
        train_csv, _ = synth_files
        out = tmp_path / "curve.csv"
        assert run("learning-curve", "--data", train_csv, "--sizes", 8, 40, 120, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "samples,overlap_d1,overlap_d3"
        assert len(lines) == 4
        capsys.readouterr()

    def test_inspect_model(self, tmp_path, capsys):
        # overlapping prototypes make the completion operator indefinite
        samples = [
            TrainingSample(FeatureVector(np.array([1.0, 0.0]), FeatureKind.MAV), D1, Direction.POSITIVE, 30.0),
            TrainingSample(FeatureVector(np.array([1.0, 1.0]), FeatureKind.MAV), D1, Direction.NEGATIVE, 30.0),
        ]
        model = train(samples, 2)
        model_json = tmp_path / "model.json"
        save_model(model, model_json)
        assert run("inspect-model", "--model", model_json) == 0
        out = capsys.readouterr().out
        assert "p_zero min eigenvalue:" in out
        line = next(l for l in out.splitlines() if "min eigenvalue" in l)
        assert float(line.split(":")[1]) < 0.0
        assert "spectrum" in out
        assert "theta_positive_max" in out


# Each subcommand's flags as the parser held them when every flag was written out by
# hand: option -> (dest, nargs, type name, choices, required, default); and its
# mutually exclusive groups as (options, required).
_PARSER_SHAPE = {
    "synth": ({
        "--train-out": ("train_out", None, None, None, True, None),
        "--test-out": ("test_out", None, None, None, True, None),
        "--channels": ("channels", None, "positive int", None, False, None),
        "--dofs": ("dofs", "+", "Dof", None, False, None),
        "--noise-sigma": ("noise_sigma", None, "non-negative float", None, False, None),
        "--seed": ("seed", None, "non-negative int", None, False, None),
        "--per-action": ("per_action", None, "positive int", None, False, None),
        "--angle-min": ("angle_min", None, "positive float", None, False, None),
        "--angle-max": ("angle_max", None, "positive float", None, False, None),
        "--blocks": ("blocks", None, "positive int", None, False, None),
        "--windows": ("windows", None, "positive int", None, False, None),
        "--geometry": ("geometry", None, None, ("masking", "orthogonal"), False, None),
        "--config": ("config", None, None, None, False, None),
    }, []),
    "train": ({
        "--data": ("data", None, None, None, True, None),
        "--out": ("out", None, None, None, True, None),
        "--dofs": ("dofs", "+", "Dof", None, False, None),
        "--size": ("size", None, "positive int", None, False, None),
        "--config": ("config", None, None, None, False, None),
        "--rest-threshold": ("rest_threshold", None, "non-negative float", None, False, None),
        "--overlap-epsilon": ("overlap_epsilon", None, "(0, 1) float", None, False, None),
    }, []),
    "decode": ({
        "--model": ("model", None, None, None, True, None),
        "--data": ("data", None, None, None, False, None),
        "--raw": ("raw", None, None, None, False, None),
        "--out": ("out", None, None, None, True, None),
        "--sample-rate": ("sample_rate", None, "positive float", None, False, None),
        "--window-ms": ("window_ms", None, "positive float", None, False, None),
        "--config": ("config", None, None, None, False, None),
        "--rest-threshold": ("rest_threshold", None, "non-negative float", None, False, None),
        "--overlap-epsilon": ("overlap_epsilon", None, "(0, 1) float", None, False, None),
    }, [(("--data", "--raw"), True)]),
    "evaluate": ({
        "--test": ("test", None, None, None, True, None),
        "--model": ("model", None, None, None, False, None),
        "--train-data": ("train_data", None, None, None, False, None),
        "--sizes": ("sizes", "+", "positive int", None, False, None),
        "--dofs": ("dofs", "+", "Dof", None, False, None),
        "--seed": ("seed", None, "non-negative int", None, False, None),
        "--report-out": ("report_out", None, None, None, False, None),
        "--csv-out": ("csv_out", None, None, None, False, None),
        "--decode-out": ("decode_out", None, None, None, False, None),
        "--config": ("config", None, None, None, False, None),
        "--rest-threshold": ("rest_threshold", None, "non-negative float", None, False, None),
        "--overlap-epsilon": ("overlap_epsilon", None, "(0, 1) float", None, False, None),
        "--block-vote": ("block_vote", None, None, ("majority", "any", "all"), False, None),
    }, [(("--model", "--train-data"), True)]),
    "learning-curve": ({
        "--data": ("data", None, None, None, True, None),
        "--sizes": ("sizes", "+", "positive int", None, True, None),
        "--dofs": ("dofs", "+", "Dof", None, False, None),
        "--out": ("out", None, None, None, False, None),
    }, []),
    "inspect-model": ({
        "--model": ("model", None, None, None, True, None),
    }, []),
}


def _subparsers():
    """Each subcommand's parser by name."""
    [action] = [action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(_PARSER_SHAPE))
def test_parser_accepts_the_same_flags(command):
    assert list(_subparsers()) == list(_PARSER_SHAPE)
    sub = _subparsers()[command]
    flags = {}
    for action in sub._actions:
        if not isinstance(action, argparse._HelpAction):
            [option] = action.option_strings
            flags[option] = (action.dest, action.nargs, getattr(action.type, "__name__", None),
                             None if action.choices is None else tuple(action.choices),
                             action.required, action.default)
    groups = [(tuple(action.option_strings[0] for action in group._group_actions), group.required)
              for group in sub._mutually_exclusive_groups]
    assert (flags, groups) == _PARSER_SHAPE[command]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--nonsense")
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", tmp_path / "absent.csv", "--out", tmp_path / "m.json")
        assert exc.value.code == 1
        capsys.readouterr()

    def test_directory_path_is_usage_error(self, tmp_path, capsys):
        assert run("train", "--data", V1_TRAIN, "--out", tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [f"qmyo: Is a directory: {tmp_path}"]
        # an input flag, --config too, must name a file
        line = self.usage_error(capsys, ["train", "--data", V1_TRAIN, "--out", tmp_path / "m.json",
                                         "--config", tmp_path])
        assert line == f"qmyo train: error: file not found: {tmp_path}"

    @pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    def test_bad_later_output_path_writes_nothing(self, tmp_path, capsys, command, missing):
        bad = tmp_path / "nope" / "x.csv" if missing else tmp_path
        first = tmp_path / "first.out"
        argv = {
            "synth": ["synth", "--train-out", first, "--test-out", bad,
                      "--per-action", 5, "--blocks", 3, "--windows", 12],
            "evaluate": ["evaluate", "--test", V1_TRAIN, "--model", V3_MODEL,
                         "--report-out", first, "--csv-out", bad],
        }[command]
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        reason = "file not found" if missing else "Is a directory"
        assert (out, err.splitlines()) == ("", [f"qmyo: {reason}: {bad}"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", [
        "synth", "synth-config", "train", "decode", "evaluate", "learning-curve"])
    def test_output_naming_an_input_or_another_output_writes_nothing(self, tmp_path, capsys, case):
        """Paths compare by real path, here through a link and a ``.``, before any write."""
        kept, link, cfg = tmp_path / "kept.csv", tmp_path / "link.csv", tmp_path / "settings.cfg"
        kept.write_bytes(V1_TRAIN.read_bytes())
        link.symlink_to(kept)
        cfg.write_text("seed = 2\n")
        synth = ["synth", "--per-action", 5, "--blocks", 3, "--windows", 12]
        argv, message = {
            "synth": (synth + ["--train-out", kept, "--test-out", link],
                      "--test-out: names the same file as --train-out"),
            "synth-config": (synth + ["--config", cfg, "--train-out", tmp_path / "." / cfg.name,
                                      "--test-out", tmp_path / "test.csv"],
                             "--train-out: names the same file as --config"),
            "train": (["train", "--data", kept, "--out", link],
                      "--out: names the same file as --data"),
            "decode": (["decode", "--model", V3_MODEL, "--data", kept, "--out", link],
                       "--out: names the same file as --data"),
            "evaluate": (["evaluate", "--test", kept, "--model", V3_MODEL,
                          "--report-out", tmp_path / "r.txt", "--decode-out", link],
                         "--decode-out: names the same file as --test"),
            "learning-curve": (["learning-curve", "--data", kept, "--sizes", 2, "--out", link],
                               "--out: names the same file as --data"),
        }[case]
        assert self.usage_error(capsys, argv).endswith(f"error: argument {message}")
        assert kept.read_bytes() == V1_TRAIN.read_bytes()
        assert cfg.read_text() == "seed = 2\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "kept.csv", "link.csv", "settings.cfg"]

    def test_decode_takes_no_block_vote(self, tmp_path, capsys):
        line = self.usage_error(capsys, self.argv("decode", tmp_path, "--block-vote", "any"))
        assert line == "qmyo decode: error: unrecognized arguments: --block-vote any"
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("block_vote = any\n")  # one config file serves every command
        assert run(*self.argv("decode", tmp_path, "--config", cfg)) == 0

    def test_train_takes_no_block_vote(self, tmp_path, capsys):
        line = self.usage_error(capsys, self.argv("train", tmp_path, "--block-vote", "any"))
        assert line == "qmyo train: error: unrecognized arguments: --block-vote any"
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("block_vote = any\n")  # accepted, and not written to the model
        assert run(*self.argv("train", tmp_path, "--config", cfg)) == 0
        assert "block_vote" not in (tmp_path / "m.json").read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_repeated_config_key_is_data_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed = 1\n# again\nseed = 2\n")
        line = self.data_error(capsys, self.argv(command, tmp_path, "--config", cfg))
        assert line == f"{cfg}:3: repeats setting 'seed' from line 1"
        assert [path.name for path in tmp_path.iterdir()] == ["settings.cfg"]

    def test_noise_past_float_range_is_data_error(self, tmp_path, capsys):
        """Noise scaled past float range is refused as a data error, without
        an overflow warning (which pytest raises as an error)."""
        argv = self.argv("synth", tmp_path, "--noise-sigma", "1e308", "--per-action", 2,
                         "--blocks", 3, "--windows", 6)
        line = self.data_error(capsys, argv)
        assert line.startswith("synthetic:") and "value inf is not a finite" in line
        assert list(tmp_path.iterdir()) == []

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("ch1,d1_angle,d2_angle,d3_angle,phase,block\noops,0,0,0,direct,0\n")
        assert run("train", "--data", bad, "--out", tmp_path / "m.json") == 2
        assert "data error" in capsys.readouterr().err

    def test_channel_mismatch_is_model_error(self, tmp_path, synth_files, capsys):
        train_csv, _ = synth_files
        model_json = tmp_path / "model.json"
        run("train", "--data", train_csv, "--out", model_json)
        narrow = orthogonal_mixing_model(n_channels=12, seed=9)
        other = from_training_samples(
            generate_training_set(narrow, 5), narrow.n_channels
        )
        other_csv = tmp_path / "narrow.csv"
        save_feature_dataset(other, other_csv)
        code = run("evaluate", "--test", other_csv, "--model", model_json)
        assert code == 3
        assert "model error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "decode"])
    def test_channel_mismatch_prints_the_decoders_line(self, tmp_path, capsys, command):
        """evaluate --model and decode --data refuse a test set of another width
        with the one line of the decoder's own channel check."""
        wide, narrow = (orthogonal_mixing_model(n_channels=c, seed=9) for c in (12, 8))
        model_json, narrow_csv = tmp_path / "model.json", tmp_path / "narrow.csv"
        save_model(train(generate_training_set(wide, 5), wide.n_channels), model_json)
        save_feature_dataset(
            from_training_samples(generate_training_set(narrow, 5), narrow.n_channels), narrow_csv
        )
        argv = {
            "evaluate": ["evaluate", "--test", narrow_csv, "--model", model_json],
            "decode": ["decode", "--model", model_json, "--data", narrow_csv,
                       "--out", tmp_path / "d.csv"],
        }[command]
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "qmyo: model error: 8 feature channels do not match the 12-channel model\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.25"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "decode"])
    def test_bad_feature_value_is_data_error(self, tmp_path, synth_files, capsys, command, value):
        train_csv, test_csv = synth_files
        model_json = tmp_path / "model.json"
        assert run("train", "--data", train_csv, "--out", model_json) == 0
        lines = test_csv.read_text().splitlines()
        lines[5] = ",".join([value] + lines[5].split(",")[1:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = {
            "train": ["train", "--data", bad, "--out", tmp_path / "m.json"],
            "evaluate": ["evaluate", "--test", bad, "--model", model_json],
            "decode": ["decode", "--model", model_json, "--data", bad, "--out", tmp_path / "d.csv"],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("qmyo: data error: ")
        assert f"bad.csv:6: ch1 value {float(value)!r}" in err[0]

    def test_zero_window_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("decode", "--model", V3_MODEL, "--raw", V1_TRAIN, "--out", tmp_path / "d.csv",
                "--window-ms", 0)
        assert exc.value.code == 1
        assert "argument --window-ms: invalid positive float value: '0'" in capsys.readouterr().err

    def test_window_under_two_samples_is_data_error(self, tmp_path, capsys):
        """A flag's window is a usage error; the same window from a config file is a data error."""
        raw_csv, cfg = tmp_path / "raw.csv", tmp_path / "settings.cfg"
        save_recording(generate_raw_emg(orthogonal_mixing_model(seed=2), {D1: 25.0}, 0.1), raw_csv)
        argv = ["decode", "--model", V3_MODEL, "--raw", raw_csv, "--out", tmp_path / "d.csv"]
        message = "a 1.0 ms window spans under 2 samples at 1024.0 Hz"
        assert self.usage_error(capsys, argv + ["--window-ms", 1]) == (
            f"qmyo decode: error: argument --window-ms: {message}")
        cfg.write_text("seed = 1\nwindow_ms = 1\n")
        assert self.data_error(capsys, argv + ["--config", cfg]) == f"{cfg}:2: {message}"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--window-ms", "1e308"], "a 1e+308 ms window spans unbounded samples at 1024.0 Hz"),
        (["--sample-rate", "1e200", "--window-ms", "1e200"],
         "a 1e+200 ms window spans unbounded samples at 1e+200 Hz"),
        (["--config", None], "a 1e+308 ms window spans unbounded samples at 1024.0 Hz"),
    ])
    def test_unbounded_window_is_data_error(self, tmp_path, capsys, flags, message):
        """Exit 2 naming the file line when a config file sets the window, else exit 1."""
        raw_csv, cfg = tmp_path / "raw.csv", tmp_path / "settings.cfg"
        save_recording(generate_raw_emg(orthogonal_mixing_model(seed=2), {D1: 25.0}, 0.1), raw_csv)
        cfg.write_text("window_ms = 1e308\n")  # read where the flags name no file
        argv = ["decode", "--model", V3_MODEL, "--raw", raw_csv, "--out", tmp_path / "d.csv",
                *[cfg if flag is None else flag for flag in flags]]
        if "--config" in flags:
            assert self.data_error(capsys, argv) == f"{cfg}:1: {message}"
        else:
            line = self.usage_error(capsys, argv)
            assert line == f"qmyo decode: error: argument --window-ms: {message}"
        assert not (tmp_path / "d.csv").exists()

    def test_zero_size_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", V1_TRAIN, "--out", tmp_path / "m.json", "--size", 0)
        assert exc.value.code == 1
        assert "argument --size: invalid positive int value: '0'" in capsys.readouterr().err

    def test_zero_sizes_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--test", V1_TRAIN, "--train-data", V1_TRAIN, "--sizes", 2, 0)
        assert exc.value.code == 1
        assert "argument --sizes: invalid positive int value: '0'" in capsys.readouterr().err

    def test_non_positive_config_value_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("window_ms = -5\n")
        code = run("decode", "--model", V3_MODEL, "--raw", V1_TRAIN, "--out", tmp_path / "d.csv",
                   "--config", cfg)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qmyo: data error: {cfg}:1: must be finite and > 0, got -5"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_raw_sample_is_data_error(self, tmp_path, capsys, value):
        mixing = orthogonal_mixing_model(seed=2)
        model_json = tmp_path / "model.json"
        save_model(train(generate_training_set(mixing, 10), mixing.n_channels), model_json)
        raw_csv = tmp_path / "raw.csv"
        save_recording(generate_raw_emg(mixing, {D1: 25.0}, duration_s=0.5), raw_csv)
        lines = raw_csv.read_text().splitlines()
        lines[40] = ",".join(lines[40].split(",")[:-1] + [value])
        raw_csv.write_text("\n".join(lines) + "\n")
        code = run("decode", "--model", model_json, "--raw", raw_csv, "--out", tmp_path / "d.csv")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"qmyo: data error: {raw_csv}:41: samples must be finite")

    def test_raw_window_whose_mav_overflows_is_data_error(self, tmp_path, capsys):
        """Finite samples can sum past float range; the window's MAV is then
        refused as a data error that names it, without an overflow warning."""
        raw_csv = tmp_path / "raw.csv"
        samples = np.full((3 * 102, 4), 0.5)  # three 102-sample windows at the defaults
        samples[102:204] = [1.7e308, -1.7e308, 1.7e308, -1.7e308]
        raw_csv.write_text("ch1,ch2,ch3,ch4\n"
                           + "".join(",".join(map(repr, row)) + "\n" for row in samples.tolist()))
        out_csv = tmp_path / "d.csv"
        assert run("decode", "--model", V3_MODEL, "--raw", raw_csv, "--out", out_csv) == 2
        assert capsys.readouterr().err == (
            f"qmyo: data error: {raw_csv}: window 1: "
            "feature values must be finite and non-negative\n"
        )
        assert not out_csv.exists()

    def test_raw_recording_shorter_than_one_window_names_the_file(self, tmp_path, capsys):
        raw_csv = tmp_path / "raw.csv"
        raw_csv.write_text("ch1,ch2,ch3,ch4\n0.5,0.25,0.5,0.25\n")
        out_csv = tmp_path / "d.csv"
        assert run("decode", "--model", V3_MODEL, "--raw", raw_csv, "--out", out_csv) == 2
        assert capsys.readouterr().err == (
            f"qmyo: data error: {raw_csv}: recording has 1 samples, "
            "shorter than one 102-sample window\n"
        )
        assert not out_csv.exists()

    @staticmethod
    def usage_error(capsys, argv):
        """Run ``argv``, expect exit 1, and return its one ``qmyo`` error line."""
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(f"usage: qmyo {argv[0]} ")
        [line] = [line for line in err.splitlines() if line.startswith("qmyo")]
        return line

    @staticmethod
    def data_error(capsys, argv):
        """Run ``argv``, expect exit 2, and return its one stderr line."""
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("qmyo: data error: ")
        return line.removeprefix("qmyo: data error: ")

    @staticmethod
    def argv(command, tmp_path, *extra):
        return {
            "train": ["train", "--data", V1_TRAIN, "--out", tmp_path / "m.json"],
            "decode": ["decode", "--model", V3_MODEL, "--data", V1_TRAIN,
                       "--out", tmp_path / "d.csv"],
            "evaluate": ["evaluate", "--test", V1_TRAIN, "--model", V3_MODEL],
            "synth": ["synth", "--train-out", tmp_path / "a.csv", "--test-out", tmp_path / "b.csv"],
        }[command] + list(extra)

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("train", ["--rest-threshold", -1],
             "argument --rest-threshold: invalid non-negative float value: '-1'"),
            ("train", ["--overlap-epsilon", 2],
             "argument --overlap-epsilon: invalid (0, 1) float value: '2'"),
            ("decode", ["--overlap-epsilon", 2],
             "argument --overlap-epsilon: invalid (0, 1) float value: '2'"),
            ("evaluate", ["--overlap-epsilon", 2],
             "argument --overlap-epsilon: invalid (0, 1) float value: '2'"),
            ("evaluate", ["--rest-threshold", "nan"],
             "argument --rest-threshold: invalid non-negative float value: 'nan'"),
            ("synth", ["--channels", 4],
             "argument --channels: 4 channels cannot host 4 disjoint dominant pairs"),
            ("synth", ["--dofs", "d1", "d2", "d3"],
             "argument --dofs: 8 channels cannot host 6 disjoint dominant pairs"),
            ("synth", ["--dofs", "d1", "d1"],
             "argument --dofs: names a DOF more than once, got d1 d1"),
            ("synth", ["--dofs", "d3"], "argument --dofs: needs two or more distinct DOFs"),
            ("synth", ["--angle-min", 50],
             "argument --angle-min: angle_min 50.0 is not below angle_max 40.0"),
            ("synth", ["--angle-max", 0],
             "argument --angle-max: invalid positive float value: '0'"),
            ("synth", ["--blocks", 100, "--windows", 50],
             "argument --blocks: cannot spread 50 windows over 100 blocks"),
            ("synth", ["--noise-sigma", -1],
             "argument --noise-sigma: invalid non-negative float value: '-1'"),
            ("synth", ["--seed", -1], "argument --seed: invalid non-negative int value: '-1'"),
        ],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, command, flags, message):
        line = self.usage_error(capsys, self.argv(command, tmp_path, *flags))
        assert line.endswith(f"error: {message}")
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("kind", ["dataset", "recording", "config"])
    def test_undecodable_byte_is_data_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.txt"
        if kind == "dataset":
            text, bad_line = V1_TRAIN.read_bytes(), 5
            argv = ["train", "--data", bad, "--out", tmp_path / "m.json"]
        elif kind == "recording":
            # the line lies past the first 8 KiB chunk the text reader decodes
            mixing = orthogonal_mixing_model(n_channels=4, dofs=(D1,))
            save_recording(generate_raw_emg(mixing, {D1: 20.0}, 0.5), bad)
            text, bad_line = bad.read_bytes(), 300
            assert len(text) > 8192
            argv = ["decode", "--model", V3_MODEL, "--raw", bad, "--out", tmp_path / "d.csv"]
        else:  # the byte starts its line
            text, bad_line = b"seed = 3\n.5 = x\nchannels = 8\n", 2
            argv = self.argv("train", tmp_path, "--config", bad)
        lines = text.split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1].replace(b".", b"\xff", 1)
        bad.write_bytes(b"\n".join(lines))
        line = self.data_error(capsys, argv)
        assert line == f"{bad}:{bad_line}: not utf-8 text (invalid start byte, byte 0xff)"

    @pytest.mark.parametrize("kind", ["dataset", "recording"])
    def test_cell_over_the_csv_field_limit_is_data_error(self, tmp_path, capsys, kind):
        big = tmp_path / "big.csv"
        header = V1_TRAIN.read_text().splitlines()[0] if kind == "dataset" else "ch1,ch2,ch3,ch4"
        big.write_text(f'{header}\r\n"{"1" * 200_000}",0\r\n')
        argv = {
            "dataset": ["train", "--data", big, "--out", tmp_path / "m.json"],
            "recording": ["decode", "--model", V3_MODEL, "--raw", big, "--out", tmp_path / "d.csv"],
        }[kind]
        line = self.data_error(capsys, argv)
        assert line == f"{big}:2: field larger than field limit (131072)"

    def test_decreasing_learning_curve_sizes_are_usage_error(self, tmp_path, capsys):
        line = self.usage_error(capsys, ["learning-curve", "--data", V1_TRAIN, "--sizes", 10, 5])
        assert line == ("qmyo learning-curve: error: "
                        "argument --sizes: must be strictly increasing, got 10 5")

    @pytest.mark.parametrize("sizes", [[150, 50], [50, 50]])
    def test_unsorted_evaluate_sizes_are_usage_error(self, tmp_path, capsys, sizes):
        line = self.usage_error(capsys, ["evaluate", "--test", V1_TRAIN, "--train-data", V1_TRAIN,
                                         "--decode-out", tmp_path / "d.csv", "--sizes", *sizes])
        got = " ".join(map(str, sizes))
        assert line == ("qmyo evaluate: error: "
                        f"argument --sizes: must be strictly increasing, got {got}")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("evaluate", ["--sizes", 5, 3]),
            ("evaluate", ["--dofs", "d2"]),
            ("evaluate", ["--seed", 9]),
            ("decode", ["--window-ms", 0.001]),
            ("decode", ["--sample-rate", 5]),
        ],
    )
    def test_flag_its_mode_never_reads_is_usage_error(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out.csv"
        argv = self.argv(command, tmp_path, "--decode-out" if command == "evaluate" else "--out",
                         out, *flags)
        line = self.usage_error(capsys, argv)
        mode = "model" if command == "evaluate" else "data"
        assert line == (f"qmyo {command}: error: "
                        f"argument {flags[0]}: not allowed with argument --{mode}")
        assert not out.exists()

    def test_config_keys_a_mode_never_reads_stay_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("sizes = 5, 7\ndofs = d2\nseed = 9\nwindow_ms = 0.001\nsample_rate = 5\n")
        for command in ("evaluate", "decode"):
            assert run(*self.argv(command, tmp_path, "--config", cfg)) == 0
        assert "dofs: d1,d3" in capsys.readouterr().out

    def test_unsorted_config_sizes_are_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed = 1\n\nsizes = 150, 50\n")
        line = self.data_error(capsys, ["evaluate", "--test", V1_TRAIN, "--train-data", V1_TRAIN,
                                        "--config", cfg])
        assert line == f"{cfg}:3: must be strictly increasing, got 150 50"
        # an increasing flag value wins over the file's
        assert run("evaluate", "--test", V1_TRAIN, "--train-data", V1_TRAIN,
                   "--config", cfg, "--sizes", 2, 4) == 0
        assert "[training_size=4]" in capsys.readouterr().out

    def test_learning_curve_size_beyond_the_data_is_data_error(self, tmp_path, capsys):
        n = training_table(load_feature_dataset(V1_TRAIN)).n_rows
        line = self.data_error(capsys, ["learning-curve", "--data", V1_TRAIN, "--sizes", n + 1])
        assert line == f"{V1_TRAIN}: size {n + 1} exceeds its {n} samples"

    @staticmethod
    def dof_argv(command, out):
        return {
            "train": ["train", "--data", V1_TRAIN, "--out", out],
            "evaluate": ["evaluate", "--test", V1_TRAIN, "--train-data", V1_TRAIN,
                         "--sizes", 2, "--decode-out", out],
            "learning-curve": ["learning-curve", "--data", V1_TRAIN, "--sizes", 2, "--out", out],
        }[command]

    @pytest.mark.parametrize("command", ["train", "evaluate", "learning-curve"])
    def test_repeated_flag_dof_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        line = self.usage_error(capsys, self.dof_argv(command, out) + ["--dofs", "d1", "d3", "d1"])
        assert line == (f"qmyo {command}: error: "
                        "argument --dofs: names a DOF more than once, got d1 d3 d1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_repeated_config_dof_is_data_error(self, tmp_path, capsys, command):
        out, cfg = tmp_path / "out", tmp_path / "settings.cfg"
        cfg.write_text("seed = 1\ndofs = d3, d3\n")
        line = self.data_error(capsys, self.dof_argv(command, out) + ["--config", cfg])
        assert line == f"{cfg}:2: names a DOF more than once, got d3 d3"
        assert not out.exists()
        # distinct flag DOFs win over the file's
        assert run(*self.dof_argv(command, out), "--config", cfg, "--dofs", "d3", "d1") == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("train", "rest_threshold = -1", "must be finite and >= 0, got -1"),
            ("train", "overlap_epsilon = 2", "must be in (0, 1), got 2"),
            ("decode", "overlap_epsilon = 2", "must be in (0, 1), got 2"),
            ("evaluate", "overlap_epsilon = 2", "must be in (0, 1), got 2"),
            ("evaluate", "block_vote = most", "must be one of majority, any, all, got most"),
            ("synth", "channels = 4", "4 channels cannot host 4 disjoint dominant pairs"),
            ("synth", "dofs = d1,d2,d3", "8 channels cannot host 6 disjoint dominant pairs"),
            ("synth", "dofs = d1,d2,d3,d3", "names a DOF more than once, got d1 d2 d3 d3"),
            ("synth", "angle_min = 50", "angle_min 50.0 is not below angle_max 40.0"),
            ("synth", "windows = 20", "cannot spread 20 windows over 55 blocks"),
            ("synth", "geometry = round", "must be one of masking, orthogonal, got round"),
            ("synth", "seed = -3", "must be >= 0, got -3"),
        ],
    )
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, command, setting, message):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"# settings\n\n{setting}  # the bad one\nnoise_sigma = 0.0\n")
        line = self.data_error(capsys, self.argv(command, tmp_path, "--config", cfg))
        assert line == f"{cfg}:3: {message}"
        assert not (tmp_path / "a.csv").exists()

    def test_flag_conflicting_with_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("channels = 12\n")
        line = self.usage_error(capsys, self.argv("synth", tmp_path, "--config", cfg,
                                                  "--dofs", "d1", "d2", "d3", "d3"))
        assert line == ("qmyo synth: error: "
                        "argument --dofs: names a DOF more than once, got d1 d2 d3 d3")
        line = self.usage_error(capsys, self.argv("synth", tmp_path, "--config", cfg,
                                                  "--channels", 8, "--dofs", "d1", "d2", "d3"))
        assert line.endswith("--channels: 8 channels cannot host 6 disjoint dominant pairs")

    def test_insufficient_training_is_data_error(self, tmp_path, capsys):
        mixing = orthogonal_mixing_model(seed=1)
        ds = from_training_samples(
            [s for s in generate_training_set(mixing, 5) if s.direction is Direction.POSITIVE],
            mixing.n_channels,
        )
        csv_path = tmp_path / "onesided.csv"
        save_feature_dataset(ds, csv_path)
        assert run("train", "--data", csv_path, "--out", tmp_path / "m.json") == 2
        capsys.readouterr()


# Each command with one path or setting broken, and its stderr: an output in a missing
# directory; an input that is missing (the last one read, so every input is checked
# first); or a setting that breaks its rule. Nothing may be read or generated.
_BEFORE_WORK = [
    ("synth --train-out {tmp}/a.csv --test-out {bad}", "output"),
    ("synth --train-out {tmp}/a.csv --test-out {tmp}/b.csv --config {bad}", "input"),
    ("train --data {data} --out {bad}", "output"),
    ("train --data {data} --out {tmp}/m.json --config {bad}", "input"),
    ("train --data {data} --out {tmp}/m.json --dofs d1 d1",
     "argument --dofs: names a DOF more than once, got d1 d1"),
    ("decode --model {model} --data {data} --out {bad}", "output"),
    ("decode --model {model} --data {bad} --out {tmp}/d.csv", "input"),
    ("decode --model {model} --raw {data} --out {bad}", "output"),
    ("decode --model {model} --raw {bad} --out {tmp}/d.csv", "input"),
    ("decode --model {model} --raw {data} --out {tmp}/d.csv --window-ms 1",
     "argument --window-ms: a 1.0 ms window spans under 2 samples at 1024.0 Hz"),
    ("evaluate --test {data} --model {model} --report-out {tmp}/r.txt --decode-out {bad}", "output"),
    ("evaluate --test {data} --model {bad}", "input"),
    ("evaluate --test {data} --train-data {data} --csv-out {bad}", "output"),
    ("evaluate --test {data} --train-data {bad}", "input"),
    ("evaluate --test {data} --train-data {data} --sizes 5 3",
     "argument --sizes: must be strictly increasing, got 5 3"),
    ("evaluate --test {data} --train-data {data} --dofs d3 d3",
     "argument --dofs: names a DOF more than once, got d3 d3"),
    ("learning-curve --data {data} --sizes 2 --out {bad}", "output"),
    ("learning-curve --data {bad} --sizes 2", "input"),
    ("inspect-model --model {bad}", "input"),
]


@pytest.mark.parametrize("command, fault", _BEFORE_WORK)
def test_every_check_runs_before_any_file_is_read(tmp_path, monkeypatch, capsys, command, fault):
    def forbidden(*args, **kwargs):
        raise AssertionError("read or generated data before the argument checks")

    for module, name in [("datasets", "load_feature_dataset"), ("operators", "load_model"),
                         ("features", "load_recording"), ("synthetic", "generate_training_table")]:
        monkeypatch.setattr(f"qmyo.{module}.{name}", forbidden)
    bad = tmp_path / "missing" / "x.csv" if fault == "output" else tmp_path / "absent.csv"
    argv = command.format(tmp=tmp_path, bad=bad, data=V1_TRAIN, model=V3_MODEL).split()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if fault == "output":
        want = [f"qmyo: file not found: {bad}"]
    else:
        usage = _subparsers()[argv[0]].format_usage().splitlines()
        message = f"file not found: {bad}" if fault == "input" else fault
        want = usage + [f"qmyo {argv[0]}: error: {message}"]
    assert (code, out, err.splitlines()) == (1, "", want)
    assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(
            "# comment\n"
            "rest_threshold = 0.1\n"
            "sizes = 5,10\n"
            "dofs = d1,d3\n"
        )
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        model_json, report_csv = tmp_path / "model.json", tmp_path / "report.csv"
        assert run("synth", "--train-out", train_csv, "--test-out", test_csv, "--per-action", 12,
                   "--blocks", 5, "--windows", 50, "--config", cfg) == 0
        assert run("train", "--data", train_csv, "--out", model_json, "--config", cfg) == 0
        model = load_model(model_json)
        assert model.decode_config.rest_threshold == 0.1
        assert model.sorted_dofs() == [D1, Dof.PRONATION_SUPINATION]
        assert run("evaluate", "--test", test_csv, "--train-data", train_csv,
                   "--csv-out", report_csv, "--config", cfg) == 0
        sizes = [line.split(",")[0] for line in report_csv.read_text().splitlines()[1:]]
        assert sizes == ["5", "10"]
        capsys.readouterr()

    def test_unknown_key_rejected(self, tmp_path, synth_files, capsys):
        train_csv, _ = synth_files
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("wibble = 3\n")
        code = run("train", "--data", train_csv, "--out", tmp_path / "m.json", "--config", cfg)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qmyo: data error: {cfg}:1: unknown setting 'wibble'"]

    def test_cli_overrides_file(self, tmp_path, synth_files, capsys):
        train_csv, _ = synth_files
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("rest_threshold = 0.2\n")
        model_a = tmp_path / "a.json"
        model_b = tmp_path / "b.json"
        run("train", "--data", train_csv, "--out", model_a, "--config", cfg)
        run(
            "train",
            "--data", train_csv,
            "--out", model_b,
            "--config", cfg,
            "--rest-threshold", 0.3,
        )
        assert load_model(model_a).decode_config.rest_threshold == 0.2
        assert load_model(model_b).decode_config.rest_threshold == 0.3
        capsys.readouterr()


class TestModelThresholds:
    """Decode thresholds for a model file: flag > config file > the model's own."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        assert run("synth", "--train-out", train_csv, "--test-out", test_csv, "--per-action", 40,
                   "--blocks", 11, "--windows", 220, "--noise-sigma", 0.2, "--seed", 3) == 0
        for name, flags in (("plain.json", []), ("strict.json", ["--rest-threshold", 0.6])):
            assert run("train", "--data", train_csv, "--out", tmp_path / name, *flags) == 0
        (tmp_path / "strict.cfg").write_text("rest_threshold = 0.6\n")
        capsys.readouterr()
        return tmp_path

    def report(self, capsys, files, model, *flags):
        assert run("evaluate", "--test", files / "test.csv", "--model", files / model, *flags) == 0
        return capsys.readouterr().out

    def test_config_file_threshold_replaces_the_models(self, files, capsys):
        plain = self.report(capsys, files, "plain.json")
        by_flag = self.report(capsys, files, "plain.json", "--rest-threshold", 0.6)
        by_file = self.report(capsys, files, "plain.json", "--config", files / "strict.cfg")
        assert by_file == by_flag != plain
        flag_over_file = self.report(capsys, files, "plain.json", "--config", files / "strict.cfg",
                                     "--rest-threshold", 0.05)
        assert flag_over_file == plain

    def test_one_flag_keeps_the_models_other_thresholds(self, files, capsys):
        strict = self.report(capsys, files, "strict.json")
        assert self.report(capsys, files, "strict.json", "--overlap-epsilon", 1e-6) == strict
        assert strict != self.report(capsys, files, "plain.json")
        outputs = []
        for flags in ([], ["--overlap-epsilon", 1e-6]):
            out = files / f"decoded{len(flags)}.csv"
            assert run("decode", "--model", files / "strict.json", "--data", files / "test.csv",
                       "--out", out, *flags) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()


class TestDeterministicArtifacts:
    def test_same_seed_same_files(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            train_csv = tmp_path / f"train_{tag}.csv"
            test_csv = tmp_path / f"test_{tag}.csv"
            report = tmp_path / f"report_{tag}.txt"
            run(
                "synth",
                "--train-out", train_csv,
                "--test-out", test_csv,
                "--per-action", 12,
                "--blocks", 5,
                "--windows", 50,
                "--noise-sigma", 0.1,
                "--seed", 77,
            )
            run(
                "evaluate",
                "--test", test_csv,
                "--train-data", train_csv,
                "--sizes", 4, 12,
                "--seed", 77,
                "--report-out", report,
            )
            outputs.append(
                (train_csv.read_text(), test_csv.read_text(), report.read_text())
            )
        assert outputs[0] == outputs[1]
        capsys.readouterr()


def _model_doc(version):
    """The fixture's model as a ``version`` document: the file itself for 3, with
    the block vote format 2 also stored for 2, with the operator triple format 1
    also stored for 1, and with only the version changed for 2.0, 3.0 or true."""
    doc = json.loads(V3_MODEL.read_text())
    if type(version) is int and version == 2:
        doc["decode_config"]["block_vote"] = "majority"
    elif type(version) is int and version == 1:
        model = load_model(V3_MODEL)
        for key, entry in doc["dofs"].items():
            ops = model.dofs[Dof(key)]
            for name, op in (("p_positive", ops.p_pos), ("p_negative", ops.p_neg),
                             ("p_zero", ops.p_zero)):
                entry[name] = op.matrix.tolist()
    return doc | {"format_version": version}


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return mutate


def _drop(*path):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return mutate


# Each mutation edits the JSON document, or the text for "malformed"/"truncated".
MODEL_MUTATIONS = {
    "malformed": lambda text: text.replace(":", "=", 1),
    "truncated": lambda text: text[: len(text) // 2],
    "not-an-object": lambda text: "[1, 2]",
    "missing-key": _drop("dofs", "d1", "theta_positive_max"),
    "missing-prototype": _drop("dofs", "d3", "prototype_negative"),
    "wrong-type-dofs": _set(("dofs",), ["d1", "d3"]),
    "wrong-type-config": _set(("decode_config",), 0.05),
    "wrong-type-angle": _set(("dofs", "d1", "theta_negative_max"), [1.0]),
    "unknown-dof": lambda doc: doc["dofs"].update(d9=doc["dofs"].pop("d1")),
    "nan-prototype": _set(("dofs", "d1", "prototype_positive", 0), math.nan),
    "non-unit-prototype": _set(("dofs", "d1", "prototype_positive", 0), lambda v: 1.5 * v),
    "wrong-length-prototype": lambda doc: [
        entry[key].append(0.0)
        for entry in doc["dofs"].values()
        for key in ("prototype_positive", "prototype_negative")
    ],
    "zero-angle": _set(("dofs", "d3", "theta_positive_max"), 0.0),
    "nan-threshold": _set(("decode_config", "rest_threshold"), math.nan),
    "bool-threshold": _set(("decode_config", "rest_threshold"), True),
    "infinite-threshold": _set(("decode_config", "rest_threshold"), math.inf),
    "huge-threshold": _set(("decode_config", "rest_threshold"), 10**400),
    "huge-angle": _set(("dofs", "d1", "theta_positive_max"), 10**400),
    "huge-prototype": _set(("dofs", "d1", "prototype_positive", 0), 10**400),
    "huge-overlap": _set(("dofs", "d3", "overlap"), 10**400),
    "bool-angle": _set(("dofs", "d3", "theta_negative_max"), True),
    "string-angle": _set(("dofs", "d1", "theta_positive_max"), "40"),
    "string-overlap": _set(("dofs", "d3", "overlap"), str),
    "string-prototype": _set(("dofs", "d1", "prototype_negative", 0), str),
    "null-threshold": _set(("decode_config", "rest_threshold"), None),
    "number-prototype": _set(("dofs", "d3", "prototype_positive"), 0.5),
    "infinite-channels": _set(("n_channels",), math.inf),
    "fractional-channels": _set(("n_channels",), 4.5),
    "unknown-version": _set(("format_version",), 4),
    "missing-version": _drop("format_version"),
    "overlap": _set(("dofs", "d1", "overlap"), lambda v: v + 1e-6),
    "unknown-block-vote": _set(("decode_config", "block_vote"), "most"),
    "p_zero": _set(("dofs", "d3", "p_zero", 2, 1), lambda v: v + 1e-6),
    "p_positive-shape": _set(("dofs", "d3", "p_positive"), lambda m: m[:3]),
}


def _model_cases():
    """Each mutation of a format-3 file, and of a format-1 and a format-2 file,
    which no longer load whatever else is wrong with them."""
    for version in (1, 2, 3):
        for name in MODEL_MUTATIONS:
            if version > 1 and name.startswith("p_"):
                continue  # only format 1 stored operator matrices
            yield version, name


# Mutations after which the document is no JSON object with a format version.
_VERSIONLESS = ("malformed", "truncated", "not-an-object", "unknown-version", "missing-version")


class TestModelFileErrors:
    """Whatever is wrong with a model file, every command reading it exits 2; so
    does any format-1 or format-2 file, which no longer loads."""

    @staticmethod
    def write_model(tmp_path, version, mutation=None):
        doc = _model_doc(version)
        mutate = MODEL_MUTATIONS.get(mutation)
        if mutation in ("malformed", "truncated", "not-an-object"):
            text = mutate(json.dumps(doc, indent=1))
        else:
            if mutate is not None:
                mutate(doc)
            text = json.dumps(doc, indent=1)
        path = tmp_path / f"model_v{version}.json"
        path.write_text(text)
        return path

    @staticmethod
    def argv(command, model, tmp_path):
        return {
            "inspect-model": ["inspect-model", "--model", model],
            "decode": ["decode", "--model", model, "--data", V1_TRAIN, "--out", tmp_path / "d.csv"],
            "evaluate": ["evaluate", "--test", V1_TRAIN, "--model", model],
        }[command]

    @pytest.mark.parametrize("command", ["inspect-model", "decode", "evaluate"])
    @pytest.mark.parametrize("version", [3])  # each format that loads
    def test_valid_files_load(self, tmp_path, capsys, version, command):
        model = self.write_model(tmp_path, version)
        assert run(*self.argv(command, model, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["inspect-model", "decode", "evaluate"])
    @pytest.mark.parametrize("version", [1, 2, 2.0, 3.0, True], ids=["1", "2", "2.0", "3.0", "true"])
    def test_only_the_integer_3_loads(self, tmp_path, capsys, version, command):
        """Only the JSON int 3 loads: formats 1 and 2 no longer do, and 2.0, 3.0
        and true are refused too, though they compare equal to an int version."""
        model = self.write_model(tmp_path, version)
        assert run(*self.argv(command, model, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"qmyo: data error: {model}: unsupported model format version: {version!r}\n"
        )

    @pytest.mark.parametrize("command", ["inspect-model", "decode", "evaluate"])
    @pytest.mark.parametrize("version,mutation", list(_model_cases()))
    def test_bad_file_is_data_error(self, tmp_path, capsys, version, mutation, command):
        model = self.write_model(tmp_path, version, mutation)
        capsys.readouterr()
        assert run(*self.argv(command, model, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"qmyo: data error: {model}: ")
        if version != 3 and mutation not in _VERSIONLESS:
            assert lines[0].endswith(f": unsupported model format version: {version}")

    @pytest.mark.parametrize("key_path,name", [
        (("decode_config", "rest_threshold"), "decode_config.rest_threshold"),
        (("decode_config", "overlap_epsilon"), "decode_config.overlap_epsilon"),
        (("dofs", "d1", "theta_positive_max"), "d1: theta_positive_max"),
        (("dofs", "d3", "theta_negative_max"), "d3: theta_negative_max"),
        (("dofs", "d3", "overlap"), "d3: overlap"),
    ])
    def test_integer_past_float_range_names_its_key(self, tmp_path, capsys, key_path, name):
        doc = _model_doc(3)
        _set(key_path, 10**400)(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("inspect-model", "--model", model) == 2
        assert capsys.readouterr().err == (
            f"qmyo: data error: {model}: {name}: int too large to convert to float\n"
        )

    @pytest.mark.parametrize("key_path,value,reason", [
        (("dofs", "d1", "theta_positive_max"), "40",
         'd1: theta_positive_max: must be a number, got "40"'),
        (("dofs", "d3", "theta_negative_max"), None,
         "d3: theta_negative_max: must be a number, got null"),
        (("dofs", "d3", "overlap"), "0.01", 'd3: overlap: must be a number, got "0.01"'),
        (("dofs", "d1", "prototype_negative", 0), "0.5",
         'd1: prototype_negative: must be a number, got "0.5"'),
        (("dofs", "d3", "prototype_positive"), 0.5,
         "d3: prototype_positive: must be a list of numbers, got 0.5"),
        (("decode_config", "rest_threshold"), None,
         "decode_config.rest_threshold: must be a number, got null"),
        (("decode_config", "overlap_epsilon"), "1e-6",
         'decode_config.overlap_epsilon: must be a number, got "1e-6"'),
        (("decode_config", "rest_threshold"), [0.05],
         "decode_config.rest_threshold: must be a number, got [0.05]"),
    ], ids=["string-angle", "null-angle", "string-overlap", "string-cell", "number-prototype",
            "null-threshold", "string-threshold", "list-threshold"])
    def test_non_number_names_its_key(self, tmp_path, capsys, key_path, value, reason):
        """Only a JSON int or float reads as a number; "40" no longer reads as 40.0."""
        doc = _model_doc(3)
        _set(key_path, value)(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("inspect-model", "--model", model) == 2
        assert capsys.readouterr().err == f"qmyo: data error: {model}: {reason}\n"

    @pytest.mark.parametrize("command", ["inspect-model", "decode", "evaluate"])
    @pytest.mark.parametrize("mutate,reason", [
        (_set(("decode_config",), 0.05), "decode_config: must be a JSON object, got 0.05"),
        (_set(("dofs",), ["d1"]), 'dofs: must be a JSON object, got ["d1"]'),
        (_set(("dofs", "d1"), 5), "d1: must be a JSON object, got 5"),
        (_set(("dofs", "d3"), None), "d3: must be a JSON object, got null"),
        (lambda doc: [1, 2], "top level: must be a JSON object, got [1, 2]"),
    ], ids=["number-config", "list-dofs", "number-entry", "null-entry", "list-document"])
    def test_non_object_names_its_key(self, tmp_path, capsys, command, mutate, reason):
        """A config, DOF table, DOF entry or document that is no JSON object is
        refused with a reason that names its key."""
        doc = _model_doc(3)
        doc = mutate(doc) or doc
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run(*self.argv(command, model, tmp_path)) == 2
        assert capsys.readouterr().err == f"qmyo: data error: {model}: {reason}\n"

    @pytest.mark.parametrize("name", ["prototype_positive", "prototype_negative"])
    @pytest.mark.parametrize("cell,reason", [
        (10**400, "int too large to convert to float"),
        (math.nan, "amplitudes must be finite"),
        (0.0, "state is not unit norm: sum of squares = "),
    ], ids=["huge", "nan", "non-unit"])
    def test_prototype_fault_names_its_key(self, tmp_path, capsys, name, cell, reason):
        doc = _model_doc(3)
        proto = doc["dofs"]["d3"][name]
        proto[int(np.argmax(np.abs(proto)))] = cell  # 0.0 there leaves a non-unit state
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("inspect-model", "--model", model) == 2
        assert capsys.readouterr().err.startswith(f"qmyo: data error: {model}: d3: {name}: {reason}")

    @pytest.mark.parametrize("mutation,reason", [
        (_drop("dofs", "d3", "theta_positive_max"), "d3: missing key 'theta_positive_max'"),
        (_set(("dofs", "d3", "prototype_negative"), [0.6, 0.8, 0.0]),
         "d3: prototype dimensions differ: 4 vs 3"),
        (_set(("dofs", "d3", "theta_positive_max"), 0),
         "d3: theta_positive_max: must be finite and > 0, got 0.0"),
        (_set(("dofs", "d1", "theta_negative_max"), -1e308),
         "d1: theta_negative_max: must be finite and > 0, got -1e+308"),
    ], ids=["missing-angle", "prototype-lengths", "zero-angle", "negative-angle"])
    def test_dof_fault_names_its_dof(self, tmp_path, capsys, mutation, reason):
        """Every fault in a DOF's entry is named by its DOF, once."""
        doc = _model_doc(3)
        mutation(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        for argv in (self.argv(command, model, tmp_path) for command in ("inspect-model", "decode")):
            assert run(*argv) == 2
            assert capsys.readouterr().err == f"qmyo: data error: {model}: {reason}\n"

    def test_true_in_a_unit_prototype_is_refused(self, tmp_path, capsys):
        """A JSON true where the prototype holds 1 would read as 1.0 and load."""
        doc = _model_doc(3)
        proto = doc["dofs"]["d1"]["prototype_positive"]
        proto[:] = [True] + [0] * (len(proto) - 1)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        doc["dofs"]["d1"]["prototype_positive"] = [1.0] + [0.0] * (len(proto) - 1)
        doc["dofs"]["d1"]["overlap"] = doc["dofs"]["d1"]["prototype_negative"][0] ** 2
        model_ok = tmp_path / "model_ok.json"
        model_ok.write_text(json.dumps(doc))
        assert run("inspect-model", "--model", model_ok) == 0
        capsys.readouterr()
        assert run("inspect-model", "--model", model) == 2
        assert capsys.readouterr().err == (f"qmyo: data error: {model}: d1: prototype_positive: "
                                           "must be a number, got true\n")

    def test_tampered_p_zero_from_the_shell(self, tmp_path):
        """Format 1 no longer loads, so its stored matrices are never read."""
        model = self.write_model(tmp_path, 1, "p_zero")
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "qmyo.cli", "inspect-model", "--model", str(model)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"qmyo: data error: {model}: unsupported model format version: 1\n"


def _key_paths(node, path=()):
    """Every key or index path into a JSON document, containers included."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _key_paths(child, path + (key,))


_DROP = object()
# 10**400 is a JSON integer that no float holds.
_ODD_VALUES = (_DROP, None, "x", [], {}, -1, 0, 1e308, 10**400, math.nan, math.inf, -math.inf,
               True)


def test_mutated_model_files_end_in_an_exit_code(tmp_path, capsys):
    """Each key path of a model dropped or set to an odd JSON value: inspect-model,
    and decode where a decode threshold changed, succeed quietly or exit 1-3 with
    one ``qmyo:`` line, and nothing warns."""
    doc, path = _model_doc(3), tmp_path / "model.json"
    inspect = ("inspect-model", "--model", path)
    decode = ("decode", "--model", path, "--data", V1_TRAIN, "--out", tmp_path / "d.csv")
    failures, runs = [], 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for key_path in _key_paths(doc):
            # inspect-model reads the thresholds without deciding anything with them
            argvs = (inspect, decode) if key_path[0] == "decode_config" else (inspect,)
            for value, argv in itertools.product(_ODD_VALUES, argvs):
                mutated = copy.deepcopy(doc)
                (_drop(*key_path) if value is _DROP else _set(key_path, value))(mutated)
                path.write_text(json.dumps(mutated))
                shown = "dropped" if value is _DROP else "10**400" if value == 10**400 else repr(value)
                case = f"{argv[0]} {'/'.join(map(str, key_path))} {shown}"
                runs += 1
                try:
                    code = run(*argv)
                except Exception as exc:  # the shell would print a traceback
                    code = exc
                lines = capsys.readouterr().err.splitlines()
                if isinstance(code, Exception):
                    failures.append(f"{case}: raised {code!r}")
                elif code == 0 and lines:
                    failures.append(f"{case}: exit 0 with stderr {lines}")
                elif code != 0 and (code not in (1, 2, 3) or len(lines) != 1
                                    or not lines[0].startswith("qmyo:")):
                    failures.append(f"{case}: exit {code} with stderr {lines}")
                failures += [f"{case}: warned {w.message}" for w in caught]
                caught.clear()
    assert runs > 300 and failures == []


def shell(cwd, *argv):
    """Run ``python -m qmyo argv`` in ``cwd`` as a shell would."""
    src = str(Path(__file__).parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "qmyo", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = shell(tmp_path, "inspect-model", "--model", V3_MODEL)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("channels: 4\n")
    assert "[d3]" in proc.stdout


HEADER_ONLY = "ch1,ch2,ch3,ch4,d1_angle,d2_angle,d3_angle,phase,block\r\n"


@pytest.mark.parametrize("command,text", [
    ("train --data {bad} --out m.json", HEADER_ONLY),
    ("decode --model {model} --data {bad} --out d.csv", HEADER_ONLY),
    ("decode --model {model} --raw {bad} --out d.csv", "\r\n\r\n\r\n"),
    ("decode --model {model} --raw {bad} --out d.csv", "\r\n1.0\r\n"),
    ("inspect-model --model {bad}", None),
], ids=["header-only-train", "header-only-decode", "blank-raw", "blank-header-raw", "bad-model"])
def test_bad_input_prints_one_line_from_the_shell(tmp_path, command, text):
    """A shell sees exit 2 and one ``qmyo:`` stderr line naming the file, and
    no warning a logger or numpy would print beside it."""
    if text is None:
        bad = TestModelFileErrors.write_model(tmp_path, 3, "truncated")
    else:
        (bad := tmp_path / "bad.csv").write_bytes(text.encode())
    proc = shell(tmp_path, *command.format(bad=bad, model=V3_MODEL).split())
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"qmyo: data error: {bad}: ")


def test_learning_curve_on_rows_grouped_by_dof_names_the_short_prefix(tmp_path):
    """Every prefix trains the largest prefix's DOFs; the first 10 rows hold no d3."""
    header, *rows = V1_TRAIN.read_text().splitlines()
    grouped = tmp_path / "grouped.csv"
    grouped.write_text("\n".join([header] + sorted(rows, key=lambda r: r.split(",")[4] == "0.0"))
                       + "\n")
    proc = shell(tmp_path, "learning-curve", "--data", grouped, "--sizes", 10, 20)
    assert (proc.returncode, proc.stderr) == (
        2, "qmyo: data error: size 10: no positive training samples for d3\n")
    proc = shell(tmp_path, "learning-curve", "--data", grouped, "--sizes", 12, 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "samples,overlap_d1,overlap_d3"


@pytest.mark.parametrize("command, setting", [
    ("evaluate --test {data} --train-data {data}", "sizes ="),
    ("evaluate --test {data} --train-data {data}", "sizes = ,"),
    ("synth --train-out a.csv --test-out b.csv", "dofs = , ,"),
])
def test_empty_config_list_is_data_error_at_its_line(tmp_path, command, setting):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"seed = 1\n{setting}\n")
    proc = shell(tmp_path, *command.format(data=V1_TRAIN).split(), "--config", cfg)
    value = setting.partition("=")[2].strip()
    assert (proc.returncode, proc.stderr) == (
        2, f"qmyo: data error: {cfg}:2: must list one or more values, got {value!r}\n")
    assert not (tmp_path / "a.csv").exists()


@pytest.fixture
def three_dof_train_csv(tmp_path):
    train_csv = tmp_path / "train.csv"
    assert run("synth", "--train-out", train_csv, "--test-out", tmp_path / "test.csv",
               "--channels", 12, "--dofs", "d1", "d2", "d3", "--seed", 3,
               "--per-action", 20, "--blocks", 11, "--windows", 110) == 0
    return train_csv


@pytest.mark.parametrize("setting, flags, want", [
    ("dofs = d1, d3", [], "d1,d3"),
    ("dofs = d1, d3", ["--dofs", "d2"], "d2"),
    ("seed = 1", [], "d1,d2,d3"),
])
def test_train_and_evaluate_resolve_dofs_flag_then_config_then_data(
        tmp_path, capsys, three_dof_train_csv, setting, flags, want):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"{setting}\n")
    model_json = tmp_path / "m.json"
    assert run("train", "--data", three_dof_train_csv, "--out", model_json,
               "--config", cfg, *flags) == 0
    assert ",".join(dof.value for dof in load_model(model_json).sorted_dofs()) == want
    capsys.readouterr()
    assert run("evaluate", "--test", three_dof_train_csv, "--train-data", three_dof_train_csv,
               "--sizes", 10, "--config", cfg, *flags) == 0
    assert f"dofs: {want}\n" in capsys.readouterr().out


def test_train_dofs_subsets_and_counts_only_their_rows(tmp_path, capsys):
    """With --dofs, --size and the printed count take the named DOFs' rows alone: d3's
    short supply is not refused, and the model is the one d1's rows alone give."""
    mixing = default_mixing_model(noise_sigma=0.1, seed=4)
    d1_rows, d3_rows = (table.rows(table.dof_index == DOFS.index(dof)) for table, dof in (
        (generate_training_table(mixing, 40), D1),
        (generate_training_table(mixing, 20), Dof.PRONATION_SUPINATION)))
    printed, models = [], []
    for name, table in (("both", TrainingTable(*map(np.concatenate, zip(d1_rows, d3_rows)))),
                        ("d1", d1_rows)):
        data, model_json = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        save_feature_dataset(from_training_table(table), data)
        for size, count in ((["--size", 30], 60), ([], 80)):
            assert run("train", "--data", data, "--out", model_json, "--dofs", "d1", *size) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"trained 1 DOF(s) on {count} samples -> {model_json}\n")
            printed.append(out.replace(str(model_json), "m.json"))
        models.append(model_json.read_bytes())
    assert printed[:2] == printed[2:] and models[0] == models[1]


def test_three_dof_synth_train_evaluate(tmp_path, capsys):
    train_csv, test_csv, model_json = (tmp_path / n for n in ("train.csv", "test.csv", "m.json"))
    assert run(
        "synth", "--train-out", train_csv, "--test-out", test_csv, "--channels", 12,
        "--dofs", "d1", "d2", "d3", "--noise-sigma", 0.05, "--seed", 2,
        "--per-action", 40, "--blocks", 33, "--windows", 330,
    ) == 0
    test = load_feature_dataset(test_csv)
    assert (np.ptp(test.angles, axis=0) > 0).all()
    assert run("train", "--data", train_csv, "--out", model_json) == 0
    assert run("evaluate", "--test", test_csv, "--model", model_json) == 0
    out = capsys.readouterr().out
    assert "dofs: d1,d2,d3" in out


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_reader_closing_the_pipe_early_exits_1_without_traceback(tmp_path, unbuffered):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qmyo", "inspect-model", "--model", str(V3_MODEL)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=tmp_path,
        )
        proc.stdout.close()  # the reader leaves before the first line is written
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "stderr.txt").read_text() == ""


def test_training_commands_build_no_per_row_objects(tmp_path, monkeypatch, capsys):
    """synth, train, evaluate --train-data and learning-curve stay on arrays."""
    built = []
    for cls in (FeatureVector, TrainingSample):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    for argv in [
        ("synth", "--train-out", train_csv, "--test-out", test_csv, "--per-action", 40,
         "--blocks", 11, "--windows", 220, "--noise-sigma", 0.1, "--seed", 3),
        ("train", "--data", train_csv, "--out", tmp_path / "m.json", "--size", 30),
        ("evaluate", "--test", test_csv, "--train-data", train_csv, "--sizes", 10, 40),
        ("learning-curve", "--data", train_csv, "--sizes", 8, 160),
    ]:
        assert run(*argv) == 0, argv
    assert built == []
    # the guard does count: the list API builds one of each per row
    training_table(load_feature_dataset(train_csv)).samples()
    assert len(built) == 2 * 160


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_training_angle_is_data_error(tmp_path, capsys, value):
    lines = V1_TRAIN.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = value  # d1_angle of CSV line 4
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    for argv in (["train", "--data", bad, "--out", tmp_path / "m.json"],
                 ["learning-curve", "--data", bad, "--sizes", 2]):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"qmyo: data error: {bad}:4: d1_angle value {float(value)!r} is not finite\n"


@pytest.mark.parametrize("line,value,direction", [(2, "1e308", "positive"),
                                                   (3, "-1e308", "negative")])
def test_training_angle_whose_weighted_sum_overflows_is_model_error(
        tmp_path, capsys, line, value, direction):
    """A finite angle whose weighted state sum passes float range ends in one line."""
    lines = V1_TRAIN.read_text().splitlines()
    cells = lines[line - 1].split(",")  # the first d1 row of that direction
    assert float(cells[4]) * float(value) > 0
    cells[4] = value
    big = tmp_path / "big.csv"
    big.write_text("\n".join(lines[:line - 1] + [",".join(cells)] + lines[line:]) + "\n")
    for argv in (["train", "--data", big, "--out", tmp_path / "m.json"],
                 ["evaluate", "--test", V1_TRAIN, "--train-data", big, "--sizes", 2],
                 ["learning-curve", "--data", big, "--sizes", 10, 20]):
        assert run(*argv) == 3
        assert capsys.readouterr() == (
            "", f"qmyo: model error: d1 {direction}: weighted state sum overflows\n")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("rows, message", [
    ([b"1,-1,5,0,0,direct,0"], "ch2 value -1.0 is not a finite, non-negative mav feature"),
    ([b"1,1,nan,0,0,direct,0"], "d1_angle value nan is not finite"),
    ([b"1,1,5,0,0,direct,1", b"1,1,-5,0,0,direct,0"], "block id 0 appears in non-contiguous runs"),
    ([b"1,1,5,5,0,direct,0"], "training rows must activate exactly one DOF, got d1, d2"),
])
def test_dataset_error_after_a_multi_line_cell_names_the_file_line(tmp_path, capsys, rows, message):
    # the quoted cell spans lines 2 and 3, so the third row starts on line 5
    path = tmp_path / "ml.csv"
    path.write_bytes(b"\r\n".join([b"ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block",
                                   b'"1\r\n",1,5,0,0,direct,0', b"1,1,-5,0,0,direct,0", *rows,
                                   b""]))
    assert run("train", "--data", path, "--out", tmp_path / "m.json") == 2
    line = 6 if "block id" in message else 5
    assert capsys.readouterr().err == f"qmyo: data error: {path}:{line}: {message}\n"


@pytest.mark.parametrize("block", ["99999999999999999999", "-9223372036854775809"])
def test_block_id_beyond_int64_is_data_error(tmp_path, capsys, block):
    lines = V1_TRAIN.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0] + f",{block}"]) + "\n")
    for argv in (["train", "--data", bad, "--out", tmp_path / "m.json"],
                 ["evaluate", "--test", bad, "--model", V3_MODEL]):
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"qmyo: data error: {bad}:{len(lines)}: block id {block} is outside the int64 range\n")


def test_constant_truth_on_a_trained_dof_names_the_dof(tmp_path, capsys):
    # a d1/d2 model scored on a d1/d3 test set, where d2 never moves
    files = {name: tmp_path / f"{name}.csv" for name in ("train", "test", "unused")}
    for dofs, train_out, test_out in ((["d1", "d2"], files["train"], files["unused"]),
                                      (["d1", "d3"], files["unused"], files["test"])):
        assert run("synth", "--train-out", train_out, "--test-out", test_out, "--dofs", *dofs,
                   "--per-action", 20, "--blocks", 11, "--windows", 110, "--seed", 3) == 0
    model_json = tmp_path / "m.json"
    assert run("train", "--data", files["train"], "--out", model_json) == 0
    capsys.readouterr()
    assert run("evaluate", "--test", files["test"], "--model", model_json) == 3
    assert capsys.readouterr().err == (
        "qmyo: model error: d2: true trajectory is constant; the performance index is undefined\n")
