"""Command-line interface behavior and exit codes."""

import numpy as np
import pytest

from qmyo.cli import load_config_file, main
from qmyo.features import save_recording
from qmyo.operators import (
    Direction,
    Dof,
    load_model,
    save_model,
    train,
)
from qmyo.synthetic import generate_raw_emg, generate_training_set, orthogonal_mixing_model
from qmyo.datasets import from_training_samples, save_feature_dataset
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import TrainingSample

D1 = Dof.FLEXION_EXTENSION


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


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(
            "# comment\n"
            "rest_threshold = 0.1\n"
            "sizes = 5,10\n"
            "dofs = d1,d3\n"
        )
        settings = load_config_file(cfg)
        assert settings["rest_threshold"] == 0.1
        assert settings["sizes"] == (5, 10)
        assert settings["dofs"] == (D1, Dof.PRONATION_SUPINATION)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("wibble = 3\n")
        from qmyo.errors import DataError

        with pytest.raises(DataError):
            load_config_file(cfg)

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
