"""Command-line interface behavior and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmyo.cli import load_config_file, main
from qmyo.features import save_recording
from qmyo.operators import (
    Direction,
    Dof,
    load_model,
    model_to_dict,
    save_model,
    train,
)
from qmyo.synthetic import generate_raw_emg, generate_training_set, orthogonal_mixing_model
from qmyo.datasets import (
    from_training_samples,
    load_feature_dataset,
    save_feature_dataset,
    to_training_samples,
)
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import TrainingSample

D1 = Dof.FLEXION_EXTENSION
DATA = Path(__file__).parent / "data"
V1_MODEL = DATA / "model_v1.json"  # format 1, 4 channels, d1 and d3
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

    def test_zero_window_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("decode", "--model", V1_MODEL, "--raw", V1_TRAIN, "--out", tmp_path / "d.csv",
                "--window-ms", 0)
        assert exc.value.code == 1
        assert "argument --window-ms: invalid positive float value: '0'" in capsys.readouterr().err

    def test_window_under_two_samples_is_data_error(self, tmp_path, capsys):
        raw_csv = tmp_path / "raw.csv"
        save_recording(generate_raw_emg(orthogonal_mixing_model(seed=2), {D1: 25.0}, 0.1), raw_csv)
        code = run("decode", "--model", V1_MODEL, "--raw", raw_csv, "--out", tmp_path / "d.csv",
                   "--window-ms", 1)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["qmyo: data error: a 1.0 ms window spans under 2 samples at 1024.0 Hz"]

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
        code = run("decode", "--model", V1_MODEL, "--raw", V1_TRAIN, "--out", tmp_path / "d.csv",
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

    @staticmethod
    def usage_error(capsys, argv):
        """Run ``argv``, expect exit 1, and return its one ``qmyo`` error line."""
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("usage: qmyo")
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
            "decode": ["decode", "--model", V1_MODEL, "--data", V1_TRAIN,
                       "--out", tmp_path / "d.csv"],
            "evaluate": ["evaluate", "--test", V1_TRAIN, "--model", V1_MODEL],
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
            ("synth", ["--dofs", "d1", "d1"], "argument --dofs: needs two or more distinct DOFs"),
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

    def test_decreasing_learning_curve_sizes_are_usage_error(self, tmp_path, capsys):
        line = self.usage_error(capsys, ["learning-curve", "--data", V1_TRAIN, "--sizes", 10, 5])
        assert line == "qmyo: error: argument --sizes: must be strictly increasing, got 10 5"

    def test_learning_curve_size_beyond_the_data_is_data_error(self, tmp_path, capsys):
        n = len(to_training_samples(load_feature_dataset(V1_TRAIN)))
        line = self.data_error(capsys, ["learning-curve", "--data", V1_TRAIN, "--sizes", n + 1])
        assert line == f"{V1_TRAIN}: size {n + 1} exceeds its {n} samples"

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
        assert line == "qmyo: error: argument --dofs: needs two or more distinct DOFs"
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


def _v2_doc():
    """The format-1 fixture's model, as format 2 writes it."""
    return json.loads(json.dumps(model_to_dict(load_model(V1_MODEL))))


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
    "unknown-version": _set(("format_version",), 3),
    "missing-version": _drop("format_version"),
    "overlap": _set(("dofs", "d1", "overlap"), lambda v: v + 1e-6),
    "p_zero": _set(("dofs", "d3", "p_zero", 2, 1), lambda v: v + 1e-6),
    "p_positive-shape": _set(("dofs", "d3", "p_positive"), lambda m: m[:3]),
}


def _model_cases():
    for version in (1, 2):
        for name in MODEL_MUTATIONS:
            if version == 2 and name.startswith("p_"):
                continue  # format 2 stores no operator matrices
            yield version, name


class TestModelFileErrors:
    """Whatever is wrong with a model file, every command reading it exits 2."""

    @staticmethod
    def write_model(tmp_path, version, mutation=None):
        doc = json.loads(V1_MODEL.read_text()) if version == 1 else _v2_doc()
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
    @pytest.mark.parametrize("version", [1, 2])
    def test_valid_files_load(self, tmp_path, capsys, version, command):
        model = self.write_model(tmp_path, version)
        assert run(*self.argv(command, model, tmp_path)) == 0
        assert capsys.readouterr().err == ""

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

    def test_tampered_p_zero_from_the_shell(self, tmp_path):
        model = self.write_model(tmp_path, 1, "p_zero")
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "qmyo.cli", "inspect-model", "--model", str(model)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"qmyo: data error: {model}: d3: stored p_zero deviates from")


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qmyo", "inspect-model", "--model", str(V1_MODEL)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("channels: 4\n")
    assert "[d3]" in proc.stdout


def test_three_dof_synth_train_evaluate(tmp_path, capsys):
    train_csv, test_csv, model_json = (tmp_path / n for n in ("train.csv", "test.csv", "m.json"))
    assert run(
        "synth", "--train-out", train_csv, "--test-out", test_csv, "--channels", 12,
        "--dofs", "d1", "d2", "d3", "--noise-sigma", 0.05, "--seed", 2,
        "--per-action", 40, "--blocks", 33, "--windows", 330,
    ) == 0
    test = load_feature_dataset(test_csv)
    for dof in Dof:
        assert np.ptp(test.angles[dof]) > 0, dof
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
            [sys.executable, "-m", "qmyo", "inspect-model", "--model", str(V1_MODEL)],
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
    to_training_samples(load_feature_dataset(train_csv))
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
