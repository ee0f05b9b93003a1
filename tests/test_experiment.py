"""Experiment runs, reports and their determinism."""

import numpy as np
import pytest

from qmyo.datasets import from_test_set, from_training_samples, training_table
from qmyo.errors import ConfigurationError, DimensionError
from qmyo.experiment import (
    ExperimentConfig,
    evaluate_model,
    render_report_csv,
    render_report_text,
    report_for_model,
    run_experiment,
    subset_per_action,
)
from qmyo.operators import DecodeConfig, Dof, train_table
from qmyo.synthetic import (
    default_scenario,
    generate_test_scenario,
    generate_training_set,
    orthogonal_mixing_model,
)

D1 = Dof.FLEXION_EXTENSION
D3 = Dof.PRONATION_SUPINATION


def make_data(per_action=60, noise_sigma=0.0, seed=0, n_blocks=11, windows=110):
    mixing = orthogonal_mixing_model(noise_sigma=noise_sigma, seed=seed)
    samples = generate_training_set(mixing, per_action)
    train_ds = from_training_samples(samples, mixing.n_channels)
    scenario = default_scenario(dofs=mixing.dofs, n_blocks=n_blocks, total_windows=windows)
    test_ds = from_test_set(generate_test_scenario(mixing, scenario))
    return train_ds, test_ds


class TestRunExperiment:
    def test_one_result_row_per_training_size(self):
        train_ds, test_ds = make_data(per_action=50)
        cfg = ExperimentConfig(training_sizes=(10, 50), seed=0)
        report = run_experiment(cfg, train_ds, test_ds)
        assert [r.training_size for r in report.results] == [10, 50]
        assert report.n_windows == 110
        assert report.n_blocks == 11
        for result in report.results:
            assert set(result.r2_per_dof) == {D1, D3}
            assert set(result.overlaps) == {D1, D3}
            assert len(result.decoded) == 110

    def test_training_size_exceeding_data(self):
        train_ds, test_ds = make_data(per_action=20)
        cfg = ExperimentConfig(training_sizes=(21,), seed=0)
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, train_ds, test_ds)

    def test_channel_mismatch(self):
        train_ds, _ = make_data()
        _, test_ds = make_data()
        narrow = ExperimentConfig(training_sizes=(5,))
        bad_test = from_test_set(
            generate_test_scenario(
                orthogonal_mixing_model(n_channels=12, seed=1),
                default_scenario(n_blocks=4, total_windows=16),
            )
        )
        with pytest.raises(DimensionError):
            run_experiment(narrow, train_ds, bad_test)

    def test_empty_test_set_rejected(self):
        train_ds, test_ds = make_data()
        model = train_table(subset_per_action(training_table(train_ds), 5))
        empty = type(test_ds)(
            features=np.zeros((0, test_ds.n_channels)),
            angles=np.zeros((0, 3)),
            direct=np.zeros(0, dtype=bool),
            block_ids=np.zeros(0, dtype=int),
        )
        with pytest.raises(ConfigurationError):
            evaluate_model(model, empty)

    def test_dof_restriction(self):
        train_ds, test_ds = make_data()
        cfg = ExperimentConfig(training_sizes=(10,), dofs=(D1,))
        report = run_experiment(cfg, train_ds, test_ds)
        assert report.dofs == [D1]
        assert set(report.results[0].r2_per_dof) == {D1}


class TestSubsetPerAction:
    def test_takes_first_per_group(self):
        train_ds, _ = make_data(per_action=10)
        table = training_table(train_ds)
        subset = subset_per_action(table, 3)
        assert subset.n_rows == 12
        groups = 2 * subset.dof_index + (subset.angles < 0)
        assert set(np.unique(groups, return_counts=True)[1]) == {3}
        for got, want in zip(subset.rows(slice(4)), table.rows(slice(4))):
            np.testing.assert_array_equal(got, want)

    def test_shortfall_names_the_action(self):
        train_ds, _ = make_data(per_action=5)
        with pytest.raises(ConfigurationError, match="d1|d3"):
            subset_per_action(training_table(train_ds), 6)


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        results = []
        for _ in range(2):
            train_ds, test_ds = make_data(noise_sigma=0.15, seed=11)
            cfg = ExperimentConfig(training_sizes=(10, 40), seed=11)
            report = run_experiment(cfg, train_ds, test_ds)
            results.append(
                (render_report_text(report), render_report_csv(report))
            )
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_config_hash_tracks_settings(self):
        a = ExperimentConfig(training_sizes=(10,), seed=1)
        b = ExperimentConfig(training_sizes=(10,), seed=2)
        assert a.hash() != b.hash()
        assert a.hash() == ExperimentConfig(training_sizes=(10,), seed=1).hash()

    def test_config_hash_keeps_its_digests(self):
        """The text report prints the hash, so its document keeps its bytes."""
        strict = ExperimentConfig(decode=DecodeConfig(0.6, 1e-3), training_sizes=(20, 60),
                                  seed=9, dofs=(D3, D1), block_vote="any")
        assert [cfg.hash() for cfg in (ExperimentConfig(),
                                       ExperimentConfig(training_sizes=(10,), seed=1),
                                       strict)] == [
            "45c61884b65f4409", "8a06a9bc7ee1bca1", "03b8638267804d5d"]


class TestReportRendering:
    def test_text_report_structure(self):
        train_ds, test_ds = make_data()
        cfg = ExperimentConfig(training_sizes=(10,), seed=3)
        report = run_experiment(cfg, train_ds, test_ds)
        text = render_report_text(report)
        assert "config_hash:" in text
        assert "seed: 3" in text
        assert "[training_size=10]" in text
        assert "r2_global:" in text
        assert "block_errors_d1:" in text

    def test_csv_report_structure(self):
        train_ds, test_ds = make_data()
        cfg = ExperimentConfig(training_sizes=(10, 20), seed=3)
        csv_text = render_report_csv(run_experiment(cfg, train_ds, test_ds))
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("training_size,overlap_d1,r2_d1")

    def test_pretrained_model_report(self):
        train_ds, test_ds = make_data()
        model = train_table(subset_per_action(training_table(train_ds), 10))
        report = report_for_model(model, test_ds)
        text = render_report_text(report)
        assert "seed:" not in text
        assert "[training_size=0]" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(training_sizes=())
        with pytest.raises(ValueError):
            ExperimentConfig(training_sizes=(0,))
        with pytest.raises(ValueError, match="^unknown block_vote rule: 'plurality'$"):
            ExperimentConfig(block_vote="plurality")
