"""Feature dataset CSV interchange and conversions."""

import csv
import logging

import numpy as np
import pytest

from qmyo.control import decode_batch, decode_features
from qmyo.datasets import (
    FeatureDataset,
    from_test_set,
    from_training_samples,
    load_feature_dataset,
    save_decode_csv,
    save_feature_dataset,
    training_table,
)
from qmyo.errors import DatasetParseError, DatasetSchemaError, EmptyInputError
from qmyo.evaluation import block_errors, run_starts
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import (
    DecodeConfig,
    Direction,
    Dof,
    MovementPhase,
    TrainingTable,
    train,
    train_table,
)
from qmyo.synthetic import (
    default_mixing_model,
    default_scenario,
    generate_test_scenario,
    generate_training_set,
    orthogonal_mixing_model,
)

D1 = Dof.FLEXION_EXTENSION
D2 = Dof.RADIAL_ULNAR
D3 = Dof.PRONATION_SUPINATION


def small_dataset():
    features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    return FeatureDataset(
        features=features,
        angles={D1: np.array([10.0, -20.0, 0.0])},
        phases=[MovementPhase.DIRECT, MovementPhase.DIRECT, MovementPhase.RETURN],
        block_ids=np.array([0, 0, 1]),
    )


class TestDatasetValidation:
    def test_missing_angle_columns_default_to_zero(self):
        ds = small_dataset()
        assert not ds.angles[D2].any()
        assert not ds.angles[D3].any()

    def test_non_contiguous_blocks_rejected(self):
        with pytest.raises(DatasetSchemaError):
            FeatureDataset(
                features=np.zeros((3, 1)),
                angles={},
                phases=[MovementPhase.DIRECT] * 3,
                block_ids=np.array([0, 1, 0]),
            )

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DatasetSchemaError):
            FeatureDataset(
                features=np.zeros((3, 1)),
                angles={D1: np.zeros(2)},
                phases=[MovementPhase.DIRECT] * 3,
                block_ids=np.zeros(3, dtype=int),
            )


class TestCsvRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = FeatureDataset(
            features=np.abs(rng.normal(size=(20, 5))) ** 3,
            angles={D1: rng.normal(size=20), D3: rng.normal(size=20)},
            phases=[MovementPhase.DIRECT] * 10 + [MovementPhase.RETURN] * 10,
            block_ids=np.repeat([0, 1, 2, 3], 5),
        )
        path = tmp_path / "data.csv"
        save_feature_dataset(ds, path)
        loaded = load_feature_dataset(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        for dof in Dof:
            np.testing.assert_array_equal(loaded.angles[dof], ds.angles[dof])
        assert loaded.phases == ds.phases
        np.testing.assert_array_equal(loaded.block_ids, ds.block_ids)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "data.csv"
        save_feature_dataset(small_dataset(), path)
        header = path.read_text().splitlines()[0]
        assert header == "ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetSchemaError):
            load_feature_dataset(path)

    def test_wrong_tail_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ch1,d1_angle,phase,block\n")
        with pytest.raises(DatasetSchemaError):
            load_feature_dataset(path)

    def test_row_width_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ch1,d1_angle,d2_angle,d3_angle,phase,block\n"
            "1.0,0,0,0,direct,0\n"
            "1.0,0,0,direct,0\n"
        )
        with pytest.raises(DatasetSchemaError, match=":3"):
            load_feature_dataset(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ch1,d1_angle,d2_angle,d3_angle,phase,block\n"
            "smudge,0,0,0,direct,0\n"
        )
        with pytest.raises(DatasetParseError, match=":2"):
            load_feature_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_feature_value_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block\n"
            "1.0,2.0,0,0,0,direct,0\n"
            f"1.0,{value},0,0,0,direct,0\n"
        )
        with pytest.raises(DatasetSchemaError, match=r"bad\.csv:3: ch2 value"):
            load_feature_dataset(path)

    def test_error_names_the_line_a_row_starts_on(self, tmp_path):
        # the quoted cell spans lines 2 and 3, so the bad phase is on line 5
        path = tmp_path / "ml.csv"
        path.write_bytes(
            b"ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block\r\n"
            b'"1\r\n",1,5,0,0,direct,0\r\n'
            b"1,1,-5,0,0,direct,0\r\n"
            b"1,1,5,0,0,bogus,0\r\n"
        )
        with pytest.raises(DatasetParseError, match=r"^.*ml\.csv:5: 'bogus' is not a valid"):
            load_feature_dataset(path)

    def test_negative_values_rejected_in_a_built_dataset(self):
        with pytest.raises(DatasetSchemaError, match=r"^<dataset>:2: ch1 value -1\.0 is not a finite"):
            FeatureDataset(
                features=np.array([[-1.0, 2.0]]),
                angles={},
                phases=[MovementPhase.DIRECT],
                block_ids=np.zeros(1, dtype=int),
            )

    def test_negative_values_allowed_for_signed_kinds(self):
        # only a hand-built training table carries signed features; it trains,
        # and the prototype keeps the sign
        table = TrainingTable(np.array([[-1.0, 2.0], [3.0, 4.0]]), np.zeros(2, dtype=int),
                              np.array([20.0, -30.0]), np.ones(2, dtype=bool))
        model = train_table(table)
        np.testing.assert_allclose(
            model.dofs[D1].proto_pos.amplitudes, np.array([-1.0, 2.0]) / np.sqrt(5.0), atol=1e-15
        )

    def test_empty_body_is_a_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block\n")
        with pytest.raises(EmptyInputError, match=f"^{path}: no rows after header$"):
            load_feature_dataset(path)


class TestTrainingSampleConversion:
    def test_signed_angles_become_direction_and_magnitude(self):
        samples = training_table(small_dataset()).samples()
        assert len(samples) == 2
        assert samples[0].dof is D1
        assert samples[0].direction is Direction.POSITIVE
        assert samples[0].angle == 10.0
        assert samples[1].direction is Direction.NEGATIVE
        assert samples[1].angle == 20.0
        assert samples[1].movement_phase is MovementPhase.DIRECT

    def test_rest_rows_skipped(self, caplog):
        with caplog.at_level(logging.INFO):
            samples = training_table(small_dataset()).samples()
        assert len(samples) == 2

    def test_multi_dof_row_rejected(self):
        ds = FeatureDataset(
            features=np.ones((1, 2)),
            angles={D1: np.array([10.0]), D3: np.array([5.0])},
            phases=[MovementPhase.DIRECT],
            block_ids=np.zeros(1, dtype=int),
        )
        with pytest.raises(DatasetSchemaError, match="exactly one"):
            training_table(ds)

    def test_round_trip_through_dataset(self):
        model = orthogonal_mixing_model(noise_sigma=0.1, seed=3)
        samples = generate_training_set(model, 10)
        ds = from_training_samples(samples, model.n_channels)
        recovered = training_table(ds).samples()
        assert len(recovered) == len(samples)
        for a, b in zip(samples, recovered):
            np.testing.assert_array_equal(a.features.values, b.features.values)
            assert a.dof is b.dof and a.direction is b.direction
            assert a.angle == b.angle


def errors_of_constant_estimates(ds, dofs, value):
    """Block errors of a dataset's blocks when every window decodes to ``value``."""
    estimate = {dof: np.full(ds.n_rows, value) for dof in dofs}
    report = block_errors({dof: ds.angles[dof] for dof in dofs}, estimate, ds.block_ids,
                          DecodeConfig())
    return report.error_counts


class TestBlocks:
    def test_intended_direction_from_sign_of_sum(self):
        ds = FeatureDataset(
            features=np.zeros((4, 1)),
            angles={D1: np.array([5.0, 6.0, -3.0, -4.0])},
            phases=[MovementPhase.DIRECT] * 4,
            block_ids=np.array([0, 0, 1, 1]),
        )
        assert errors_of_constant_estimates(ds, [D1], 1.0) == {D1: 1}  # block 1 intends negative
        assert errors_of_constant_estimates(ds, [D1], -1.0) == {D1: 1}  # block 0 intends positive
        assert errors_of_constant_estimates(ds, [D1], 0.0) == {D1: 2}

    def test_rest_blocks_have_no_intended_entries(self):
        ds = FeatureDataset(
            features=np.zeros((2, 1)),
            angles={},
            phases=[MovementPhase.DIRECT] * 2,
            block_ids=np.array([7, 7]),
        )
        assert errors_of_constant_estimates(ds, [D1, D3], 0.0) == {D1: 0, D3: 0}
        assert errors_of_constant_estimates(ds, [D1, D3], 1.0) == {D1: 1, D3: 1}

    def test_scenario_blocks_survive_dataset_round_trip(self, tmp_path):
        model = orthogonal_mixing_model(seed=1)
        scenario = default_scenario(dofs=model.dofs, n_blocks=11, total_windows=110)
        test_set = generate_test_scenario(model, scenario)
        ds = from_test_set(test_set)
        path = tmp_path / "test.csv"
        save_feature_dataset(ds, path)
        loaded = load_feature_dataset(path)
        np.testing.assert_array_equal(loaded.block_ids, test_set.block_ids)
        sizes = [b.n_windows for b in scenario]
        assert run_starts(loaded.block_ids).tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        # the summed truth intends each block's ramp sign, rest where a DOF has no ramp
        signs = [[np.sign(b.angles.get(dof, (0.0,))[0]) for b in scenario]
                 for dof in model.dofs]
        for value in (-1.0, 0.0, 1.0):
            expected = {dof: sum(s != value for s in row) for dof, row in zip(model.dofs, signs)}
            assert errors_of_constant_estimates(loaded, model.dofs, value) == expected


class TestDecodeCsv:
    def test_one_row_per_window_with_residual_columns(self, tmp_path):
        model_mixing = orthogonal_mixing_model(seed=2)
        samples = generate_training_set(model_mixing, 5)
        model = train(samples, model_mixing.n_channels)
        ds = from_training_samples(samples[:6], model_mixing.n_channels)
        path = tmp_path / "decoded.csv"
        save_decode_csv(decode_batch(ds.features, model), model.sorted_dofs(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        header = lines[0].split(",")
        assert header[0] == "window"
        assert "d1_exp_pos" in header and "d1_direction" in header
        assert header[-3:] == ["residual_d1", "residual_d2", "residual_d3"]
        # two trained DOFs: residual cells stay empty
        assert lines[1].endswith(",,,")

    def test_cells_match_the_per_window_decisions(self, tmp_path):
        mixing = default_mixing_model(n_channels=12, dofs=(D1, D2, D3), noise_sigma=0.1, seed=4)
        samples = generate_training_set(mixing, 5)
        model = train(samples, mixing.n_channels)
        features = np.stack([s.features.values for s in samples] + [np.zeros(12)])
        path = tmp_path / "decoded.csv"
        save_decode_csv(decode_batch(features, model), model.sorted_dofs(), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for i, (row, values) in enumerate(zip(rows, features)):
            action = decode_features(FeatureVector(values, FeatureKind.MAV), model)
            expected = [str(i)]
            for dof in (D1, D2, D3):
                d = action.per_dof[dof]
                expected += [
                    repr(d.expectation_pos),
                    repr(d.expectation_neg),
                    repr(d.expectation_zero),
                    d.direction.value,
                    repr(d.signed_angle()),
                    "1" if d.angle_clamped else "0",
                ]
            residuals = action.residual_activations
            expected += ["", "", ""] if residuals is None else [
                repr(residuals[dof]) for dof in (D1, D2, D3)
            ]
            assert row == expected
        assert rows[-1][-3:] == ["", "", ""]  # zero-signal window


# The per-row code the array-native writer and converter replaced, kept as
# the reference they must reproduce exactly.
def reference_save(ds, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"ch{i + 1}" for i in range(ds.n_channels)] + [
            "d1_angle", "d2_angle", "d3_angle", "phase", "block"])
        for i in range(ds.n_rows):
            row = [repr(float(v)) for v in ds.features[i]]
            row += [repr(float(ds.angles[dof][i])) for dof in Dof]
            row.append(ds.phases[i].value)
            row.append(str(int(ds.block_ids[i])))
            writer.writerow(row)


def reference_samples(ds):
    """Samples as (values, dof, direction, angle, phase), and the rest count."""
    samples, n_rest = [], 0
    for i in range(ds.n_rows):
        active = [(dof, ds.angles[dof][i]) for dof in Dof if ds.angles[dof][i] != 0.0]
        if not active:
            n_rest += 1
            continue
        if len(active) > 1:
            names = ", ".join(dof.value for dof, _ in active)
            raise DatasetSchemaError(
                f"{ds.source or '<dataset>'}:{i + 2}: training rows must activate exactly "
                f"one DOF, got {names}"
            )
        dof, signed = active[0]
        direction = Direction.POSITIVE if signed > 0 else Direction.NEGATIVE
        samples.append((ds.features[i].tobytes(), dof, direction, abs(float(signed)), ds.phases[i]))
    return samples, n_rest


def random_dataset(rng, n, multi_row=None):
    """Rows activating one DOF, or none (rest); ``multi_row`` activates two."""
    which = rng.integers(-1, 3, size=n)
    signed = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 40.0, size=n)
    angles = {dof: np.where(which == k, signed, 0.0) for k, dof in enumerate(Dof)}
    if multi_row is not None:
        angles[D1][multi_row], angles[D3][multi_row] = 5.0, -7.0
    phases = [MovementPhase.DIRECT if p else MovementPhase.RETURN for p in rng.random(n) < 0.8]
    return FeatureDataset(
        features=rng.lognormal(sigma=3.0, size=(n, 6)),
        angles=angles,
        phases=phases,
        block_ids=np.repeat(np.arange(n // 10 + 1), 10)[:n],
    )


class TestArrayNativeDataPlane:
    def test_saved_bytes_equal_the_per_cell_repr_writer(self, tmp_path):
        rng = np.random.default_rng(2)
        features = rng.lognormal(sigma=5.0, size=(40, 4))
        features[0] = [-0.0, 1e-300, 1e300, 5e-324]
        features[1] = [0.0, 0.1, 1.0 / 3.0, 2.0**-1074]
        angles = {D1: rng.normal(scale=20.0, size=40), D3: np.zeros(40)}
        angles[D1][:4] = [-0.0, 1e-300, -1e300, 1e16]
        ds = FeatureDataset(
            features=features,
            angles=angles,
            phases=[MovementPhase.DIRECT, MovementPhase.RETURN] * 20,
            block_ids=np.repeat([0, 3, -2, 12345678901], 10),
        )
        save_feature_dataset(ds, tmp_path / "new.csv")
        reference_save(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert b"-0.0,1e-300,1e+300,5e-324," in (tmp_path / "new.csv").read_bytes()

    def test_saved_synthetic_sets_equal_the_per_cell_repr_writer(self, tmp_path):
        model = default_mixing_model(noise_sigma=0.1, seed=3)
        sets = [
            from_training_samples(generate_training_set(model, 30), model.n_channels),
            from_test_set(generate_test_scenario(model, default_scenario(model.dofs, 11, 200))),
        ]
        for k, ds in enumerate(sets):
            save_feature_dataset(ds, tmp_path / f"new{k}.csv")
            reference_save(ds, tmp_path / f"ref{k}.csv")
            new, ref = (tmp_path / f"{name}{k}.csv" for name in ("new", "ref"))
            assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_equal_the_per_row_loop(self, seed, caplog):
        ds = random_dataset(np.random.default_rng(seed), 300)
        expected, n_rest = reference_samples(ds)
        assert n_rest > 0
        with caplog.at_level(logging.INFO, logger="qmyo.datasets"):
            got = training_table(ds).samples()
        assert [
            (s.features.values.tobytes(), s.dof, s.direction, s.angle, s.movement_phase)
            for s in got
        ] == expected
        assert all(s.features.kind is FeatureKind.MAV for s in got)
        assert f"skipped {n_rest} rest rows" in caplog.text

    @pytest.mark.parametrize("multi_row", [0, 17, 299])
    def test_first_multi_dof_row_is_named_as_the_loop_names_it(self, multi_row):
        ds = random_dataset(np.random.default_rng(9), 300, multi_row=multi_row)
        ds.angles[D2][150] = 1.0  # a later multi-DOF row must not be the one named
        ds.angles[D1][150] = 1.0
        with pytest.raises(DatasetSchemaError) as expected:
            reference_samples(ds)
        with pytest.raises(DatasetSchemaError) as got:
            training_table(ds)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"<dataset>:{min(multi_row, 150) + 2}: ")

    def test_all_rest_and_empty_datasets(self):
        ds = random_dataset(np.random.default_rng(1), 20)
        rest = FeatureDataset(ds.features, {}, ds.phases, ds.block_ids)
        assert training_table(rest).samples() == []
        empty = FeatureDataset(np.zeros((0, 3)), {}, [], np.zeros(0, dtype=int))
        assert training_table(empty).samples() == []

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("1.0,2.0,0,oops,0,direct,1", DatasetParseError,
             "bad.csv:4: could not convert string to float: 'oops'"),
            ("1.0,2.0,0,0,0,direct", DatasetSchemaError, "bad.csv:4: expected 7 values, got 6"),
            ("1.0,2.0,0,0,0,sideways,1", DatasetParseError,
             "bad.csv:4: 'sideways' is not a valid MovementPhase"),
            ("1.0,2.0,0,0,0, return ,x1", DatasetParseError,
             "bad.csv:4: invalid literal for int() with base 10: 'x1'"),
            ("1.0,2.0,0,0,0,direct,1#", DatasetParseError,
             "bad.csv:4: invalid literal for int() with base 10: '1#'"),
            ("1.0,2.0,0,0,0,direct,1.5", DatasetParseError,
             "bad.csv:4: invalid literal for int() with base 10: '1.5'"),
            ("1.0,2.0,0,0,0,direct,0", DatasetSchemaError,
             "bad.csv:4: block id 0 appears in non-contiguous runs"),
        ],
    )
    def test_load_errors_name_the_line(self, tmp_path, row, error, message):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ch1,ch2,d1_angle,d2_angle,d3_angle,phase,block\n"
            "1.0,2.0,5,0,0,direct,0\n"
            "1.0,2.0,0,0,-5,return,1\n"
            f"{row}\n"
            "1.0,2.0,0,0,0,direct,1\n"
        )
        with pytest.raises(error) as exc:
            load_feature_dataset(path)
        assert str(exc.value) == f"{path.parent}/{message}"

    def test_non_contiguous_error_names_the_first_repeated_run(self):
        with pytest.raises(DatasetSchemaError) as exc:
            FeatureDataset(
                features=np.zeros((7, 1)),
                angles={},
                phases=[MovementPhase.DIRECT] * 7,
                block_ids=np.array([4, 4, 9, 2, 9, 4, 2]),
                source="x.csv",
            )
        assert str(exc.value) == "x.csv:6: block id 9 appears in non-contiguous runs"

    def test_phases_are_the_enum_members(self, tmp_path):
        ds = random_dataset(np.random.default_rng(4), 30)
        save_feature_dataset(ds, tmp_path / "d.csv")
        loaded = load_feature_dataset(tmp_path / "d.csv")
        assert all(a is b for a, b in zip(loaded.phases, ds.phases))
        assert loaded.features.flags.c_contiguous
        assert all(loaded.angles[dof].flags.c_contiguous for dof in Dof)

    def test_non_contiguous_check_equals_the_per_row_loop(self):
        def reference(block_ids):
            seen = set()
            for i, bid in enumerate(block_ids):
                if i == 0 or bid != block_ids[i - 1]:
                    if int(bid) in seen:
                        return f"<dataset>:{i + 2}: block id {bid} appears in non-contiguous runs"
                    seen.add(int(bid))
            return None

        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            block_ids = rng.integers(-2, 3, size=n)
            expected = reference(block_ids)
            args = (np.zeros((n, 1)), {}, [MovementPhase.DIRECT] * n, block_ids)
            if expected is None:
                FeatureDataset(*args)
            else:
                with pytest.raises(DatasetSchemaError, match=f"^{expected}$"):
                    FeatureDataset(*args)
