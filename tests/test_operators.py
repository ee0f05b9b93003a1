"""Prototype construction, operator triples, training and persistence."""

import ast
import dataclasses
import inspect
import json
import logging
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qmyo import control
from qmyo.control import decode_batch
from qmyo.datasets import load_feature_dataset, training_table
from qmyo.errors import (
    DegeneratePrototypeError,
    DimensionError,
    InsufficientTrainingError,
    ModelFileError,
)
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import (
    ControllerModel,
    DecodeConfig,
    DecodeTables,
    Direction,
    Dof,
    DofOperators,
    MovementPhase,
    Operator,
    TrainingSample,
    TrainingTable,
    build_completeness_operator,
    build_direction_operator,
    load_model,
    model_to_dict,
    overlap_curve,
    save_model,
    train,
    train_table,
)
from qmyo.state import QuantumState, encode_rows, inner_product

D1 = Dof.FLEXION_EXTENSION
D2 = Dof.RADIAL_ULNAR
D3 = Dof.PRONATION_SUPINATION

# A 4-channel d1/d3 model in format 3, trained by `qmyo train --data
# model_v1_train.csv --rest-threshold 0.02` in format 1 and saved again in
# formats 2 and 3 with every prototype, angle, overlap and threshold bit kept.
DATA = Path(__file__).parent / "data"
V3_MODEL = DATA / "model_v3.json"
V1_TRAIN = DATA / "model_v1_train.csv"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def sample(values, dof=D1, direction=Direction.POSITIVE, angle=30.0, phase=MovementPhase.DIRECT):
    return TrainingSample(
        features=FeatureVector(np.array(values, dtype=float), FeatureKind.MAV),
        dof=dof,
        direction=direction,
        angle=angle,
        movement_phase=phase,
    )


def signed_table(rows, angles):
    """Direct-phase d1 rows with signed angles; feature values may be negative."""
    n = len(angles)
    return TrainingTable(np.array(rows, dtype=float), np.zeros(n, dtype=int),
                         np.array(angles, dtype=float), np.ones(n, dtype=bool))


def random_samples(rng, n_channels, dof, direction, count):
    return [
        sample(
            rng.uniform(0.05, 2.0, size=n_channels),
            dof=dof,
            direction=direction,
            angle=float(rng.uniform(1.0, 90.0)),
        )
        for _ in range(count)
    ]


def random_model(rng, n_channels=None, dofs=(D1,)):
    n = n_channels or int(rng.integers(2, 9))
    samples = []
    for dof in dofs:
        for direction in (Direction.POSITIVE, Direction.NEGATIVE):
            samples += random_samples(rng, n, dof, direction, int(rng.integers(1, 6)))
    return train(samples, n, dofs=list(dofs))


def prototype(samples):
    """The d1 positive prototype ``train_table`` builds from ``samples``.

    One negative row on the first axis completes the DOF.
    """
    n = len(samples[0].features.values) if samples else 2
    rows = samples + [sample(np.eye(n)[0], direction=Direction.NEGATIVE)]
    return train_table(TrainingTable.of_samples(rows, n)).dofs[D1].proto_pos


class TestTrainingSampleValidation:
    @pytest.mark.parametrize("direction, angle, message", [
        (Direction.REST, 30.0, "training samples must have a positive or negative direction"),
        (Direction.POSITIVE, 0.0, "training angle must be > 0, got 0.0"),
        (Direction.NEGATIVE, -5.0, "training angle must be > 0, got -5.0"),
        (Direction.POSITIVE, math.nan, "training angle must be > 0, got nan"),
    ])
    def test_rest_or_non_positive_angle_rejected(self, direction, angle, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample([1.0, 0.0], direction=direction, angle=angle)


class TestBuildPrototype:
    def test_single_sample_is_itself(self):
        proto = prototype([sample([2.0, 1.0], angle=17.0)])
        np.testing.assert_allclose(
            proto.amplitudes, encode_rows(np.array([[2.0, 1.0]]))[0][0], atol=1e-15
        )

    def test_angle_weighted_superposition(self):
        samples = [
            sample([1.0, 0.0], angle=30.0),
            sample([0.0, 1.0], angle=60.0),
        ]
        proto = prototype(samples)
        np.testing.assert_allclose(
            proto.amplitudes, [1 / math.sqrt(5), 2 / math.sqrt(5)], atol=1e-15
        )

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(3)
        samples = random_samples(rng, 5, D1, Direction.POSITIVE, 7)
        proto = prototype(samples)

        angles = [s.angle for s in samples]
        total = sum(angles)
        combined = [0.0] * 5
        for s, angle in zip(samples, angles):
            values = [float(v) for v in s.features.values]
            norm = math.sqrt(sum(v * v for v in values))
            for i, v in enumerate(values):
                combined[i] += (angle / total) * (v / norm)
        norm = math.sqrt(sum(v * v for v in combined))
        expected = [v / norm for v in combined]
        np.testing.assert_allclose(proto.amplitudes, expected, atol=1e-12)

    def test_identical_samples_any_angles(self):
        samples = [sample([3.0, 4.0], angle=10.0), sample([3.0, 4.0], angle=50.0)]
        np.testing.assert_allclose(
            prototype(samples).amplitudes, [0.6, 0.8], atol=1e-15
        )

    def test_empty_list(self):
        with pytest.raises(InsufficientTrainingError, match="no positive training samples"):
            prototype([])

    def test_directions_are_grouped_apart(self):
        # interleaved directions: each prototype sums only its own rows
        samples = [sample([1.0, 0.0]), sample([0.0, 1.0], direction=Direction.NEGATIVE),
                   sample([1.0, 1.0], angle=10.0), sample([0.0, 2.0], direction=Direction.NEGATIVE)]
        ops = train(samples, 2).dofs[D1]
        np.testing.assert_array_equal(ops.proto_neg.amplitudes, [0.0, 1.0])
        assert ops.proto_pos.amplitudes[0] > ops.proto_pos.amplitudes[1] > 0

    def test_cancellation_detected(self):
        # engineered signed features, which only a hand-built table carries,
        # cancel exactly at equal angles
        table = signed_table([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [20.0, 20.0, -30.0])
        with pytest.raises(DegeneratePrototypeError, match="d1 positive"):
            train_table(table)

    @pytest.mark.parametrize("angles", [[1e308, 20.0, -30.0], [1e308, 1e308, -30.0]],
                             ids=["one-huge", "two-huge"])
    def test_overflowing_sum_is_refused(self, angles):
        """A weighted sum past float range is a model error, not a non-unit state."""
        table = signed_table([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], angles)
        with pytest.raises(DegeneratePrototypeError) as caught:
            train_table(table)
        assert str(caught.value) == "d1 positive: weighted state sum overflows"

    def test_cancelled_sum_past_float_range_is_refused(self):
        # the angle total overflows while the weighted states cancel to zero
        table = signed_table([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1e308, 1e308, -30.0])
        with pytest.raises(DegeneratePrototypeError, match="^d1 positive: .* cancelled to norm 0.0$"):
            train_table(table)

    @pytest.mark.parametrize("eps, degenerate", [(1.5e-12, True), (3e-12, False)])
    def test_cancellation_threshold(self, eps, degenerate):
        # equal angles: the sum of (1, 0) and normalize(-1, eps) has norm 20·eps
        # against the threshold 1e-12·Σθ = 4e-11, so it trips below eps = 2e-12
        table = signed_table([[1.0, 0.0], [-1.0, eps], [0.0, 1.0]], [20.0, 20.0, -30.0])
        if degenerate:
            with pytest.raises(DegeneratePrototypeError):
                train_table(table)
        else:
            model = train_table(table)
            np.testing.assert_array_equal(model.dofs[D1].proto_pos.amplitudes, [0.0, 1.0])


class TestBuildDirectionOperator:
    def test_basis_projector(self):
        op = build_direction_operator(QuantumState(np.array([1.0, 0.0])))
        np.testing.assert_array_equal(op.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_hand_outer_product(self):
        proto = QuantumState(np.array([1 / math.sqrt(5), 2 / math.sqrt(5)]))
        op = build_direction_operator(proto)
        np.testing.assert_allclose(op.matrix, [[0.2, 0.4], [0.4, 0.8]], atol=1e-15)
        assert op.trace() == pytest.approx(1.0, abs=1e-12)

    def test_trace_one_for_random_prototypes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=6)
            proto = QuantumState(v / np.linalg.norm(v))
            assert build_direction_operator(proto).trace() == pytest.approx(1.0, abs=1e-12)


class TestBuildCompletenessOperator:
    def test_orthogonal_pair_in_two_dims(self):
        p = Operator(np.diag([1.0, 0.0]))
        q = Operator(np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(
            build_completeness_operator(p, q).matrix, np.zeros((2, 2))
        )

    def test_padded_three_dims(self):
        p = Operator(np.diag([1.0, 0.0, 0.0]))
        q = Operator(np.diag([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(
            build_completeness_operator(p, q).matrix, np.diag([0.0, 0.0, 1.0])
        )

    def test_overlapping_pair_is_not_positive(self):
        p = build_direction_operator(QuantumState(np.array([1.0, 0.0])))
        s = 1 / math.sqrt(2)
        q = build_direction_operator(QuantumState(np.array([s, s])))
        zero = build_completeness_operator(p, q)
        eigenvalues = np.linalg.eigvalsh(zero.matrix)
        assert eigenvalues[0] < -1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_completeness_operator(
                Operator(np.eye(2)), Operator(np.eye(3))
            )


class TestTrain:
    def test_single_dof_model(self):
        samples = [
            sample([1.0, 0.0], direction=Direction.POSITIVE),
            sample([0.0, 1.0], direction=Direction.NEGATIVE),
        ]
        model = train(samples, 2)
        assert list(model.dofs) == [D1]
        assert model.n_channels == 2

    def test_orthogonal_prototypes_have_zero_overlap(self):
        samples = [
            sample([1.0, 0.0], direction=Direction.POSITIVE),
            sample([0.0, 1.0], direction=Direction.NEGATIVE),
        ]
        assert train(samples, 2).dofs[D1].overlap == 0.0

    def test_eight_channel_two_dof_configuration(self):
        # 8 channels, two DOFs, 500 samples per action -> two 8x8 triples
        rng = np.random.default_rng(0)
        samples = []
        for dof in (D1, D3):
            for direction in (Direction.POSITIVE, Direction.NEGATIVE):
                samples += random_samples(rng, 8, dof, direction, 500)
        model = train(samples, 8)
        assert sorted(model.dofs) == [D1, D3]
        for ops in model.dofs.values():
            for op in (ops.p_pos, ops.p_neg, ops.p_zero):
                assert op.matrix.shape == (8, 8)

    def test_missing_direction_names_dof_and_direction(self):
        samples = [sample([1.0, 0.0], direction=Direction.POSITIVE)]
        with pytest.raises(InsufficientTrainingError, match="negative.*d1|d1.*negative"):
            train(samples, 2)

    def test_theta_maxima_recorded(self):
        samples = [
            sample([1.0, 0.1], angle=10.0),
            sample([1.0, 0.2], angle=35.0),
            sample([0.1, 1.0], direction=Direction.NEGATIVE, angle=25.0),
        ]
        ops = train(samples, 2).dofs[D1]
        assert ops.theta_pos_max == 35.0
        assert ops.theta_neg_max == 25.0

    def test_return_phase_excluded(self):
        direct = [
            sample([1.0, 0.0]),
            sample([0.0, 1.0], direction=Direction.NEGATIVE),
        ]
        with_return = direct + [
            sample([1.0, 5.0], phase=MovementPhase.RETURN, angle=80.0)
        ]
        a = train(direct, 2).dofs[D1]
        b = train(with_return, 2).dofs[D1]
        np.testing.assert_array_equal(a.proto_pos.amplitudes, b.proto_pos.amplitudes)
        assert b.theta_pos_max == 30.0

    def test_zero_signal_samples_skipped(self):
        samples = [
            sample([1.0, 0.0]),
            sample([0.0, 0.0]),
            sample([0.0, 1.0], direction=Direction.NEGATIVE),
        ]
        model = train(samples, 2)
        np.testing.assert_array_equal(model.dofs[D1].proto_pos.amplitudes, [1.0, 0.0])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            train([sample([1.0, 0.0])], 3)

    def test_first_mismatched_width_is_named(self):
        samples = [sample([1.0, 0.0]), sample([1.0, 0.0, 2.0]), sample([1.0])]
        with pytest.raises(DimensionError, match="^sample has 3 channels, expected 2$"):
            train(samples, 2)

    def test_dropped_samples_are_counted_as_per_sample_checks_count_them(self, caplog):
        # the per-sample loop the stacked checks replaced
        def reference(samples):
            direct = [s for s in samples if s.movement_phase is MovementPhase.DIRECT]
            usable = [s for s in direct if np.any(s.features.values != 0.0)]
            return len(samples) - len(direct), len(direct) - len(usable), usable

        rng = np.random.default_rng(12)
        samples = []
        for dof in (D1, D3):
            for direction in (Direction.POSITIVE, Direction.NEGATIVE):
                samples += random_samples(rng, 4, dof, direction, 30)
        for k, i in enumerate(rng.choice(len(samples), size=40, replace=False)):
            if k % 2:
                samples[i] = dataclasses.replace(samples[i], movement_phase=MovementPhase.RETURN)
            if k % 3 == 0:
                zero = FeatureVector(np.zeros(4) if k % 4 else -np.zeros(4), FeatureKind.MAV)
                samples[i] = dataclasses.replace(samples[i], features=zero)
        n_return, n_zero, usable = reference(samples)
        assert n_return and n_zero
        with caplog.at_level(logging.INFO, logger="qmyo.operators"):
            model = train(samples, 4)
        assert f"dropped {n_return} return-phase samples" in caplog.text
        assert f"dropped {n_zero} zero-signal samples" in caplog.text
        clean = train(usable, 4)
        for dof, ops in model.dofs.items():
            for name in ("proto_pos", "proto_neg"):
                expected = getattr(clean.dofs[dof], name).amplitudes.tobytes()
                assert getattr(ops, name).amplitudes.tobytes() == expected


class TestTrainedInvariants:
    def test_completeness_idempotence_and_overlap_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            model = random_model(rng)
            ops = model.dofs[D1]
            n = ops.dim
            total = ops.p_pos.matrix + ops.p_neg.matrix + ops.p_zero.matrix
            assert np.max(np.abs(total - np.eye(n))) < 1e-10
            for op in (ops.p_pos, ops.p_neg):
                assert np.max(np.abs(op.matrix @ op.matrix - op.matrix)) < 1e-10
                assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12
                assert abs(op.trace() - 1.0) < 1e-12
            trace_overlap = float(np.trace(ops.p_pos.matrix @ ops.p_neg.matrix))
            expected = inner_product(ops.proto_pos, ops.proto_neg) ** 2
            assert abs(trace_overlap - expected) < 1e-12
            assert abs(ops.overlap - trace_overlap) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            samples = random_samples(rng, n, D1, Direction.POSITIVE, 4)
            samples += random_samples(rng, n, D1, Direction.NEGATIVE, 4)
            perm = rng.permutation(n)
            permuted = [
                sample(
                    s.features.values[perm],
                    direction=s.direction,
                    angle=s.angle,
                )
                for s in samples
            ]
            base = train(samples, n).dofs[D1]
            other = train(permuted, n).dofs[D1]
            for name in ("p_pos", "p_neg", "p_zero"):
                matrix = getattr(base, name).matrix
                expected = matrix[np.ix_(perm, perm)]
                assert np.max(np.abs(getattr(other, name).matrix - expected)) < 1e-12

    def test_angle_weight_invariance(self):
        rng = np.random.default_rng(9)
        samples = random_samples(rng, 4, D1, Direction.POSITIVE, 6)
        scaled = [
            sample(s.features.values, angle=s.angle * 7.5) for s in samples
        ]
        base = prototype(samples)
        other = prototype(scaled)
        np.testing.assert_allclose(other.amplitudes, base.amplitudes, atol=1e-12)
        neg = random_samples(rng, 4, D1, Direction.NEGATIVE, 2)
        theta = train(samples + neg, 4).dofs[D1].theta_pos_max
        theta_scaled = train(scaled + neg, 4).dofs[D1].theta_pos_max
        assert theta_scaled == pytest.approx(7.5 * theta, rel=1e-12)


def curve(samples, sizes):
    return overlap_curve(TrainingTable.of_samples(samples, 3), sizes)


class TestOverlapCurve:
    def make_samples(self, rng, count_per_direction, noise=0.0):
        samples = []
        base = {Direction.POSITIVE: np.array([1.0, 0.2, 0.0]), Direction.NEGATIVE: np.array([0.0, 0.3, 1.0])}
        for i in range(count_per_direction):
            for direction, column in base.items():
                values = column * rng.uniform(5.0, 40.0)
                if noise:
                    values = np.clip(values + rng.normal(0, noise, 3), 0, None)
                    if not values.any():
                        values = column
                samples.append(sample(values, direction=direction, angle=float(rng.uniform(5, 40))))
        return samples

    def test_full_set_matches_train(self):
        rng = np.random.default_rng(2)
        samples = self.make_samples(rng, 20)
        curves = curve(samples, [len(samples)])
        assert curves[D1] == [train(samples, 3).dofs[D1].overlap]

    def test_noiseless_constant(self):
        rng = np.random.default_rng(3)
        samples = self.make_samples(rng, 50)
        curves = curve(samples, [2, 10, 40, 100])
        values = curves[D1]
        assert max(values) - min(values) < 1e-9

    def test_noisy_differences_shrink_on_average(self):
        first_steps, last_steps = [], []
        sizes = [8, 32, 128, 512, 2048]
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            samples = self.make_samples(rng, 1024, noise=2.0)
            values = curve(samples, sizes)[D1]
            diffs = [abs(b - a) for a, b in zip(values, values[1:])]
            first_steps.append(diffs[0])
            last_steps.append(diffs[-1])
        assert np.mean(last_steps) < np.mean(first_steps)

    def test_batch_size_validation(self):
        rng = np.random.default_rng(4)
        samples = self.make_samples(rng, 5)
        with pytest.raises(ValueError):
            curve(samples, [4, 2])
        with pytest.raises(ValueError):
            curve(samples, [len(samples) + 1])
        with pytest.raises(ValueError):
            curve(samples, [])
        for sizes in ([0, 2], [-1, 2]):
            with pytest.raises(ValueError, match=r"^batch sizes must be positive, got \[-?\d, 2\]$"):
                curve(samples, sizes)

    def test_every_prefix_trains_the_largest_prefixs_dofs(self):
        rng = np.random.default_rng(5)
        d1 = self.make_samples(rng, 5)
        d3 = [dataclasses.replace(s, dof=D3) for s in self.make_samples(rng, 5)]
        interleaved = [s for pair in zip(d1, d3) for s in pair]
        curves = curve(interleaved, [4, 20])
        assert sorted(curves) == [D1, D3] and all(len(v) == 2 for v in curves.values())
        with pytest.raises(InsufficientTrainingError, match="^size 10: no positive .* d3$"):
            curve(d1 + d3, [10, 20])
        assert curve(d1 + d3, [12, 20])[D1] == [curve(d1 + d3[:2], [12])[D1][0], curves[D1][1]]


class TestModelValidation:
    @pytest.mark.parametrize("version", [3])  # each format that loads
    def test_mismatched_overlap_rejected(self, tmp_path, version):
        doc = json.loads(V3_MODEL.read_text())
        assert doc["format_version"] == version
        doc["dofs"]["d1"]["overlap"] += 1e-11
        with pytest.raises(ModelFileError, match="d1: stored overlap deviates from the prototypes"):
            load_model(write_json(tmp_path / "model.json", doc))
        doc["dofs"]["d1"]["overlap"] -= 1e-11 - 1e-13  # within 1e-12 of the prototypes' overlap
        assert load_model(write_json(tmp_path / "model.json", doc)).dofs[D1].overlap != (
            doc["dofs"]["d1"]["overlap"])

    def test_dof_holds_only_primary_quantities(self):
        names = [f.name for f in dataclasses.fields(DofOperators)]
        assert names == ["proto_pos", "proto_neg", "theta_pos_max", "theta_neg_max"]
        with pytest.raises(DimensionError):
            DofOperators(QuantumState(np.ones(1)), QuantumState(np.array([0.6, 0.8])), 1.0, 1.0)
        for theta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DofOperators(QuantumState(np.ones(1)), QuantumState(np.ones(1)), theta, 1.0)

    @pytest.mark.parametrize("thetas,reason", [
        ((0.0, 1.0), "theta_positive_max: must be finite and > 0, got 0.0"),
        ((1.0, -2.5), "theta_negative_max: must be finite and > 0, got -2.5"),
        ((math.inf, 1.0), "theta_positive_max: must be finite and > 0, got inf"),
        ((1.0, math.nan), "theta_negative_max: must be finite and > 0, got nan"),
    ])
    def test_maximal_angle_fault_names_its_key(self, thetas, reason):
        state = QuantumState(np.ones(1))
        with pytest.raises(ValueError) as caught:
            DofOperators(state, state, *thetas)
        assert str(caught.value) == reason

    def test_decode_config_validation(self):
        for threshold in (-0.1, math.inf, math.nan, True):
            with pytest.raises(ValueError, match="rest_threshold must be finite and >= 0"):
                DecodeConfig(rest_threshold=threshold)
        assert DecodeConfig(rest_threshold=1e308).rest_threshold == 1e308  # as the flag allows
        with pytest.raises(ValueError):
            DecodeConfig(overlap_epsilon=0.0)

    def test_decode_config_holds_floats(self):
        cfg = DecodeConfig(rest_threshold=0, overlap_epsilon=np.float32(0.5))
        assert (type(cfg.rest_threshold), type(cfg.overlap_epsilon)) == (float, float)
        assert cfg == DecodeConfig(0.0, 0.5)
        with pytest.raises(OverflowError):  # load_model reports it as a model file error
            DecodeConfig(rest_threshold=10**400)

    def test_model_requires_matching_dimensions(self):
        """The channel count is the prototypes' dimension, which every DOF must share."""
        narrow, wide = (random_model(np.random.default_rng(1), n_channels=n) for n in (4, 5))
        assert ControllerModel({D1: narrow.dofs[D1]}).n_channels == 4
        with pytest.raises(DimensionError,
                           match=r"^d3: operators are 5-dimensional, d1's are 4-dimensional$"):
            ControllerModel({D3: wide.dofs[D1], D1: narrow.dofs[D1]})

    @pytest.mark.parametrize("stored", [3, 5])
    def test_stored_channel_count_must_match_the_prototypes(self, tmp_path, stored):
        doc = model_to_dict(random_model(np.random.default_rng(2), n_channels=4, dofs=(D1, D3)))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc | {"n_channels": stored}))
        with pytest.raises(ModelFileError,
                           match=rf": n_channels is {stored}, the prototypes have 4$"):
            load_model(path)


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        model = random_model(rng, n_channels=8, dofs=(D1, D3))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_channels == model.n_channels
        assert loaded.decode_config == model.decode_config
        for dof in model.dofs:
            a, b = model.dofs[dof], loaded.dofs[dof]
            for name in ("p_pos", "p_neg", "p_zero"):
                np.testing.assert_allclose(
                    getattr(b, name).matrix, getattr(a, name).matrix, atol=1e-15
                )
            np.testing.assert_array_equal(b.proto_pos.amplitudes, a.proto_pos.amplitudes)
            assert b.theta_pos_max == a.theta_pos_max
            assert b.theta_neg_max == a.theta_neg_max
            assert b.overlap == a.overlap

    def test_unsupported_version_rejected(self, tmp_path):
        model = random_model(np.random.default_rng(8))
        doc = model_to_dict(model)
        for version in (99, 1, 2, 2.0, 3.0, True, "3"):  # only the JSON int 3 loads
            doc["format_version"] = version
            path = write_json(tmp_path / "model.json", doc)
            with pytest.raises(ModelFileError) as caught:
                load_model(path)
            assert str(caught.value) == f"{path}: unsupported model format version: {version!r}"

    def test_format_3_holds_no_block_vote(self, tmp_path):
        doc = model_to_dict(random_model(np.random.default_rng(8)))
        doc["decode_config"]["block_vote"] = "majority"
        with pytest.raises(ModelFileError, match="block_vote"):
            load_model(write_json(tmp_path / "model.json", doc))

    def test_model_file_holds_only_decoder_inputs(self):
        """Each DecodeConfig field is read by the decode layer: the rest threshold
        by the decoder (the control module), the overlap margin where the decode
        tables are built. The file's decode_config holds exactly those fields."""
        tree = ast.parse(inspect.getsource(control))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg"}
        built = ast.parse(textwrap.dedent(inspect.getsource(ControllerModel.decode_tables.func)))
        passed = {node.attr for node in ast.walk(built)
                  if isinstance(node, ast.Attribute)
                  and getattr(node.value, "attr", None) == "decode_config"}
        assert read == {"rest_threshold"} and passed == {"overlap_epsilon"}
        names = {f.name for f in dataclasses.fields(DecodeConfig)}
        assert names == read | passed
        doc = model_to_dict(random_model(np.random.default_rng(8)))
        assert set(doc["decode_config"]) == names

    def test_decoder_reads_every_decode_table(self):
        """The decoder (the control module) reads each DecodeTables field as
        ``tables.<field>``, so no field is a second, unread copy of another."""
        tree = ast.parse(inspect.getsource(control))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tables"}
        assert read == set(DecodeTables._fields) == {"dofs", "prototypes", "scalars"}

    def test_document_carries_version_field(self):
        model = random_model(np.random.default_rng(8))
        doc = model_to_dict(model)
        assert doc["format_version"] == 3
        assert sorted(doc["dofs"]["d1"]) == [
            "overlap",
            "prototype_negative",
            "prototype_positive",
            "theta_negative_max",
            "theta_positive_max",
        ]


def test_every_model_fixture_loads():
    """Each model file under tests/data loads, so a change of the model format
    converts the fixtures in the same change."""
    fixtures = sorted(DATA.glob("*.json"))
    assert fixtures
    for path in fixtures:
        load_model(path)


class TestFormatV2:
    """The fixture, first saved in format 2, converted to format 3 bit for bit."""

    def test_decodes_like_its_v3_copy(self, tmp_path):
        stored = load_model(V3_MODEL)
        save_model(stored, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["format_version"] == 3
        copied = load_model(tmp_path / "model.json")
        features = np.random.default_rng(21).uniform(0.0, 1.0, size=(64, 4))
        features[7] = 0.0
        a, b = decode_batch(features, stored), decode_batch(features, copied)
        for name in ("expectation_pos", "expectation_neg", "expectation_zero", "direction",
                     "angle", "raw_angle", "angle_clamped", "zero_negative", "zero_signal"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_retraining_reproduces_the_stored_model(self):
        # prototypes are now normalize(sum of angle * state), without first
        # dividing the angles by their total; the results agree to rounding
        fixture = load_model(V3_MODEL)
        samples = training_table(load_feature_dataset(V1_TRAIN)).samples()
        model = train(samples, 4, config=DecodeConfig(rest_threshold=0.02))
        assert model.decode_config == fixture.decode_config
        for dof, ops in model.dofs.items():
            stored = fixture.dofs[dof]
            for mine, theirs in ((ops.proto_pos, stored.proto_pos), (ops.proto_neg, stored.proto_neg)):
                np.testing.assert_allclose(mine.amplitudes, theirs.amplitudes, rtol=0, atol=1e-15)
            assert (ops.theta_pos_max, ops.theta_neg_max) == (stored.theta_pos_max, stored.theta_neg_max)
            assert ops.overlap == pytest.approx(stored.overlap, rel=0, abs=1e-15)
