"""The table training path against the per-sample code it replaced.

The reference functions below are the earlier list implementations of
``to_training_samples``, ``subset_per_action``, ``build_prototype`` and
``train``, kept verbatim but for names. The table path must reproduce
them exactly: the same rows in the same order, prototypes and angles bit
for bit, the same exception type and message, and the same log lines.
"""

import contextlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmyo.datasets import (
    FeatureDataset,
    from_training_samples,
    from_training_table,
    to_training_samples,
    training_table,
)
from qmyo.errors import (
    ConfigurationError,
    DatasetSchemaError,
    DegeneratePrototypeError,
    DimensionError,
    InsufficientTrainingError,
    ZeroSignalError,
)
from qmyo.experiment import subset_per_action
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import (
    ControllerModel,
    DecodeConfig,
    Direction,
    Dof,
    DofOperators,
    MovementPhase,
    TrainingSample,
    TrainingTable,
    train,
    train_table,
)
from qmyo.state import QuantumState, encode_rows
from qmyo.synthetic import default_mixing_model, generate_training_set, generate_training_table

_datasets_log = logging.getLogger("qmyo.datasets")
_operators_log = logging.getLogger("qmyo.operators")


def reference_to_training_samples(ds):
    table = np.column_stack([ds.angles[dof] for dof in Dof])
    active = table != 0.0
    if (multi := np.flatnonzero(active.sum(axis=1) > 1)).size:
        names = ", ".join(dof.value for dof, on in zip(Dof, active[multi[0]]) if on)
        raise DatasetSchemaError(
            f"row {multi[0]}: training rows must activate exactly one DOF, got {names}"
        )
    rows, columns = np.nonzero(active)
    n_rest = ds.n_rows - len(rows)
    dofs = list(Dof)
    samples = [
        TrainingSample(
            features=FeatureVector(values, ds.feature_kind),
            dof=dofs[k],
            direction=Direction.POSITIVE if signed > 0 else Direction.NEGATIVE,
            angle=abs(signed),
            movement_phase=ds.phases[i],
        )
        for i, k, signed, values in zip(
            rows.tolist(), columns.tolist(), table[rows, columns].tolist(), ds.features[rows]
        )
    ]
    if n_rest:
        _datasets_log.info("skipped %d rest rows while collecting training samples", n_rest)
    return samples


def reference_subset(samples, size):
    taken = {}
    subset = []
    for s in samples:
        key = (s.dof, s.direction)
        if taken.get(key, 0) < size:
            taken[key] = taken.get(key, 0) + 1
            subset.append(s)
    for key, count in taken.items():
        if count < size:
            dof, direction = key
            raise ConfigurationError(
                f"training size {size} exceeds the {count} available "
                f"{dof.value} {direction.value} samples"
            )
    return subset


def reference_prototype(samples):
    states, zero = encode_rows(np.stack([s.features.values for s in samples]))
    if zero.any():
        raise ZeroSignalError("all-zero feature vector has no direction to encode")
    angles = np.array([s.angle for s in samples], dtype=float)
    combined = angles @ states
    norm = float(np.linalg.norm(combined))
    if norm < 1e-12 * angles.sum():
        dof, direction = samples[0].dof, samples[0].direction
        raise DegeneratePrototypeError(
            f"{dof.value} {direction.value}: weighted state sum cancelled to norm {norm!r}"
        )
    return QuantumState(combined / norm)


def reference_train(samples, n_channels, dofs=None):
    rows = [s.features.values for s in samples]
    widths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    if (wrong := widths[widths != n_channels]).size:
        raise DimensionError(f"sample has {wrong[0]} channels, expected {n_channels}")
    signal = (np.array(rows).reshape(len(rows), n_channels) != 0.0).any(axis=1)
    is_direct = np.array([s.movement_phase is MovementPhase.DIRECT for s in samples], dtype=bool)
    n_dropped = len(samples) - int(is_direct.sum())
    if n_dropped:
        _operators_log.info("dropped %d return-phase samples from training", n_dropped)
    n_zero = int((is_direct & ~signal).sum())
    if n_zero:
        _operators_log.info("dropped %d zero-signal samples from training", n_zero)
    direct = [s for s, keep in zip(samples, is_direct & signal) if keep]
    if dofs is None:
        dofs = sorted({s.dof for s in direct})
    if not dofs:
        raise InsufficientTrainingError("no direct-phase training samples")
    by_group = {}
    for s in direct:
        by_group.setdefault((s.dof, s.direction), []).append(s)
    trained = {}
    for dof in sorted(dofs):
        for direction in (Direction.POSITIVE, Direction.NEGATIVE):
            if not by_group.get((dof, direction)):
                raise InsufficientTrainingError(
                    f"no {direction.value} training samples for {dof.value}"
                )
        pos, neg = by_group[(dof, Direction.POSITIVE)], by_group[(dof, Direction.NEGATIVE)]
        trained[dof] = DofOperators(
            proto_pos=reference_prototype(pos),
            proto_neg=reference_prototype(neg),
            theta_pos_max=max(s.angle for s in pos),
            theta_neg_max=max(s.angle for s in neg),
        )
    return ControllerModel(dofs=trained, n_channels=n_channels, decode_config=DecodeConfig())


@contextlib.contextmanager
def logged():
    """Messages logged under ``qmyo`` while the block runs."""
    messages = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("qmyo")
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def outcome(fn, *args, **kwargs):
    """("ok", comparable result, log) or ("raised", type, message, log)."""
    with logged() as messages:
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the type is part of what is compared
            return ("raised", type(exc), str(exc), messages)
    return ("ok", comparable(result), messages)


def comparable(result):
    if isinstance(result, ControllerModel):
        return result.n_channels, {
            dof: (
                ops.proto_pos.amplitudes.tobytes(),
                ops.proto_neg.amplitudes.tobytes(),
                ops.theta_pos_max,
                ops.theta_neg_max,
            )
            for dof, ops in result.dofs.items()
        }
    if isinstance(result, TrainingTable):
        result = result.samples(FeatureKind.ZC)
    return [
        (s.features.values.tobytes(), s.dof, s.direction, s.angle, s.movement_phase)
        for s in result
    ]


def column(draw, n, *values):
    """(n,) array of values drawn one by one (no fill value)."""
    return draw(arrays(type(values[0]), n, elements=st.sampled_from(values), fill=st.nothing()))


@st.composite
def datasets(draw):
    """Rows of rest, single-DOF, return-phase and all-zero windows, sometimes
    one multi-DOF row; signed feature values so weighted sums can cancel."""
    n_channels, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    value = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-10, 10)
    features = draw(arrays(float, (n, n_channels), elements=value, fill=st.nothing()))
    features[column(draw, n, False, False, False, False, False, True)] = 0.0
    which = column(draw, n, -1, 0, 0, 0, 1, 2, 2, 2)  # -1: a rest row
    magnitude = draw(arrays(float, n, elements=st.sampled_from([1.0, 2.5, 7.0])
                            | st.floats(1e-3, 90.0), fill=st.nothing()))
    signed = column(draw, n, 1.0, -1.0) * magnitude
    angles = {dof: np.where(which == k, signed, 0.0) for k, dof in enumerate(Dof)}
    if n and draw(st.sampled_from([False] * 7 + [True])):
        row = draw(st.integers(0, n - 1))
        angles[Dof.FLEXION_EXTENSION][row] = 3.0
        angles[Dof.PRONATION_SUPINATION][row] = -4.0
    phase = column(draw, n, 0, 0, 0, 1)
    phases = [(MovementPhase.DIRECT, MovementPhase.RETURN)[p] for p in phase.tolist()]
    return FeatureDataset(features, angles, phases, np.zeros(n, dtype=int),
                          feature_kind=FeatureKind.ZC)


requested = st.none() | st.lists(st.sampled_from(list(Dof)), max_size=3, unique=True)


class TestTableTrainingEqualsThePerSampleCode:
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_conversion(self, ds):
        expected = outcome(reference_to_training_samples, ds)
        assert outcome(training_table, ds) == expected
        assert outcome(to_training_samples, ds) == expected

    @settings(max_examples=100, deadline=None)
    @given(datasets(), requested)
    def test_training(self, ds, dofs):
        try:
            samples = reference_to_training_samples(ds)
        except DatasetSchemaError:
            return
        expected = outcome(reference_train, samples, ds.n_channels, dofs)
        table = training_table(ds)
        assert outcome(train_table, table, ds.n_channels, dofs) == expected
        assert outcome(train, samples, ds.n_channels, dofs) == expected

    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.integers(1, 8))
    def test_subset_then_training(self, ds, size):
        try:
            samples = reference_to_training_samples(ds)
        except DatasetSchemaError:
            return
        table = training_table(ds)
        expected = outcome(reference_subset, samples, size)
        assert outcome(subset_per_action, table, size) == expected
        if expected[0] == "ok":
            subset = subset_per_action(table, size)
            want = outcome(reference_train, reference_subset(samples, size), ds.n_channels)
            assert outcome(train_table, subset, ds.n_channels) == want


def make_table(rows, angles, direct=None):
    features = np.array(rows, dtype=float)
    n = len(angles)
    return TrainingTable(features, np.zeros(n, dtype=int), np.array(angles, dtype=float),
                         np.ones(n, dtype=bool) if direct is None else np.array(direct))


class TestTrainTable:
    def test_short_group_named_in_order_of_first_appearance(self):
        t = make_table([[1.0, 0.0]] * 5, [-1.0, 2.0, 3.0, -4.0, 5.0])
        with pytest.raises(ConfigurationError, match="exceeds the 2 available d1 negative"):
            subset_per_action(t, 3)

    def test_subset_keeps_the_table_order(self):
        t = make_table([[float(i), 1.0] for i in range(6)], [1.0, -1.0, 2.0, 3.0, -2.0, -3.0])
        np.testing.assert_array_equal(subset_per_action(t, 2).angles, [1.0, -1.0, 2.0, -2.0])

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan])
    def test_zero_or_nan_angle_rejected(self, bad):
        with pytest.raises(ValueError, match="training angle must be > 0"):
            train_table(make_table([[1.0, 0.0], [0.0, 1.0]], [1.0, bad]), 2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="^sample has 2 channels, expected 3$"):
            train_table(make_table([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0]), 3)

    def test_samples_round_trip(self):
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [1.5, -2.5], direct=[True, False])
        back = TrainingTable.of_samples(t.samples(), 2)
        for got, want in zip(back, t):
            np.testing.assert_array_equal(got, want)

    def test_degenerate_group_raises_as_the_per_sample_code(self):
        t = make_table([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [2.0, 2.0, -1.0])
        samples = t.samples(FeatureKind.ZC)
        expected = outcome(reference_train, samples, 2)
        assert expected[:2] == ("raised", DegeneratePrototypeError)
        assert outcome(train_table, t, 2) == expected == outcome(train, samples, 2)

    def test_list_and_table_give_the_same_synthetic_dataset(self):
        mixing = default_mixing_model(noise_sigma=0.1, seed=4)
        listed = from_training_samples(generate_training_set(mixing, 7), mixing.n_channels)
        tabled = from_training_table(generate_training_table(mixing, 7))
        np.testing.assert_array_equal(listed.features, tabled.features)
        for dof in Dof:
            assert listed.angles[dof].tobytes() == tabled.angles[dof].tobytes()
        assert listed.phases == tabled.phases
