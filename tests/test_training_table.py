"""The table training path against the per-sample code it replaced.

The reference functions below are the earlier list implementations of
dataset-to-samples conversion, ``subset_per_action``, one prototype's
construction and ``train``, kept verbatim but for names and for reading
each row's values from a plain :class:`Row`, so that training rows may
be signed as a hand-built table's can. The table path must reproduce
them exactly: the same rows in the same order, prototypes and angles bit
for bit, the same exception type and message, and the same log lines.
"""

import contextlib
import logging
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmyo.datasets import (
    FeatureDataset,
    from_training_samples,
    from_training_table,
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
    DOFS,
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


class Row(NamedTuple):
    """One training row as plain values, which may be signed."""

    values: np.ndarray
    dof: Dof
    direction: Direction
    angle: float
    movement_phase: MovementPhase


def as_rows(samples):
    return [Row(s.features.values, s.dof, s.direction, s.angle, s.movement_phase) for s in samples]


def reference_rows(table):
    """A training table read row by row."""
    phases = (MovementPhase.RETURN, MovementPhase.DIRECT)
    return [
        Row(values, DOFS[k], Direction.POSITIVE if signed > 0 else Direction.NEGATIVE,
            abs(signed), phases[direct])
        for values, k, signed, direct in zip(
            table.features, table.dof_index.tolist(), table.angles.tolist(), table.direct.tolist()
        )
    ]


def reference_to_training_samples(ds):
    table = np.column_stack([ds.angles[dof] for dof in Dof])
    active = table != 0.0
    if (multi := np.flatnonzero(active.sum(axis=1) > 1)).size:
        names = ", ".join(dof.value for dof, on in zip(Dof, active[multi[0]]) if on)
        raise DatasetSchemaError(
            f"{ds.source or '<dataset>'}:{multi[0] + 2}: training rows must activate exactly "
            f"one DOF, got {names}"
        )
    rows, columns = np.nonzero(active)
    n_rest = ds.n_rows - len(rows)
    dofs = list(Dof)
    samples = [
        TrainingSample(
            features=FeatureVector(values, FeatureKind.MAV),
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
    states, zero = encode_rows(np.stack([s.values for s in samples]))
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
    rows = [s.values for s in samples]
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
        result = reference_rows(result)
    elif result and isinstance(result[0], TrainingSample):
        result = as_rows(result)
    return [(s.values.tobytes(), s.dof, s.direction, s.angle, s.movement_phase) for s in result]


def column(draw, n, *values):
    """(n,) array of values drawn one by one (no fill value)."""
    return draw(arrays(type(values[0]), n, elements=st.sampled_from(values), fill=st.nothing()))


def feature_rows(draw, n, n_channels, value):
    """(n, C) features of ``value``, some rows all zero."""
    features = draw(arrays(float, (n, n_channels), elements=value, fill=st.nothing()))
    features[column(draw, n, False, False, False, False, False, True)] = 0.0
    return features


def signed_angles(draw, n):
    magnitude = draw(arrays(float, n, elements=st.sampled_from([1.0, 2.5, 7.0])
                            | st.floats(1e-3, 90.0), fill=st.nothing()))
    return column(draw, n, 1.0, -1.0) * magnitude


@st.composite
def datasets(draw):
    """Rows of rest, single-DOF, return-phase and all-zero windows, sometimes
    one multi-DOF row."""
    n_channels, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    value = st.sampled_from([-0.0, 0.0, 1.0, 2.0]) | st.floats(0, 10)
    features = feature_rows(draw, n, n_channels, value)
    which = column(draw, n, -1, 0, 0, 0, 1, 2, 2, 2)  # -1: a rest row
    signed = signed_angles(draw, n)
    angles = {dof: np.where(which == k, signed, 0.0) for k, dof in enumerate(Dof)}
    if n and draw(st.sampled_from([False] * 7 + [True])):
        row = draw(st.integers(0, n - 1))
        angles[Dof.FLEXION_EXTENSION][row] = 3.0
        angles[Dof.PRONATION_SUPINATION][row] = -4.0
    phase = column(draw, n, 0, 0, 0, 1)
    phases = [(MovementPhase.DIRECT, MovementPhase.RETURN)[p] for p in phase.tolist()]
    return FeatureDataset(features, angles, phases, np.zeros(n, dtype=int))


@st.composite
def signed_tables(draw):
    """Single-DOF and return-phase rows, some all zero, with signed feature
    values so weighted sums can cancel."""
    n_channels, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    value = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]) | st.floats(-10, 10)
    features = feature_rows(draw, n, n_channels, value)
    return TrainingTable(features, column(draw, n, 0, 0, 0, 1, 2, 2, 2), signed_angles(draw, n),
                         column(draw, n, True, True, True, False))


requested = st.none() | st.lists(st.sampled_from(list(Dof)), max_size=3, unique=True)


class TestTableTrainingEqualsThePerSampleCode:
    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_conversion(self, ds):
        expected = outcome(reference_to_training_samples, ds)
        assert outcome(training_table, ds) == expected
        assert outcome(lambda d: training_table(d).samples(), ds) == expected

    @settings(max_examples=100, deadline=None)
    @given(datasets(), requested)
    def test_training(self, ds, dofs):
        try:
            samples = reference_to_training_samples(ds)
        except DatasetSchemaError:
            return
        expected = outcome(reference_train, as_rows(samples), ds.n_channels, dofs)
        table = training_table(ds)
        assert outcome(train_table, table, dofs) == expected
        assert outcome(train, samples, ds.n_channels, dofs) == expected

    @settings(max_examples=100, deadline=None)
    @given(signed_tables(), requested)
    def test_training_on_signed_rows(self, table, dofs):
        n_channels = table.features.shape[1]
        expected = outcome(reference_train, reference_rows(table), n_channels, dofs)
        assert outcome(train_table, table, dofs) == expected

    @settings(max_examples=100, deadline=None)
    @given(signed_tables(), st.integers(1, 8))
    def test_subset_then_training(self, table, size):
        rows, n_channels = reference_rows(table), table.features.shape[1]
        expected = outcome(reference_subset, rows, size)
        assert outcome(subset_per_action, table, size) == expected
        if expected[0] == "ok":
            subset = subset_per_action(table, size)
            want = outcome(reference_train, reference_subset(rows, size), n_channels)
            assert outcome(train_table, subset) == want


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
            train_table(make_table([[1.0, 0.0], [0.0, 1.0]], [1.0, bad]))

    def test_model_width_is_the_table_width(self):
        for width in (1, 2, 5):
            model = train_table(make_table(np.ones((2, width)), [1.0, -1.0]))
            assert type(model.n_channels) is int and model.n_channels == width

    def test_samples_round_trip(self):
        t = make_table([[1.0, 0.0], [0.0, 1.0]], [1.5, -2.5], direct=[True, False])
        back = TrainingTable.of_samples(t.samples(), 2)
        for got, want in zip(back, t):
            np.testing.assert_array_equal(got, want)

    def test_degenerate_group_raises_as_the_per_sample_code(self):
        t = make_table([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [2.0, 2.0, -1.0])
        expected = outcome(reference_train, reference_rows(t), 2)
        assert expected[:2] == ("raised", DegeneratePrototypeError)
        assert outcome(train_table, t) == expected

    def test_list_and_table_give_the_same_synthetic_dataset(self):
        mixing = default_mixing_model(noise_sigma=0.1, seed=4)
        listed = from_training_samples(generate_training_set(mixing, 7), mixing.n_channels)
        tabled = from_training_table(generate_training_table(mixing, 7))
        np.testing.assert_array_equal(listed.features, tabled.features)
        for dof in Dof:
            assert listed.angles[dof].tobytes() == tabled.angles[dof].tobytes()
        assert listed.phases == tabled.phases
