"""Expectation values, per-DOF decisions, residual activations, decoding."""

import copy
import dataclasses
import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmyo.control import (
    DecodeDiagnostics,
    DecodedAction,
    DecodedBatch,
    DofDecision,
    decode_batch,
    decode_features,
    residual_activations,
)
from qmyo.errors import DegenerateOperatorsError, DimensionError
from qmyo.features import FeatureKind, FeatureVector
from qmyo.operators import (
    ControllerModel,
    DecodeConfig,
    Direction,
    DOFS,
    Dof,
    DofOperators,
    SIGN_DIRECTIONS,
    TrainingSample,
    train,
)
from qmyo.state import QuantumState, encode_rows

D1 = Dof.FLEXION_EXTENSION
D2 = Dof.RADIAL_ULNAR
D3 = Dof.PRONATION_SUPINATION


def unit(*values):
    v = np.array(values, dtype=float)
    return QuantumState(v / np.linalg.norm(v))


def triple(proto_pos, proto_neg, theta_pos=40.0, theta_neg=40.0):
    return DofOperators(
        proto_pos=proto_pos,
        proto_neg=proto_neg,
        theta_pos_max=theta_pos,
        theta_neg_max=theta_neg,
    )


def simple_sample(values, dof, direction, angle=40.0):
    return TrainingSample(
        features=FeatureVector(np.array(values, dtype=float), FeatureKind.MAV),
        dof=dof,
        direction=direction,
        angle=angle,
    )


def orthogonal_model(n_dofs=2, theta=40.0, n_channels=None, config=None):
    dofs = (D1, D2, D3)[:n_dofs]
    n = n_channels or 2 * n_dofs
    samples = []
    for i, dof in enumerate(dofs):
        for j, direction in enumerate((Direction.POSITIVE, Direction.NEGATIVE)):
            values = np.zeros(n)
            values[2 * i + j] = 1.0
            samples.append(simple_sample(values, dof, direction, angle=theta))
    return train(samples, n, config=config)


def decide(state, ops, cfg=DecodeConfig()):
    """One DOF's decision on a state (non-negative amplitudes), from a one-row batch."""
    model = ControllerModel({D1: ops}, ops.dim, cfg)
    return decode_batch(state.amplitudes[None, :], model).action(0).per_dof[D1]


class TestExpectation:
    """The decoder's direction expectations e± = (ψ·p±)² on hand-made operators."""

    def test_projector_on_own_ray(self):
        proto = unit(1.0, 2.0, 2.0)
        decision = decide(proto, triple(proto, unit(1.0, 0.0, 0.0)))
        assert decision.expectation_pos == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state(self):
        ops = triple(unit(1.0, 0.0), unit(0.5, 0.5))
        assert decide(unit(0.0, 1.0), ops).expectation_pos == pytest.approx(0.0, abs=1e-15)

    def test_matrix_vector_oracle(self):
        # p₊ = (1, 2)/√5 has the operator [[0.2, 0.4], [0.4, 0.8]]; ψ = (1, 0) reads its corner
        ops = triple(unit(1.0, 2.0), unit(0.0, 1.0))
        np.testing.assert_allclose(ops.p_pos.matrix, [[0.2, 0.4], [0.4, 0.8]], atol=1e-15)
        assert decide(unit(1.0, 0.0), ops).expectation_pos == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            decide(unit(1.0, 0.0, 0.0), triple(unit(1.0, 0.0), unit(0.0, 1.0)))


class TestDecodeDof:
    def test_positive_prototype_hits_theta_max(self):
        ops = triple(unit(1.0, 0.0), unit(0.0, 1.0), theta_pos=40.0)
        decision = decide(ops.proto_pos, ops)
        assert decision.direction is Direction.POSITIVE
        assert decision.angle == pytest.approx(40.0, abs=1e-9)
        assert not decision.angle_clamped

    def test_tie_is_rest(self):
        ops = triple(unit(1.0, 0.0), unit(0.0, 1.0))
        decision = decide(unit(1.0, 1.0), ops, DecodeConfig(rest_threshold=0.0))
        assert decision.direction is Direction.REST
        assert decision.angle == 0.0

    def test_overlap_corrected_angle(self):
        # overlap 0.5, expectations 0.6 and 0.2 -> (0.4 * 40) / 0.5 = 32; the
        # negative prototype's second axis is flipped so the state is non-negative
        s = 1 / math.sqrt(2)
        ops = triple(unit(1.0, 0.0, 0.0), QuantumState(np.array([s, -s, 0.0])))
        assert ops.overlap == pytest.approx(0.5, abs=1e-12)
        x = math.sqrt(0.6)
        y = x - math.sqrt(0.4)
        z = math.sqrt(1.0 - x * x - y * y)
        state = QuantumState(np.array([x, y, z]))
        decision = decide(state, ops)
        assert decision.expectation_pos == pytest.approx(0.6, abs=1e-12)
        assert decision.expectation_neg == pytest.approx(0.2, abs=1e-12)
        assert decision.angle == pytest.approx(32.0, abs=1e-9)

    def test_negative_direction(self):
        ops = triple(unit(1.0, 0.0), unit(0.0, 1.0), theta_neg=25.0)
        decision = decide(unit(0.0, 1.0), ops)
        assert decision.direction is Direction.NEGATIVE
        assert decision.angle == pytest.approx(25.0, abs=1e-9)
        assert decision.signed_angle() == pytest.approx(-25.0, abs=1e-9)

    def test_rest_threshold_deadzone(self):
        ops = triple(unit(1.0, 0.0), unit(0.0, 1.0))
        state = unit(1.0, 0.9)
        probe = decide(state, ops)
        assert probe.direction is Direction.POSITIVE
        margin = probe.expectation_pos - probe.expectation_neg
        decision = decide(state, ops, DecodeConfig(rest_threshold=abs(margin) + 0.01))
        assert decision.direction is Direction.REST

    def test_clamping_flags_and_caps(self):
        # margin 0.88 with overlap 0.2 pushes the raw angle past theta_max
        q = QuantumState(np.array([math.sqrt(0.2), -math.sqrt(0.8), 0.0]))
        ops = triple(unit(1.0, 0.0, 0.0), q, theta_pos=40.0)
        x = math.sqrt(0.9)
        y = math.sqrt(1.0 - 0.9 - 1e-4)
        z = 0.01
        state = QuantumState(np.array([x, y, z]))
        decision = decide(state, ops)
        assert decision.raw_angle > 40.0
        assert decision.angle == 40.0
        assert decision.angle_clamped

    def test_budget_sums_to_one(self):
        rng = np.random.default_rng(0)
        s = 1 / math.sqrt(2)
        ops = triple(unit(1.0, 0.0, 0.0), QuantumState(np.array([s, s, 0.0])))
        for _ in range(100):
            state = unit(*np.abs(rng.normal(size=3)))
            d = decide(state, ops)
            total = d.expectation_pos + d.expectation_neg + d.expectation_zero
            assert abs(total - 1.0) < 1e-10
            assert -1e-12 <= d.expectation_pos <= 1.0 + 1e-12
            assert -1e-12 <= d.expectation_neg <= 1.0 + 1e-12

    def test_negative_zero_expectation_flagged(self):
        s = 1 / math.sqrt(2)
        ops = triple(unit(1.0, 0.0), QuantumState(np.array([s, s])))
        # halfway between the overlapping prototypes the completion dips negative
        state = unit(1.0 + s, s)
        decision = decide(state, ops)
        assert decision.expectation_zero < 0.0
        assert decision.zero_negative

    def test_degenerate_overlap_rejected(self):
        nearly = QuantumState(
            np.array([1.0, 1e-9]) / np.linalg.norm(np.array([1.0, 1e-9]))
        )
        ops = triple(unit(1.0, 0.0), nearly)
        with pytest.raises(DegenerateOperatorsError):
            decide(unit(1.0, 0.0), ops)


class TestResidualActivations:
    def test_worked_example_exact_over_rationals(self):
        from fractions import Fraction

        z = (Fraction(6, 10), Fraction(7, 10), Fraction(7, 10))
        assert residual_activations(*z) == (
            Fraction(4, 10),
            Fraction(3, 10),
            Fraction(3, 10),
        )

    def test_worked_example_float(self):
        result = residual_activations(0.6, 0.7, 0.7)
        np.testing.assert_allclose(result, (0.4, 0.3, 0.3), atol=1e-15)

    def test_equations_hold(self):
        z = (0.6, 0.7, 0.7)
        d = residual_activations(*z)
        assert z[0] == pytest.approx(d[1] + d[2], abs=1e-15)
        assert z[1] == pytest.approx(d[0] + d[2], abs=1e-15)
        assert z[2] == pytest.approx(d[0] + d[1], abs=1e-15)

    def test_zeros(self):
        assert residual_activations(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_symmetric(self):
        assert residual_activations(1.0, 1.0, 1.0) == (0.5, 0.5, 0.5)

    def test_matches_linear_solver(self):
        rng = np.random.default_rng(1)
        coefficients = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        for _ in range(1000):
            z = rng.uniform(-2.0, 2.0, size=3)
            expected = np.linalg.solve(coefficients, z)
            result = residual_activations(*z)
            np.testing.assert_allclose(result, expected, atol=1e-12)


def mav_of(*values):
    return FeatureVector(np.array(values, dtype=float), FeatureKind.MAV)


def prototype_window(model, dof):
    return mav_of(*model.dofs[dof].proto_pos.amplitudes)


class TestDecode:
    def test_prototype_activates_its_dof_only(self):
        model = orthogonal_model(n_dofs=2)
        action = decode_features(prototype_window(model, D1), model)
        assert action.per_dof[D1].direction is Direction.POSITIVE
        assert action.per_dof[D1].angle == pytest.approx(40.0, abs=1e-9)
        assert action.per_dof[D2].direction is Direction.REST

    def test_two_dof_model_omits_residuals(self):
        model = orthogonal_model(n_dofs=2)
        action = decode_features(prototype_window(model, D1), model)
        assert action.residual_activations is None
        assert not action.diagnostics.zero_signal

    def test_three_dof_model_solves_residuals(self):
        model = orthogonal_model(n_dofs=3)
        action = decode_features(prototype_window(model, D1), model)
        residuals = action.residual_activations
        assert set(residuals) == {D1, D2, D3}
        z = [action.per_dof[d].expectation_zero for d in (D1, D2, D3)]
        assert residuals[D1] == pytest.approx((-z[0] + z[1] + z[2]) / 2, abs=1e-12)

    def test_residual_inputs_clamped_when_zero_negative(self):
        samples = []
        vectors = {
            (D1, Direction.POSITIVE): [1.0, 0.0, 0.0],
            (D1, Direction.NEGATIVE): [1.0, 0.2, 0.0],
            (D2, Direction.POSITIVE): [0.0, 1.0, 0.0],
            (D2, Direction.NEGATIVE): [0.0, 1.0, 0.2],
            (D3, Direction.POSITIVE): [0.0, 0.0, 1.0],
            (D3, Direction.NEGATIVE): [0.2, 0.0, 1.0],
        }
        for (dof, direction), values in vectors.items():
            samples.append(simple_sample(values, dof, direction))
        model = train(samples, 3)
        action = decode_features(prototype_window(model, D1), model)
        flagged = [
            dof
            for dof in (D1, D2, D3)
            if action.per_dof[dof].expectation_zero < 0.0
        ]
        assert flagged == [dof for dof in (D1, D2, D3) if action.per_dof[dof].zero_negative]
        if flagged:
            z = [max(action.per_dof[d].expectation_zero, 0.0) for d in (D1, D2, D3)]
            expected = residual_activations(*z)
            for dof, value in zip((D1, D2, D3), expected):
                assert action.residual_activations[dof] == pytest.approx(value, abs=1e-12)

    def test_all_rest_input(self):
        cfg = DecodeConfig(rest_threshold=0.6)
        model = dataclasses.replace(orthogonal_model(n_dofs=2), decode_config=cfg)
        action = decode_features(mav_of(1.0, 1.0, 1.0, 1.0), model)
        assert all(d.direction is Direction.REST for d in action.per_dof.values())
        assert all(d.angle == 0.0 for d in action.per_dof.values())

    def test_dimension_mismatch(self):
        model = orthogonal_model(n_dofs=2)
        with pytest.raises(DimensionError):
            decode_features(mav_of(1.0, 0.0), model)

    def test_deterministic(self):
        model = orthogonal_model(n_dofs=2)
        window = mav_of(0.3, 0.1, 0.9, 0.2)
        assert decode_features(window, model) == decode_features(window, model)


class TestDecodeFeatures:
    def test_zero_signal_short_circuits_to_rest(self):
        model = orthogonal_model(n_dofs=2)
        action = decode_features(
            FeatureVector(np.zeros(4), FeatureKind.MAV), model
        )
        assert action.diagnostics.zero_signal
        assert action.residual_activations is None
        for decision in action.per_dof.values():
            assert decision.direction is Direction.REST
            assert decision.angle == 0.0
            total = (
                decision.expectation_pos
                + decision.expectation_neg
                + decision.expectation_zero
            )
            assert total == 1.0

    def test_nonzero_features_decode_normally(self):
        model = orthogonal_model(n_dofs=2)
        action = decode_features(
            FeatureVector(np.array([1.0, 0.0, 0.0, 0.0]), FeatureKind.MAV), model
        )
        assert not action.diagnostics.zero_signal
        assert action.per_dof[D1].direction is Direction.POSITIVE


def random_model(n_dofs, n_channels, seed):
    """Model trained on random non-negative samples: its prototypes overlap,
    so completion expectations go negative on some windows."""
    rng = np.random.default_rng(seed)
    samples = [
        simple_sample(rng.uniform(0.0, 1.0, n_channels), dof, direction, rng.uniform(5, 40))
        for dof in (D1, D2, D3)[:n_dofs]
        for direction in (Direction.POSITIVE, Direction.NEGATIVE)
        for _ in range(3)
    ]
    return train(samples, n_channels, config=DecodeConfig(rest_threshold=0.01))


MODELS = {"2dof": random_model(2, 5, seed=11), "3dof": random_model(3, 6, seed=12)}


def plain_decode(features, model):
    """Row-by-row reference in Python floats: e± = (ψ·p±)², deadzone, clamp,
    residuals from max(e₀, 0). Returns per row None (zero signal) or
    (per-DOF (e₊, e₋, e₀, sign, signed angle, raw angle, clamped), residuals)."""
    cfg = model.decode_config
    rows = []
    for row in features.tolist():
        peak = max(row)
        if peak == 0.0:
            rows.append(None)
            continue
        scaled = [v / peak for v in row]
        norm = math.sqrt(math.fsum(v * v for v in scaled))
        psi = [v / norm for v in scaled]
        per_dof = []
        for dof in model.sorted_dofs():
            ops = model.dofs[dof]
            e_pos = math.fsum(a * b for a, b in zip(psi, ops.proto_pos.amplitudes)) ** 2
            e_neg = math.fsum(a * b for a, b in zip(psi, ops.proto_neg.amplitudes)) ** 2
            margin = e_pos - e_neg
            sign, angle, raw, clamped = 0, 0.0, 0.0, False
            if abs(margin) > cfg.rest_threshold:
                sign = 1 if margin > 0 else -1
                theta = ops.theta_pos_max if sign > 0 else ops.theta_neg_max
                raw = abs(margin) * theta / (1.0 - ops.overlap)
                angle = sign * min(raw, theta)
                clamped = raw > theta
            per_dof.append((e_pos, e_neg, 1.0 - e_pos - e_neg, sign, angle, raw, clamped))
        residuals = None
        if len(per_dof) == 3:
            residuals = residual_activations(*(max(d[2], 0.0) for d in per_dof))
        rows.append((per_dof, residuals))
    return rows


@st.composite
def feature_batches(draw, n_channels):
    """(N, C) non-negative rows: some all zero, some scaled by 1e±300."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    rows = draw(st.lists(st.lists(value, min_size=n_channels, max_size=n_channels),
                         min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from([1.0, 1e300, 1e-300, 0.0]), min_size=n, max_size=n))
    return np.array(rows) * np.array(scales)[:, None]


class TestDecodeBatch:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_formula(self, name, data):
        model = MODELS[name]
        features = data.draw(feature_batches(model.n_channels))
        if data.draw(st.booleans(), label="threshold at a margin"):
            # put the deadzone edge exactly on one decoded margin
            probe = decode_batch(features, model)
            margin = abs(probe.expectation_pos[0, 0] - probe.expectation_neg[0, 0])
            cfg = DecodeConfig(rest_threshold=float(margin))
            model = dataclasses.replace(model, decode_config=cfg)
            assert decode_batch(features, model).direction[0, 0] == 0.0
        batch = decode_batch(features, model)
        threshold = model.decode_config.rest_threshold
        residuals = batch.residuals()
        for i, expected in enumerate(plain_decode(features, model)):
            if expected is None:
                assert batch.zero_signal[i]
                assert (batch.direction[i] == 0).all() and (batch.angle[i] == 0).all()
                assert (batch.expectation_zero[i] == 1.0).all()
                assert residuals is None or np.isnan(residuals[i]).all()
                continue
            assert not batch.zero_signal[i]
            assert not np.signbit(batch.angle[i][batch.direction[i] == 0]).any()
            per_dof, expected_residuals = expected
            for k, (e_pos, e_neg, e_zero, sign, angle, raw, clamped) in enumerate(per_dof):
                assert batch.expectation_pos[i, k] == pytest.approx(e_pos, rel=0, abs=1e-12)
                assert batch.expectation_neg[i, k] == pytest.approx(e_neg, rel=0, abs=1e-12)
                assert batch.expectation_zero[i, k] == pytest.approx(e_zero, rel=0, abs=1e-12)
                assert batch.zero_negative[i, k] == (batch.expectation_zero[i, k] < 0)
                if abs(abs(e_pos - e_neg) - threshold) < 1e-12:
                    continue  # either side of the deadzone edge is right
                assert batch.direction[i, k] == sign
                assert batch.angle[i, k] == pytest.approx(angle, rel=0, abs=1e-12)
                assert batch.raw_angle[i, k] == pytest.approx(raw, rel=0, abs=1e-12)
                assert batch.angle_clamped[i, k] == clamped
            if expected_residuals is None:
                assert residuals is None
            else:
                np.testing.assert_allclose(residuals[i], expected_residuals, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_row_calls_equal_batch_rows_exactly(self, name, data):
        model = MODELS[name]
        features = data.draw(feature_batches(model.n_channels))
        batch = decode_batch(features, model)
        for i, row in enumerate(features):
            fv = FeatureVector(row.copy(), FeatureKind.MAV)
            assert decode_features(fv, model) == batch.action(i)
            if not batch.zero_signal[i]:
                psi = encode_rows(row[None, :])[0][0]
                for k, dof in enumerate(batch.dofs):
                    # the rank-1 shortcut (ψ·p)² agrees with the operator form ψᵀPψ
                    ops = model.dofs[dof]
                    for op, e in ((ops.p_pos, batch.expectation_pos),
                                  (ops.p_neg, batch.expectation_neg),
                                  (ops.p_zero, batch.expectation_zero)):
                        assert psi @ op.matrix @ psi == pytest.approx(e[i, k], rel=0, abs=1e-12)

    def test_memory_order_keeps_the_bits(self):
        features = np.random.default_rng(13).uniform(0.0, 1.0, (300, 6))
        want = decode_batch(features[::2], MODELS["3dof"]).decisions.tobytes()
        for layout in (np.asfortranarray(features)[::2], features[::2].copy()):
            assert decode_batch(layout, MODELS["3dof"]).decisions.tobytes() == want

    def test_margin_exactly_at_threshold_is_rest(self):
        model = MODELS["2dof"]
        features = np.array([[0.9, 0.1, 0.3, 0.0, 0.2]])
        probe = decode_batch(features, model)
        margin = float(abs(probe.expectation_pos[0, 0] - probe.expectation_neg[0, 0]))
        at, below = (
            dataclasses.replace(model, decode_config=DecodeConfig(rest_threshold=threshold))
            for threshold in (margin, np.nextafter(margin, 0))
        )
        assert decode_batch(features, at).direction[0, 0] == 0.0
        assert decode_batch(features, below).direction[0, 0] != 0.0

    def test_budget_holds_by_construction(self):
        model = MODELS["3dof"]
        features = np.random.default_rng(4).uniform(0.0, 1.0, (200, 6))
        batch = decode_batch(features, model)
        total = batch.expectation_pos + batch.expectation_neg + batch.expectation_zero
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)
        assert batch.zero_negative.any()

    def test_empty_batch(self):
        batch = decode_batch(np.zeros((0, 5)), MODELS["2dof"])
        assert len(batch) == 0 and batch.angle.shape == (0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9])
    def test_rejects_non_finite_or_negative_values(self, bad):
        features = np.ones((3, 5))
        features[1, 2] = bad
        with pytest.raises(ValueError):
            decode_batch(features, MODELS["2dof"])

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            decode_batch(np.ones((2, 4)), MODELS["2dof"])

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(DimensionError, match=r"^features must be 2-D \(windows x channels\), got \(5,\)$"):
            decode_batch(np.ones(5), MODELS["2dof"])

    def test_degenerate_overlap_rejected(self):
        nearly = QuantumState(np.array([1.0, 1e-9]) / np.linalg.norm([1.0, 1e-9]))
        model = train(
            [simple_sample([1.0, 0.0], D1, Direction.POSITIVE),
             simple_sample(nearly.amplitudes, D1, Direction.NEGATIVE)],
            2,
        )
        with pytest.raises(DegenerateOperatorsError):
            decode_batch(np.ones((1, 2)), model)

    def test_overlap_guard_edge(self):
        # 1 - ε is exact for ε = 1 - o with o >= 0.5, so the guard meets the
        # overlap itself; the next ε down puts 1 - ε one ulp above it
        model = ControllerModel({D1: triple(unit(1.0, 0.0), unit(1.0, 1e-3))}, 2)
        overlap = model.decode_tables.max_overlap
        above = np.nextafter(overlap, 1.0)
        edge, safe = 1.0 - overlap, 1.0 - above
        assert 1.0 - edge == overlap and 1.0 - safe == above and safe < edge
        window = FeatureVector(np.array([1.0, 1.0]), FeatureKind.MAV)
        at_edge = dataclasses.replace(model, decode_config=DecodeConfig(overlap_epsilon=edge))
        with pytest.raises(DegenerateOperatorsError):
            decode_batch(np.ones((1, 2)), at_edge)
        with pytest.raises(DegenerateOperatorsError):
            decode_features(window, at_edge)
        inside = dataclasses.replace(model, decode_config=DecodeConfig(overlap_epsilon=safe))
        assert decode_batch(np.ones((1, 2)), inside).direction.shape == (1, 1)
        assert decode_features(window, inside).per_dof[D1].expectation_pos > 0


@st.composite
def kernel_cases(draw):
    """A model of 1-3 DOFs and 2-8 feature rows to decode one at a time.

    A DOF's negative prototype is random or a near copy of its positive one,
    and ``overlap_epsilon`` may put 1 - ε one ulp above the largest overlap.
    The rest threshold is 0, 0.05, near 1 or exactly one decoded margin.
    A row is random, a prototype, all zero or zero on some channels, scaled
    by 10^-300 to 10^300.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n_channels = draw(st.integers(2, 6))
    dofs = {}
    for dof in draw(st.lists(st.sampled_from(DOFS), min_size=1, max_size=3, unique=True)):
        pos = rng.uniform(0.01, 1.0, n_channels)
        neg = rng.uniform(0.0, 1.0, n_channels)
        if draw(st.booleans(), label=f"{dof.value} near copy"):
            neg = pos + draw(st.sampled_from([1e-2, 1e-4, 1e-6])) * neg
        dofs[dof] = triple(unit(*pos), unit(*neg), *rng.uniform(1.0, 90.0, 2).tolist())
    overlap, epsilon = max(ops.overlap for ops in dofs.values()), 1e-6
    if overlap >= 0.5 and (overlap >= 1.0 - epsilon or draw(st.booleans(), label="tight guard")):
        epsilon = 1.0 - float(np.nextafter(overlap, 1.0))  # exact, as overlap >= 0.5
    assume(epsilon > 0.0)
    threshold = draw(st.sampled_from([0.0, 0.05, 1.0 - 1e-9, None]), label="rest threshold")
    model = ControllerModel(dofs, n_channels, DecodeConfig(threshold or 0.0, epsilon))
    prototypes = [p.amplitudes for ops in dofs.values() for p in (ops.proto_pos, ops.proto_neg)]
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "prototype", "zero", "sparse"]),
                              min_size=2, max_size=8)):
        row = rng.uniform(0.0, 1.0, n_channels)
        if kind == "prototype":
            row = prototypes[rng.integers(len(prototypes))]
        elif kind == "zero":
            row = np.zeros(n_channels)
        elif kind == "sparse":
            row = row * (rng.uniform(size=n_channels) < 0.5)
        rows.append(row * 10.0 ** draw(st.integers(-300, 300), label="exponent"))
    features = np.array(rows)
    if threshold is None:  # the deadzone edge exactly on the first row's first margin
        probe = decode_batch(features, model)
        margin = float(abs(probe.expectation_pos[0, 0] - probe.expectation_neg[0, 0]))
        model = dataclasses.replace(model, decode_config=DecodeConfig(margin, epsilon))
    return model, features


class TestFloatKernel:
    """A one-row batch decodes in Python floats, to the bits of the array kernel."""

    @given(case=kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_row_equals_the_array_kernel_bit_for_bit(self, case):
        model, features = case
        batch = decode_batch(features, model)  # two or more rows: the array kernel
        for i, row in enumerate(features):
            want = batch.decisions[:, i].tobytes()
            one = decode_batch(features[i : i + 1], model)
            assert one.decisions.shape == (6, 1, len(model.dofs))
            assert one.decisions[:, 0].tobytes() == want
            assert one.zero_signal.tolist() == [batch.zero_signal[i]]
            action = decode_features(FeatureVector(row, FeatureKind.MAV), model)
            assert action.per_dof._row.tobytes() == want
            assert action == batch.action(i)

    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_one_row_matches_the_plain_formula(self, case):
        model, features = case
        threshold = model.decode_config.rest_threshold
        for i, expected in enumerate(plain_decode(features, model)):
            one = decode_batch(features[i : i + 1], model)
            if expected is None:
                assert one.zero_signal[0] and not one.decisions.any()
                continue
            for k, (e_pos, e_neg, _, sign, angle, raw, clamped) in enumerate(expected[0]):
                ops = model.dofs[one.dofs[k]]
                assert one.expectation_pos[0, k] == pytest.approx(e_pos, rel=0, abs=1e-12)
                assert one.expectation_neg[0, k] == pytest.approx(e_neg, rel=0, abs=1e-12)
                if abs(abs(e_pos - e_neg) - threshold) < 3e-12:
                    continue  # either side of the deadzone edge is right
                # a margin off by 2e-12 moves the angle by that much over (1 - overlap)
                tol = 2e-12 * max(ops.theta_pos_max, ops.theta_neg_max) / (1.0 - ops.overlap)
                assert one.direction[0, k] == sign
                assert one.angle[0, k] == pytest.approx(angle, rel=1e-12, abs=tol)
                assert one.raw_angle[0, k] == pytest.approx(raw, rel=1e-12, abs=tol)
                if abs(raw - (ops.theta_pos_max if sign > 0 else ops.theta_neg_max)) > tol:
                    assert one.angle_clamped[0, k] == clamped


class TestDecisionRecords:
    """Decision records hold slots, not dicts, and derive e₀ when read."""

    def test_records_have_no_instance_dict(self):
        model = MODELS["3dof"]
        batch = decode_batch(np.array([[0.9, 0.1, 0.3, 0.0, 0.2, 0.4]]), model)
        action = batch.action(0)
        records = (batch, action, action.diagnostics, action.per_dof, *action.per_dof.values())
        for record in records:
            assert not hasattr(record, "__dict__")
        for cls in (DofDecision, DecodeDiagnostics, DecodedAction, DecodedBatch):
            assert "expectation_zero" not in {f.name for f in dataclasses.fields(cls)}
        assert [f.name for f in dataclasses.fields(DecodedAction)] == ["per_dof", "diagnostics"]

    def test_windows_share_the_diagnostics(self):
        features = np.random.default_rng(5).uniform(0.0, 1.0, (6, 6))
        features[[1, 4]] = 0.0
        actions = [decode_batch(features, MODELS["3dof"]).action(i) for i in range(6)]
        signal = {id(actions[i].diagnostics) for i in (0, 2, 3, 5)}
        silent = {id(actions[i].diagnostics) for i in (1, 4)}
        assert len(signal) == len(silent) == 1 and signal != silent
        assert actions[1].diagnostics.zero_signal and not actions[0].diagnostics.zero_signal

    def test_replace_keeps_the_derived_fields(self):
        fv = FeatureVector(np.array([0.9, 0.1, 0.3, 0.0, 0.2, 0.4]), FeatureKind.MAV)
        decision = decode_features(fv, MODELS["3dof"]).per_dof[D2]
        moved = dataclasses.replace(decision, angle=decision.angle + 1e-6)
        assert moved.angle == decision.angle + 1e-6
        assert moved.expectation_zero == decision.expectation_zero
        shifted = dataclasses.replace(decision, expectation_pos=decision.expectation_pos + 0.5)
        assert shifted.expectation_zero == 1.0 - shifted.expectation_pos - decision.expectation_neg

    def test_derived_fields_equal_the_batch_rows_bit_for_bit(self):
        model = MODELS["3dof"]
        features = np.random.default_rng(4).uniform(0.0, 1.0, (200, 6))
        features[17] = 0.0
        batch = decode_batch(features, model)
        e_zero, negative = batch.expectation_zero, batch.zero_negative
        assert negative.any() and (e_zero[17] == 1.0).all()
        signal = np.delete(batch.direction, 17, axis=0)
        assert batch.angle_clamped.any() and (signal == 0).any()
        for i, row in enumerate(features):
            action = decode_features(FeatureVector(row, FeatureKind.MAV), model)
            assert action == batch.action(i)
            for k, dof in enumerate(batch.dofs):
                decision = action.per_dof[dof]
                fields = (decision.expectation_pos, decision.expectation_neg,
                          decision.angle, decision.raw_angle)
                arrays = (batch.expectation_pos, batch.expectation_neg,
                          np.abs(batch.angle), batch.raw_angle)
                assert [v.hex() for v in fields] == [float(a[i, k]).hex() for a in arrays]
                assert decision.direction is SIGN_DIRECTIONS[int(batch.direction[i, k])]
                assert decision.angle_clamped is bool(batch.angle_clamped[i, k])
                assert decision.expectation_zero.hex() == float(e_zero[i, k]).hex()
                assert decision.zero_negative is bool(negative[i, k])

    def test_residuals_equal_the_batch_rows_bit_for_bit(self):
        features = np.random.default_rng(8).uniform(0.0, 1.0, (200, 6))
        features[[3, 90]] = 0.0
        batch = decode_batch(features, MODELS["3dof"])
        residuals = batch.residuals()
        assert batch.zero_negative.any()
        for i in range(len(batch)):
            got = batch.action(i).residual_activations
            if i in (3, 90):
                assert got is None and np.isnan(residuals[i]).all()
                continue
            assert list(got) == [D1, D2, D3]
            assert [v.hex() for v in got.values()] == [float(v).hex() for v in residuals[i]]

    def test_two_dof_actions_have_no_residuals(self):
        features = np.random.default_rng(9).uniform(0.0, 1.0, (20, 5))
        features[7] = 0.0
        batch = decode_batch(features, MODELS["2dof"])
        assert batch.residuals() is None
        assert all(batch.action(i).residual_activations is None for i in range(len(batch)))

    def test_angles_are_the_unsigned_batch_angles(self):
        features = np.random.default_rng(10).uniform(0.0, 1.0, (200, 6))
        features[0] = 0.0
        batch = decode_batch(features, MODELS["3dof"])
        assert batch.angle_clamped.any() and (batch.direction == 0).any()
        for i in range(len(batch)):
            for k, decision in enumerate(batch.action(i).per_dof.values()):
                assert decision.angle.hex() == float(abs(batch.angle[i, k])).hex()

    @pytest.mark.parametrize("n", [1, 7])
    def test_actions_own_their_rows(self, n):
        features = np.random.default_rng(12).uniform(0.0, 1.0, (n, 6))
        batch = decode_batch(features, MODELS["3dof"])
        rows = [batch.action(i).per_dof._row for i in range(n)]
        rows.append(decode_features(FeatureVector(features[0], FeatureKind.MAV),
                                    MODELS["3dof"]).per_dof._row)
        assert all(row.base is None and row.shape == (6, 3) for row in rows)

    def test_held_actions_stay_small(self):
        model = MODELS["3dof"]
        features = np.random.default_rng(6).uniform(0.0, 1.0, (500, 6))
        features[::10] = 0.0
        windows = [FeatureVector(row, FeatureKind.MAV) for row in features]
        decode_features(windows[0], model)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [decode_features(fv, model) for fv in windows]
            gc.collect()
            per_action = (tracemalloc.get_traced_memory()[0] - before) / len(held)
        finally:
            tracemalloc.stop()
        assert per_action <= 450

    def test_per_dof_behaves_like_the_dict_of_its_decisions(self):
        action = decode_batch(np.array([[0.9, 0.1, 0.3, 0.0, 0.2, 0.4]]), MODELS["3dof"]).action(0)
        per_dof = action.per_dof
        as_dict = {dof: per_dof[dof] for dof in (D1, D2, D3)}
        shuffled = {dof: per_dof[dof] for dof in (D3, D1, D2)}
        for other in (as_dict, shuffled):
            assert per_dof == other and other == per_dof and not per_dof != other
        assert per_dof != {D1: per_dof[D1], D2: per_dof[D2]}
        assert list(per_dof) == [D1, D2, D3] and len(per_dof) == 3 and D2 in per_dof
        assert list(per_dof.items()) == list(as_dict.items())
        assert list(per_dof.values()) == list(as_dict.values())
        assert repr(per_dof) == repr(as_dict)
        assert repr(action) == (f"DecodedAction(per_dof={as_dict!r}, "
                                "diagnostics=DecodeDiagnostics(zero_signal=False))")
        assert dataclasses.replace(action, per_dof=dict(per_dof)) == action

    def test_per_dof_is_read_only_and_raises_key_error(self):
        per_dof = decode_batch(np.ones((1, 5)), MODELS["2dof"]).action(0).per_dof
        with pytest.raises(KeyError):
            per_dof[D3]
        assert per_dof.get(D3) is None and D3 not in per_dof
        with pytest.raises(TypeError):
            per_dof[D1] = per_dof[D2]

    def test_actions_survive_pickle_and_deepcopy(self):
        features = np.array([[0.9, 0.1, 0.3, 0.0, 0.2, 0.4], [0.0] * 6])
        for action in map(decode_batch(features, MODELS["3dof"]).action, (0, 1)):
            for copied in (pickle.loads(pickle.dumps(action)), copy.deepcopy(action)):
                assert copied == action and repr(copied) == repr(action)
                assert list(copied.per_dof) == list(action.per_dof)

    def test_zeros_are_positive(self):
        features = np.random.default_rng(11).uniform(0.0, 1.0, (50, 6))
        features[[0, 7]] = 0.0
        batch = decode_batch(features, MODELS["3dof"])
        assert (batch.direction[1:] == 0).any()
        for i in range(len(batch)):
            for decision in batch.action(i).per_dof.values():
                values = (decision.expectation_pos, decision.expectation_neg,
                          decision.angle, decision.raw_angle)
                if decision.direction is Direction.REST:
                    assert decision.raw_angle == 0.0 and decision.angle == 0.0
                for value in values:
                    assert math.copysign(1.0, value) == 1.0
