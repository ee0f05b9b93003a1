"""Amplitude encoding and inner products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmyo.errors import DimensionError
from qmyo.features import mav
from qmyo.state import QuantumState, encode_rows, inner_product

NORM_TOL = 1e-12


def encode(*values):
    """The state of one row of feature values, which may be signed."""
    states, zero = encode_rows(np.array([values], dtype=float))
    assert not zero[0]
    return QuantumState(states[0])


class TestEncode:
    def test_three_four_five(self):
        state = encode(3.0, 4.0)
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        state = encode(1.0, 0.0, 0.0)
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0, 0.0])

    def test_symmetric(self):
        state = encode(1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(state.amplitudes, [0.5] * 4, atol=1e-15)

    def test_all_zero_rejected(self):
        # an all-zero row is flagged and left zero, so it never passes as a state
        states, zero = encode_rows(np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]]))
        assert zero.tolist() == [True, False]
        np.testing.assert_array_equal(states[0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not unit norm"):
            QuantumState(states[0])

    @given(
        values=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=16),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300)
    def test_scale_invariant(self, values, scale):
        base = encode(*values)
        scaled = encode(*(scale * v for v in values))
        np.testing.assert_allclose(scaled.amplitudes, base.amplitudes, atol=1e-12)

    @given(values=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=12))
    @settings(max_examples=200)
    def test_mav_states_live_in_positive_orthant(self, values):
        window = np.abs(np.array(values))[:, None]
        feature = mav(window)
        if not np.any(feature.values):
            return
        assert np.all(encode(*feature.values).amplitudes >= 0.0)

    def test_unit_norm_over_a_million_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            batch = rng.normal(size=(10_000, 6))
            batch[np.all(batch == 0, axis=1)] += 1.0
            norms = np.linalg.norm(batch, axis=1)
            states = batch / norms[:, None]
            err = np.abs(np.einsum("ij,ij->i", states, states) - 1.0)
            assert err.max() < NORM_TOL
        # the loop above mirrors the encoding's arithmetic in bulk; check the
        # real path, one row at a time, on a sample of the same signed generator
        for values in rng.normal(size=(2_000, 6)):
            state = encode(*values)
            assert abs(np.dot(state.amplitudes, state.amplitudes) - 1.0) < NORM_TOL


class TestQuantumStateInvariants:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuantumState(np.array([np.nan, 0.0]))

    def test_accepts_within_tolerance(self):
        QuantumState(np.array([1.0 + 4e-13, 0.0]))


class TestInnerProduct:
    def test_self_is_one(self):
        state = encode(3.0, 4.0)
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = encode(1.0, 0.0)
        b = encode(0.0, 1.0)
        assert inner_product(a, b) == 0.0

    def test_analytic_value(self):
        a = encode(0.6, 0.8)
        b = encode(0.8, 0.6)
        assert inner_product(a, b) == pytest.approx(0.96, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(encode(1.0, 0.0), encode(1.0, 0.0, 0.0))

    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8).filter(
            lambda xs: any(x != 0 for x in xs)
        )
    )
    @settings(max_examples=200)
    def test_bounded_for_unit_states(self, values):
        state = encode(*values)
        other = encode(*np.ones(len(values)))
        assert -1.0 - 1e-12 <= inner_product(state, other) <= 1.0 + 1e-12
