"""Windowing, the MAV feature and raw recording files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmyo.errors import DatasetParseError, DatasetSchemaError, DimensionError, EmptyInputError
from qmyo.features import (
    EmgRecording,
    FeatureKind,
    FeatureVector,
    load_recording,
    mav,
    save_recording,
    segment_windows,
)
from qmyo.operators import DOFS
from qmyo.synthetic import default_mixing_model, generate_raw_emg


def recording(n_samples, n_channels=1, rate=1024.0, fill=0.0):
    return EmgRecording(np.full((n_samples, n_channels), fill), rate)


class TestSegmentWindows:
    def test_hundred_ms_at_1024_hz(self):
        rec = recording(1024, n_channels=3)
        windows = segment_windows(rec, 100.0)
        assert len(windows) == 10
        assert all(w.shape == (102, 3) for w in windows)

    def test_windows_are_consecutive(self):
        rec = EmgRecording(np.arange(1024.0)[:, None], 1024.0)
        windows = segment_windows(rec, 100.0)
        for i, w in enumerate(windows):
            assert w[0, 0] == i * 102

    def test_window_longer_than_recording(self):
        with pytest.raises(EmptyInputError):
            segment_windows(recording(50), 100.0)

    def test_exactly_one_window(self):
        assert len(segment_windows(recording(102), 100.0)) == 1

    def test_partial_window_dropped(self):
        assert len(segment_windows(recording(203), 100.0)) == 1

    def test_window_under_two_samples_rejected(self):
        with pytest.raises(ValueError):
            segment_windows(recording(100, rate=10.0), 100.0)

    @pytest.mark.parametrize("window_ms, rate", [(1e308, 1024.0), (1e200, 1e200), (np.inf, 1.0)])
    def test_unbounded_window_rejected(self, window_ms, rate):
        with pytest.raises(ValueError, match="samples at .* Hz; need at least 2 and finitely many$"):
            segment_windows(recording(1024, rate=rate), window_ms)

    @pytest.mark.parametrize("window_ms", [0.0, -100.0, float("nan")])
    def test_non_positive_window_rejected(self, window_ms):
        with pytest.raises(ValueError, match=f"^window_ms must be > 0, got {window_ms}$"):
            segment_windows(recording(1024), window_ms)

    @given(
        n_samples=st.integers(1, 3000),
        window_len=st.integers(2, 200),
        n_channels=st.integers(1, 3),
    )
    @settings(max_examples=300)
    def test_windows_tile_the_recording(self, n_samples, window_len, n_channels):
        # 1000 Hz makes the ms-to-sample conversion exact
        samples = np.arange(n_samples * n_channels, dtype=float).reshape(n_samples, n_channels)
        rec = EmgRecording(samples, 1000.0)
        n = n_samples // window_len
        if n == 0:
            with pytest.raises(EmptyInputError):
                segment_windows(rec, float(window_len))
        else:
            windows = segment_windows(rec, float(window_len))
            assert len(windows) == n
            np.testing.assert_array_equal(
                np.array(windows), samples[: n * window_len].reshape(n, window_len, n_channels)
            )


class TestMav:
    def test_signed_samples(self):
        fv = mav(np.array([[1.0], [-1.0], [2.0], [-2.0]]))
        assert fv.values[0] == 1.5
        assert fv.kind is FeatureKind.MAV

    def test_all_zero(self):
        assert mav(np.zeros((4, 2))).values.tolist() == [0.0, 0.0]

    def test_two_samples(self):
        assert mav(np.array([[3.0], [4.0]])).values[0] == 3.5

    @pytest.mark.parametrize("window", [np.array([3.0, 4.0]), np.zeros((0, 2)), np.zeros((3, 0)),
                                        np.zeros((2, 2, 1))])
    def test_window_must_be_non_empty_and_2d(self, window):
        with pytest.raises(EmptyInputError, match="^window must be a non-empty 2-D array$"):
            mav(window)

    def test_per_channel(self):
        window = np.array([[1.0, -4.0], [-3.0, 0.0]])
        assert mav(window).values.tolist() == [2.0, 2.0]


def reference_check(values):
    """The per-element form of FeatureVector's min/max check: the error
    message it raises, or None when it accepts the values."""
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return "feature values must be finite and non-negative"
    return None


special_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308,
                                  np.inf, -np.inf, np.nan])
any_floats = st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True))


class TestFeatureVectorCheck:
    @given(values=st.lists(any_floats, max_size=12), kind=st.sampled_from(list(FeatureKind)))
    @settings(max_examples=400)
    def test_accepts_and_rejects_as_the_elementwise_formula(self, values, kind):
        values = np.array(values, dtype=float)
        expected = reference_check(values)
        if expected is None:
            assert FeatureVector(values, kind).values.tolist() == values.tolist()
        else:
            with pytest.raises(ValueError, match=expected):
                FeatureVector(values, kind)

    @pytest.mark.parametrize("kind", list(FeatureKind))
    @pytest.mark.parametrize(
        "values",
        [[], [-0.0], [0.0, -0.0], [np.nan], [1.0, np.nan], [np.inf], [-np.inf], [-np.inf, np.nan],
         [-1.0, np.nan], [-1.0], [1e308, -5e-324], [5e-324], [0.0, np.nan], [2.0, np.nan, 1.0],
         [-0.0, np.nan],
         # a sum overflowing on valid cells, then with a NaN or an inf; NaN first; mixed infinities
         [1e308, 1e308], [1e308, 1e308, np.nan], [1e308, 1e308, np.inf], [np.nan, 1.0],
         [np.inf, -np.inf], [-0.0, -0.0]],
    )
    def test_edge_cases(self, values, kind):
        values = np.array(values, dtype=float)
        expected = reference_check(values)
        if expected is None:
            FeatureVector(values, kind)
        else:
            with pytest.raises(ValueError, match=expected):
                FeatureVector(values, kind)


def window_values(min_channels, max_channels, extra_columns=0):
    """(n, c + extra_columns) float windows, 1 to 70 rows, magnitudes up to 1e300."""
    return st.tuples(st.integers(1, 70), st.integers(min_channels, max_channels)).flatmap(
        lambda shape: arrays(float, (shape[0], shape[1] + extra_columns),
                             elements=st.floats(-1e300, 1e300, allow_nan=False)))


class TestMavBits:
    """On C-ordered windows of two or more channels, the layout segment_windows
    yields, mav keeps np.mean's bits; elsewhere it stays within rounding."""

    @given(w=window_values(2, 40))
    @settings(max_examples=300)
    def test_equals_numpy_mean_bit_for_bit(self, w):
        assert mav(w).values.tobytes() == np.mean(np.abs(w), axis=0).tobytes()

    @given(big=window_values(2, 40, extra_columns=2))
    @settings(max_examples=200)
    def test_row_sliced_window_equals_numpy_mean_bit_for_bit(self, big):
        w = big[:, 1:-1]  # rows strided past the window's own columns
        assert mav(w).values.tobytes() == np.mean(np.abs(w), axis=0).tobytes()

    def test_long_window_uses_the_same_pairwise_sum(self):
        w = np.random.default_rng(3).lognormal(sigma=4.0, size=(1000, 16))
        assert mav(w).values.tobytes() == np.mean(np.abs(w), axis=0).tobytes()

    @pytest.mark.parametrize("n_channels", [8, 12, 16])
    def test_every_segmented_window_equals_numpy_mean_bit_for_bit(self, n_channels):
        dofs = DOFS[: n_channels // 4]
        mixing = default_mixing_model(n_channels, dofs, noise_sigma=0.1, seed=n_channels)
        angles = {dof: 30.0 * (-1) ** k for k, dof in enumerate(dofs)}
        rec = generate_raw_emg(mixing, angles, 2.0, rng=np.random.default_rng(n_channels))
        windows = segment_windows(rec, 100.0)
        assert len(windows) == 20 and windows[0].flags.c_contiguous
        for w in windows:
            assert mav(w).values.tobytes() == np.mean(np.abs(w), axis=0).tobytes()

    @given(w=window_values(1, 40))
    @settings(max_examples=200)
    def test_one_channel_and_f_ordered_windows_stay_within_rounding(self, w):
        """np.mean sums these pairwise, so their last bits may differ."""
        for window in (w[:, :1], np.asfortranarray(w)):
            np.testing.assert_allclose(mav(window).values, np.mean(np.abs(window), axis=0),
                                       rtol=len(window) * 2.0**-52, atol=0)


# keep magnitudes in the normal float range so scaling cannot underflow
finite_windows = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: x == 0.0 or abs(x) > 1e-20),
    min_size=3,
    max_size=40,
).map(lambda xs: np.array(xs)[:, None])


class TestScaleCovariance:
    # scale stays normal, like the window values: a subnormal scale makes mav underflow
    @given(
        window=finite_windows,
        scale=st.floats(-100.0, 100.0, allow_nan=False).filter(
            lambda x: x == 0.0 or abs(x) > 1e-20
        ),
    )
    @settings(max_examples=200)
    def test_mav_scales_with_magnitude(self, window, scale):
        np.testing.assert_allclose(
            mav(scale * window).values, abs(scale) * mav(window).values, rtol=1e-9
        )

    @given(window=finite_windows)
    @settings(max_examples=100)
    def test_outputs_finite(self, window):
        assert np.all(np.isfinite(mav(window).values))


class TestRecordingValidation:
    def test_sample_rate_positive(self):
        with pytest.raises(ValueError):
            EmgRecording(np.zeros((4, 1)), 0.0)

    def test_two_dimensional(self):
        with pytest.raises(Exception):
            EmgRecording(np.zeros(4), 1024.0)

    def test_feature_vector_rejects_negative_mav(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([-1.0]), FeatureKind.MAV)

    def test_zero_channels_rejected(self):
        with pytest.raises(DimensionError, match="^recording needs at least one channel$"):
            EmgRecording(np.zeros((4, 0)), 1024.0)

    def test_feature_vector_must_be_one_dimensional(self):
        with pytest.raises(DimensionError, match="^feature values must be 1-D, got ndim=2$"):
            FeatureVector(np.ones((2, 2)), FeatureKind.MAV)


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rec = EmgRecording(np.random.default_rng(0).normal(size=(64, 4)), 1024.0)
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        loaded = load_recording(path)
        np.testing.assert_array_equal(loaded.samples, rec.samples)
        assert loaded.sample_rate == 1024.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetSchemaError):
            load_recording(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("ch1,ch2\n1,2\n1,oops\n")
        with pytest.raises(DatasetParseError, match=":3"):
            load_recording(path)

    def test_error_names_the_line_a_row_starts_on(self, tmp_path):
        # the quoted cell spans lines 2 and 3, so the bad value is on line 5
        path = tmp_path / "rec.csv"
        path.write_bytes(b'ch1,ch2\r\n"1\r\n",2\r\n3,4\r\n5,oops\r\n')
        with pytest.raises(DatasetParseError, match=r"rec\.csv:5: "):
            load_recording(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("ch1,ch2\n1\n")
        with pytest.raises(DatasetSchemaError, match=":2"):
            load_recording(path)

    def test_empty_recording(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("ch1,ch2\n")
        with pytest.raises(EmptyInputError):
            load_recording(path)

    @pytest.mark.parametrize("text", [b"\r\n\r\n\r\n", b"\r\n1.0\r\n"])
    def test_blank_first_line_is_a_bad_header(self, tmp_path, text):
        # an empty header would equal ch1..ch0
        path = tmp_path / "rec.csv"
        path.write_bytes(text)
        with pytest.raises(DatasetSchemaError,
                           match=rf"^{path}: header must be ch1\.\.chN, got \[\]$"):
            load_recording(path)
