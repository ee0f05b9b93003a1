"""Consecutive-window segmentation of raw multi-channel EMG and its mean
absolute value (MAV) feature.

:func:`mav_rows` takes a stack of (n_samples, n_channels) windows and
returns one value per channel for each; :func:`mav` wraps one window's.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .csvio import read_table, write_rows
from .errors import DatasetParseError, DimensionError, EmptyInputError


class FeatureKind(enum.Enum):
    MAV = "mav"


@dataclass(frozen=True)
class EmgRecording:
    """Raw multi-channel EMG: rows are time samples, columns are channels."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise DimensionError(
                f"recording must be 2-D (samples x channels), got ndim={samples.ndim}"
            )
        if samples.shape[1] < 1:
            raise DimensionError("recording needs at least one channel")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if samples is not self.samples:
            object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class FeatureVector:
    """One finite, non-negative feature value per channel, before any normalization."""

    values: np.ndarray
    kind: FeatureKind

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError(f"feature values must be 1-D, got ndim={values.ndim}")
        # sum is NaN iff a cell is; max runs only when a finite-celled sum overflowed
        if (cells := values.tolist()) and not (min(cells) >= 0.0 and (
                (total := sum(cells)) < np.inf or total == total and max(cells) < np.inf)):
            raise ValueError("feature values must be finite and non-negative")
        if values is not self.values:
            object.__setattr__(self, "values", values)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]


def window_length(window_ms: float, sample_rate: float) -> int:
    """Whole samples in a window, floored; ValueError if under 2 or unboundedly many."""
    if not 2 <= (length := window_ms * sample_rate / 1000.0) < np.inf:
        span = "unbounded" if length >= 2 else "under 2"
        raise ValueError(f"a {window_ms} ms window spans {span} samples at {sample_rate} Hz")
    return int(length)


def segment_windows(rec: EmgRecording, window_ms: float) -> np.ndarray:
    """Cut a recording into consecutive, non-overlapping windows: one
    (n_windows, window_len, n_channels) array, a view of C-ordered samples.

    The window length is :func:`window_length`'s, and a trailing partial
    window is dropped rather than padded.
    """
    if rec.n_samples < (window_len := window_length(window_ms, rec.sample_rate)):
        raise EmptyInputError(
            f"recording has {rec.n_samples} samples, shorter than one "
            f"{window_len}-sample window"
        )
    n = rec.n_samples // window_len
    return rec.samples[: n * window_len].reshape(n, window_len, rec.n_channels)


def mav_rows(windows: np.ndarray) -> np.ndarray:
    """Mean absolute value per channel of each window in an (..., n_samples, n_channels) stack,
    to the bits of each window alone: ``np.mean``'s on C-ordered windows of two or more channels
    (1-channel and F-ordered ones, which ``np.mean`` sums pairwise, may differ in the last bits).
    A column whose sum leaves float range reads inf."""
    total = np.einsum("...ij->...j", np.abs(windows))  # no numpy call per sample row
    total /= windows.shape[-2]
    return total


def mav(window: np.ndarray) -> FeatureVector:
    """One (n_samples, n_channels) window's :func:`mav_rows` row, checked as a FeatureVector."""
    w = np.asarray(window, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise EmptyInputError("window must be a non-empty 2-D array")
    return FeatureVector(mav_rows(w), FeatureKind.MAV)


def _channel_header(n_channels: int) -> list[str]:
    return [f"ch{i + 1}" for i in range(n_channels)]


def _header_problem(header: list[str]) -> str | None:
    if not header or header != _channel_header(len(header)):
        return f"header must be ch1..chN, got {header}"
    return None


def load_recording(path, sample_rate: float = 1024.0) -> EmgRecording:
    """Read a raw recording CSV: header ``ch1..chN``, one row per sample.

    Errors name the file line of a bad or non-finite sample.
    """
    _, samples, _, lines = read_table(path, _header_problem)
    if not len(samples):
        raise EmptyInputError(f"{path}: no samples after header")
    if not (finite := np.isfinite(samples)).all():
        row, column = np.argwhere(~finite)[0]
        raise DatasetParseError(
            f"{path}:{row + 2 if lines is None else lines[row]}: samples must be finite, "
            f"got ch{column + 1} = {float(samples[row, column])!r}"
        )
    return EmgRecording(samples, sample_rate)


def save_recording(rec: EmgRecording, path) -> None:
    """Write a raw recording CSV in the format :func:`load_recording` reads."""
    write_rows(path, _channel_header(rec.n_channels), list(rec.samples.T))
