"""Amplitude encoding of feature rows as unit-norm states.

A window's per-channel feature values become the amplitudes of a real
n-dimensional state, normalized so the squared amplitudes sum to one.
Overall signal intensity is deliberately removed by the normalization;
only the distribution across channels survives.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class QuantumState:
    """Real amplitude vector with unit Euclidean norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        if amplitudes.ndim != 1:
            raise DimensionError(f"amplitudes must be 1-D, got ndim={amplitudes.ndim}")
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # an inf norm fails the check below
            norm_sq = float(np.dot(amplitudes, amplitudes))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not unit norm: sum of squares = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def encode_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row of an (N, C) array into a unit-norm state.

    Returns the states and the (N,) mask of all-zero rows, left all zero
    for the caller to read as "no signal" (typically rest). Scaling by
    each row's peak magnitude first keeps the norm from under- or
    overflowing; each row's norm is its own dot product, so a row
    encodes to the same bits alone or in a batch.
    """
    values = np.asarray(values, dtype=float)
    peak = np.maximum.reduce(np.abs(values), axis=1)
    zero = peak == 0.0
    # Adding the mask makes the divisor 1 on all-zero rows, exact elsewhere.
    scaled = values / (peak + zero)[:, None]
    norm = np.sqrt(scaled[:, None, :] @ scaled[:, :, None])[:, 0, 0]
    scaled /= (norm + zero)[:, None]
    return scaled, zero


def inner_product(a: QuantumState, b: QuantumState) -> float:
    """Euclidean inner product of two states of the same dimension."""
    if a.dim != b.dim:
        raise DimensionError(f"state dimensions differ: {a.dim} vs {b.dim}")
    return float(np.dot(a.amplitudes, b.amplitudes))
