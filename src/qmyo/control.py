"""Decoding: from feature windows to simultaneous proportional angles.

Each DOF's perceptron measures a window's state against its two
direction prototypes: the expectation values are e± = (ψ·p±)² and the
completion expectation is e₀ = 1 − e₊ − e₋. The winning direction's
expectation margin, scaled by the maximal training angle and corrected
for prototype overlap, gives the proportional angle command. With three
trained DOFs the three completion expectations additionally yield
residual activations through a fixed 3x3 linear system.

:func:`decode_batch` decodes an (N, C) feature array in one pass, one row
in Python floats to the same bits; :func:`decode_features` is a one-row call.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOperatorsError, DimensionError
from .features import FeatureVector
from .operators import (
    DOFS,
    ControllerModel,
    DecodeConfig,
    DecodeTables,
    Direction,
    Dof,
    SIGN_DIRECTIONS,
)
from .state import encode_rows


@dataclass(frozen=True, slots=True)
class DofDecision:
    """Decoded outcome for one DOF on one window."""

    expectation_pos: float
    expectation_neg: float
    direction: Direction
    angle: float
    raw_angle: float
    angle_clamped: bool

    @property
    def expectation_zero(self) -> float:
        """Completion expectation e₀ = 1 − e₊ − e₋."""
        return 1.0 - self.expectation_pos - self.expectation_neg

    @property
    def zero_negative(self) -> bool:
        """Whether e₀ < 0, which overlapping prototypes allow."""
        return self.expectation_zero < 0.0

    def signed_angle(self) -> float:
        """Angle with sign by direction: positive +, negative -, rest 0."""
        if self.direction is Direction.NEGATIVE:
            return -self.angle
        return self.angle if self.direction is Direction.POSITIVE else 0.0


@dataclass(frozen=True, slots=True)
class DecodeDiagnostics:
    zero_signal: bool = False


# Decoded actions share these two rather than each holding its own.
_SIGNAL, _NO_SIGNAL = DecodeDiagnostics(False), DecodeDiagnostics(True)


class DecisionMap(Mapping):
    """Read-only mapping of one window's DOFs to their decisions.

    Holds the batch's sorted DOF tuple, which every window shares, and
    the window's own (6, D) block of the batch's decision array: e₊, e₋,
    sign code, |angle|, raw angle and clamp flag, one column per DOF.
    Each read builds a new, equal :class:`DofDecision` from the column.
    It compares, iterates and prints like the dict of the same items;
    ``dict(m)`` is a mutable copy.
    """

    __slots__ = ("_dofs", "_row")

    def __init__(self, dofs: tuple[Dof, ...], row: np.ndarray):
        self._dofs = dofs
        self._row = row

    def __getitem__(self, dof: Dof) -> DofDecision:
        try:
            k = self._dofs.index(dof)
        except ValueError:
            raise KeyError(dof) from None
        p, n, code, angle, raw, clamped = self._row[:, k].tolist()
        return DofDecision(p, n, SIGN_DIRECTIONS[code], angle, raw, clamped != 0.0)

    def __iter__(self):
        return iter(self._dofs)

    def __len__(self) -> int:
        return len(self._dofs)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def residual_activations(z1, z2, z3):
    """Solve the residual-activation system for three DOFs.

    Each completion expectation is read as the summed activation of the
    other two DOFs, giving three equations in three unknowns with the
    closed-form solution below (the coefficient matrix is fixed and
    invertible). Works elementwise on arrays; exact numeric types such
    as Fraction pass through without rounding.
    """
    d1 = (-z1 + z2 + z3) / 2
    d2 = (z1 - z2 + z3) / 2
    d3 = (z1 + z2 - z3) / 2
    return d1, d2, d3


@dataclass(frozen=True, slots=True)
class DecodedAction:
    """Full decision for one window across all trained DOFs."""

    per_dof: Mapping[Dof, DofDecision]
    diagnostics: DecodeDiagnostics = _SIGNAL

    @property
    def residual_activations(self) -> dict[Dof, float] | None:
        """Residual activations from max(e₀, 0) per DOF, solved on each read.

        None for a zero-signal window or unless all three DOFs are trained.
        """
        if self.diagnostics.zero_signal or tuple(self.per_dof) != DOFS:
            return None
        z = (max(d.expectation_zero, 0.0) for d in self.per_dof.values())
        return dict(zip(DOFS, residual_activations(*z)))


@dataclass(frozen=True, slots=True)
class DecodedBatch:
    """Decoded outcomes of N windows, one column per DOF in ``dofs`` order.

    ``decisions`` is one (6, N, D) float array, field-major: e₊, e₋,
    sign code (1 positive, -1 negative, 0 rest), |angle|, raw angle
    before clamping and clamp flag, each a contiguous (N, D) block. The
    (N, D) arrays below are views of it or are computed from it on each
    read, so bind one to a name rather than reading it per DOF.
    """

    dofs: tuple[Dof, ...]
    decisions: np.ndarray
    zero_signal: np.ndarray

    def __len__(self) -> int:
        return self.zero_signal.shape[0]

    expectation_pos = property(lambda self: self.decisions[0], doc="(N, D) e₊, a view.")
    expectation_neg = property(lambda self: self.decisions[1], doc="(N, D) e₋, a view.")
    direction = property(lambda self: self.decisions[2].astype(np.int8), doc="(N, D) int8 codes.")
    angle = property(lambda self: self.decisions[2] * self.decisions[3], doc="(N, D) signed angle.")
    raw_angle = property(lambda self: self.decisions[4], doc="(N, D) unclamped |angle|, a view.")
    angle_clamped = property(lambda self: self.decisions[5] != 0.0, doc="(N, D) clamp mask.")

    @property
    def expectation_zero(self) -> np.ndarray:
        """(N, D) completion expectations e₀ = 1 − e₊ − e₋."""
        return 1.0 - self.expectation_pos - self.expectation_neg

    @property
    def zero_negative(self) -> np.ndarray:
        """(N, D) mask of negative completion expectations."""
        return self.expectation_zero < 0.0

    def residuals(self) -> np.ndarray | None:
        """(N, 3) residual activations, or None unless all three DOFs are trained.

        Negative completion expectations (the ``zero_negative`` mask) are
        clamped to 0 first; zero-signal rows are NaN.
        """
        if self.dofs != DOFS:
            return None
        z = np.maximum(self.expectation_zero, 0.0)
        residuals = np.stack(residual_activations(*z.T), axis=1)
        residuals[self.zero_signal] = np.nan
        return residuals

    def action(self, i: int) -> DecodedAction:
        """Row ``i`` as a :class:`DecodedAction`, holding a copy of its (6, D) block."""
        return DecodedAction(DecisionMap(self.dofs, self.decisions[:, i].copy()),
                             _NO_SIGNAL if self.zero_signal[i] else _SIGNAL)


def _decide(
    states: np.ndarray, zero_signal: np.ndarray, tables: DecodeTables, cfg: DecodeConfig
) -> DecodedBatch:
    """Expectations, directions and angles for (N, C) unit states in C order.

    The expectations are e± = (ψ·p±)², one vector-matrix product per row
    against the (C, 2D) prototype matrix, so a window gets the same bits
    alone or in a batch. Zero-signal rows are all-zero states, so they
    measure e± = 0 and e₀ = 1 and land at rest without a special case.
    Within ``cfg.rest_threshold`` of a tie a DOF is at rest; otherwise
    the angle is the margin times the winner's maximal training angle
    over (1 - overlap), clamped to that maximum.
    """
    if tables.max_overlap >= 1.0 - cfg.overlap_epsilon:
        raise DegenerateOperatorsError(
            f"prototype overlap {tables.max_overlap!r} leaves no margin; "
            "the direction pair is unlearnable"
        )
    n, d = len(states), len(tables.dofs)
    # The prototype columns alternate positive and negative per DOF.
    amplitudes = (states[:, None, :] @ tables.prototypes).reshape(n, d, 2)
    if n == 1:  # numpy's per-call cost would dominate a (1, D) row
        rows = _decide_row(amplitudes[0].tolist(), tables.scalars, cfg.rest_threshold)
        return DecodedBatch(tables.dofs, np.array(rows).T.copy().reshape(6, 1, d), zero_signal)
    decisions = np.empty((6, n, d))
    np.square(amplitudes.transpose(2, 0, 1), out=decisions[:2])
    e_pos, e_neg, code, angle, raw_angle, clamped = decisions
    # Later fields serve as scratch until written: the margin in code,
    # |margin| in raw_angle and the moving mask, as 1.0 or 0.0, in clamped.
    margin = np.subtract(e_pos, e_neg, out=code)
    theta_max = np.where(margin > 0, tables.theta_pos_max, tables.theta_neg_max)
    size = np.abs(margin, out=raw_angle)
    moving = np.greater(size, cfg.rest_threshold, out=clamped)
    np.sign(np.multiply(margin, moving, out=code), out=code)  # +0.0 at rest
    np.multiply(size, theta_max, out=raw_angle)
    np.divide(raw_angle, tables.span, out=raw_angle)
    np.multiply(raw_angle, moving, out=raw_angle)  # 0 at rest
    np.minimum(raw_angle, theta_max, out=angle)
    np.greater(raw_angle, theta_max, out=clamped)
    return DecodedBatch(tables.dofs, decisions, zero_signal)


def _decide_row(amplitudes: list, scalars: tuple, rest_threshold: float) -> list[tuple]:
    """One window's (6,) decisions per DOF from its (D, 2) amplitudes: the array
    kernel's IEEE operations in its order, in Python floats, so the bits match."""
    rows = []
    for (a_pos, a_neg), (theta_pos, theta_neg, span) in zip(amplitudes, scalars):
        e_pos, e_neg = a_pos * a_pos, a_neg * a_neg
        margin = e_pos - e_neg
        theta = theta_pos if margin > 0 else theta_neg
        size = abs(margin)
        moving = 1.0 if size > rest_threshold else 0.0
        signed = margin * moving
        raw = size * theta / span * moving
        rows.append((e_pos, e_neg, float((signed > 0) - (signed < 0)),  # +0.0 at rest
                     min(raw, theta), raw, float(raw > theta)))
    return rows


def _decode_rows(features: np.ndarray, model: ControllerModel) -> DecodedBatch:
    if features.shape[1] != model.n_channels:
        raise DimensionError(
            f"{features.shape[1]} feature channels do not match the "
            f"{model.n_channels}-channel model"
        )
    states, zero_signal = encode_rows(features)
    return _decide(states, zero_signal, model.decode_tables, model.decode_config)


def decode_batch(features: np.ndarray, model: ControllerModel) -> DecodedBatch:
    """Encode and decode an (N, C) array of feature windows in one pass.

    Feature values must be finite and non-negative. All-zero rows cannot
    be normalized; they decode as every DOF at rest with the zero-signal
    flag set and no residual activations. Rows decode in C order, so a
    row's bits do not depend on the array's memory layout.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise DimensionError(f"features must be 2-D (windows x channels), got {features.shape}")
    if features.size and not (features.min() >= 0.0 and features.max() < np.inf):
        raise ValueError("feature values must be finite and non-negative")
    return _decode_rows(np.ascontiguousarray(features), model)


def decode_features(fv: FeatureVector, model: ControllerModel) -> DecodedAction:
    """Encode and decode one feature window (validated when it was built)."""
    return _decode_rows(fv.values[None, :], model).action(0)
