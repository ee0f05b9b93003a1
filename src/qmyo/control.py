"""Decoding: from feature windows to simultaneous proportional angles.

Each DOF's perceptron measures a window's state against its two
direction prototypes: the expectation values are e± = (ψ·p±)² and the
completion expectation is e₀ = 1 − e₊ − e₋. The winning direction's
expectation margin, scaled by the maximal training angle and corrected
for prototype overlap, gives the proportional angle command. With three
trained DOFs the three completion expectations additionally yield
residual activations through a fixed 3x3 linear system.

:func:`decode_batch` decodes an (N, C) feature array in one pass;
:func:`decode_features` decodes one window in Python floats and 1-D
products, to the same bits.
"""

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
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
    angle_clamped = property(lambda self: self.raw_angle > self.angle, doc="Raw angle > |angle|.")

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
    the window's own flat, field-major row of 5·D decisions (e₊, e₋, sign
    code, |angle|, raw angle) as the bytes of native doubles, DOF k's at
    k, k + D, ... Each read builds a new, equal :class:`DofDecision` from them.
    It compares, iterates and prints like the dict of the same items;
    ``dict(m)`` is a mutable copy.
    """

    __slots__ = ("_dofs", "_row")

    def __init__(self, dofs: tuple[Dof, ...], row: bytes):
        self._dofs = dofs
        self._row = row

    def __getitem__(self, dof: Dof) -> DofDecision:
        try:
            k = self._dofs.index(dof)
        except ValueError:
            raise KeyError(dof) from None
        p, n, code, angle, raw = memoryview(self._row).cast("d")[k::len(self._dofs)].tolist()
        return DofDecision(p, n, SIGN_DIRECTIONS[code], angle, raw)

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

    ``decisions`` is one (5, N, D) float array, field-major: e₊, e₋,
    sign code (1 positive, -1 negative, 0 rest), |angle| and raw angle
    before clamping, each a contiguous (N, D) block. The
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
    angle_clamped = property(lambda self: self.decisions[4] > self.decisions[3], doc="(N, D) mask.")

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
        """Row ``i`` as a :class:`DecodedAction`, holding its (5, D) block's bytes."""
        return DecodedAction(DecisionMap(self.dofs, self.decisions[:, i].tobytes()),
                             _NO_SIGNAL if self.zero_signal[i] else _SIGNAL)


def _decide(
    states: np.ndarray, zero_signal: np.ndarray, tables: DecodeTables, cfg: DecodeConfig
) -> DecodedBatch:
    """Expectations, directions and angles for (N, C) unit states in C order.

    The expectations are e± = (ψ·p±)², one vector-matrix product per row
    against the (C, 2D) prototype matrix, so a window gets the same bits
    alone or in a batch. Zero-signal rows are all-zero states, so they
    measure e± = 0 and e₀ = 1 and land at rest without a special case.
    Within ``cfg.rest_threshold`` of a tie a DOF is at rest at 0°; otherwise
    the angle is the margin times the winner's maximal training angle
    over (1 - overlap), clamped to that maximum.
    """
    n, d = len(states), len(tables.dofs)
    theta_pos, theta_neg, span = np.array(tables.scalars).T  # (D,) each
    # The prototype columns alternate positive and negative per DOF.
    amplitudes = (states[:, None, :] @ tables.prototypes).reshape(n, d, 2)
    decisions = np.empty((5, n, d))
    np.square(amplitudes.transpose(2, 0, 1), out=decisions[:2])
    e_pos, e_neg, code, angle, raw_angle = decisions
    # Later fields serve as scratch until written: the margin in code,
    # |margin| in raw_angle and the moving mask, as 1.0 or 0.0, in angle.
    margin = np.subtract(e_pos, e_neg, out=code)
    theta_max = np.where(margin > 0, theta_pos, theta_neg)
    size = np.abs(margin, out=raw_angle)
    moving = np.greater(size, cfg.rest_threshold, out=angle)
    np.sign(np.multiply(margin, moving, out=code), out=code)  # +0.0 at rest
    np.multiply(size, moving, out=raw_angle)  # +0.0 at rest
    np.multiply(raw_angle, theta_max, out=raw_angle)
    with np.errstate(over="ignore"):  # a raw angle past float range is inf, clamped to θ
        np.divide(raw_angle, span, out=raw_angle)
    np.minimum(raw_angle, theta_max, out=angle)
    return DecodedBatch(tables.dofs, decisions, zero_signal)


def _decide_row(amplitudes: list, scalars: tuple, rest_threshold: float) -> bytes:
    """One window's flat, field-major 5·D decisions, packed doubles, from its amplitudes, each
    DOF's + then −: the array kernel's IEEE operations in its order, in Python floats, same bits."""
    e_pos, e_neg, codes, angles, raws = [], [], [], [], []
    pairs = iter(amplitudes)
    for a_pos, a_neg, (theta_pos, theta_neg, span) in zip(pairs, pairs, scalars):
        p, n = a_pos * a_pos, a_neg * a_neg
        margin = p - n
        size = abs(margin)
        e_pos.append(p)
        e_neg.append(n)
        code = angle = raw = 0.0  # at rest, as the array kernel's 0/1 mask gives
        if size > rest_threshold:  # the mask's 1.0; x·1.0 is x, and margin != 0
            theta = theta_pos if margin > 0 else theta_neg
            raw = size * theta / span
            code = 1.0 if margin > 0 else -1.0
            angle = theta if raw > theta else raw
        codes.append(code)
        angles.append(angle)
        raws.append(raw)
    return struct.pack(f"{5 * len(codes)}d", *e_pos, *e_neg, *codes, *angles, *raws)


def _checked(model: ControllerModel, n_channels: int) -> tuple[DecodeTables, DecodeConfig]:
    """The model's decode tables and config, once the feature width matches."""
    if n_channels != model.n_channels:
        raise DimensionError(
            f"{n_channels} feature channels do not match the "
            f"{model.n_channels}-channel model"
        )
    return model.decode_tables, model.decode_config


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
    tables, cfg = _checked(model, features.shape[1])
    states, zero_signal = encode_rows(np.ascontiguousarray(features))
    return _decide(states, zero_signal, tables, cfg)


def decode_features(fv: FeatureVector, model: ControllerModel) -> DecodedAction:
    """Decode one feature window (validated when it was built) to the bits of its
    :func:`decode_batch` row, with 1-D products and :func:`_decide_row`."""
    states = fv.values  # an all-zero row stays as it is, as in encode_rows
    tables, cfg = _checked(model, states.shape[0])
    if peak := max(states.tolist()):  # non-negative, so 0.0 only on an all-zero row
        states = states / peak  # the bound .dot: np.dot's ddot and @'s dgemv, less dispatch
        states /= math.sqrt(states.dot(states))
    row = _decide_row(states.dot(tables.prototypes).tolist(), tables.scalars, cfg.rest_threshold)
    return DecodedAction(DecisionMap(tables.dofs, row), _SIGNAL if peak else _NO_SIGNAL)
