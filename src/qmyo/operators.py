"""Learning of per-DOF measurement operators from single-DOF training data.

For each degree of freedom and movement direction, the encoded training
states are combined into an angle-weighted prototype; a trained DOF is
its two prototypes and maximal angles. A prototype's outer product is
the rank-1 measurement operator for its direction, and a third operator
completes the set: identity minus the two direction operators. The
completion is not guaranteed positive when the direction prototypes
overlap; that defect is kept as-is and reported by the diagnostics
rather than clipped away, since clipping would change decoding.
"""

import enum
import json
import logging
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateOperatorsError,
    DegeneratePrototypeError,
    DimensionError,
    InsufficientTrainingError,
    ModelFileError,
    QmyoError,
    writing,
)
from .features import FeatureKind, FeatureVector
from .state import QuantumState, encode_rows, inner_product

logger = logging.getLogger(__name__)

OVERLAP_TOL = 1e-12

MODEL_FORMAT_VERSION = 3


class Dof(enum.Enum):
    """Wrist degrees of freedom, with their wire-format names."""

    FLEXION_EXTENSION = "d1"
    RADIAL_ULNAR = "d2"
    PRONATION_SUPINATION = "d3"

    def __lt__(self, other):
        return self.value < other.value


# A training row's DOF index points into this order (sorted, as the CSV columns).
DOFS = tuple(Dof)


class Direction(enum.Enum):
    """Movement direction along one DOF.

    Positive is flexion / radial deviation / pronation, negative the
    opposite movement; rest means the DOF is inactive.
    """

    POSITIVE = "positive"
    NEGATIVE = "negative"
    REST = "rest"


# Directions by the sign codes the batch decoder stores.
SIGN_DIRECTIONS = {1: Direction.POSITIVE, -1: Direction.NEGATIVE, 0: Direction.REST}


class MovementPhase(enum.Enum):
    DIRECT = "direct"
    RETURN = "return"


@dataclass(frozen=True)
class TrainingSample:
    """One labeled training window: features plus the single active DOF."""

    features: FeatureVector
    dof: Dof
    direction: Direction
    angle: float
    movement_phase: MovementPhase = MovementPhase.DIRECT

    def __post_init__(self):
        if self.direction is Direction.REST:
            raise ValueError("training samples must have a positive or negative direction")
        if not self.angle > 0:
            raise ValueError(f"training angle must be > 0, got {self.angle}")


@dataclass(frozen=True)
class Operator:
    """Real symmetric matrix acting on encoded states. It is only built as
    a unit prototype's outer product or as the completion of two of them,
    so it is not re-checked."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class DecodeConfig:
    """Thresholds used when turning expectation values into decisions.

    ``rest_threshold`` is the deadzone on the difference of the two
    direction expectations below which a DOF is reported at rest.
    ``overlap_epsilon`` guards the 1/(1 - overlap) singularity of the
    proportional angle formula.
    """

    rest_threshold: float = 0.05
    overlap_epsilon: float = 1e-6

    def __post_init__(self):
        # the --rest-threshold flag's rule; the bool check serves Python callers (_number refuses true)
        if isinstance(self.rest_threshold, bool) or not 0 <= self.rest_threshold < np.inf:
            raise ValueError(f"rest_threshold must be finite and >= 0, got {self.rest_threshold!r}")
        if not 0 < self.overlap_epsilon < 1:
            raise ValueError(f"overlap_epsilon must be in (0, 1), got {self.overlap_epsilon}")
        # held as floats, as both decode kernels read them; an int past float range raises
        object.__setattr__(self, "rest_threshold", float(self.rest_threshold))
        object.__setattr__(self, "overlap_epsilon", float(self.overlap_epsilon))


@dataclass(frozen=True)
class DofOperators:
    """One trained DOF: two unit direction prototypes and their maximal
    training angles. The overlap and the operator triple are derived on
    first use, so the triple sums to the identity by construction."""

    proto_pos: QuantumState
    proto_neg: QuantumState
    theta_pos_max: float
    theta_neg_max: float

    def __post_init__(self):
        if self.proto_pos.dim != self.proto_neg.dim:
            raise DimensionError(
                f"prototype dimensions differ: {self.proto_pos.dim} vs {self.proto_neg.dim}"
            )
        for key, theta in (("theta_positive_max", self.theta_pos_max),
                           ("theta_negative_max", self.theta_neg_max)):
            if not 0 < theta < np.inf:
                raise ValueError(f"{key}: must be finite and > 0, got {theta}")

    @property
    def dim(self) -> int:
        return self.proto_pos.dim

    @cached_property
    def overlap(self) -> float:
        """Squared prototype inner product, equal to Tr(p_pos p_neg)."""
        return inner_product(self.proto_pos, self.proto_neg) ** 2

    @cached_property
    def p_pos(self) -> Operator:
        return build_direction_operator(self.proto_pos)

    @cached_property
    def p_neg(self) -> Operator:
        return build_direction_operator(self.proto_neg)

    @cached_property
    def p_zero(self) -> Operator:
        return build_completeness_operator(self.p_pos, self.p_neg)


@dataclass(frozen=True)
class ControllerModel:
    """All per-DOF operator sets plus the decode configuration."""

    dofs: dict[Dof, DofOperators]
    decode_config: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self):
        if not self.dofs:
            raise InsufficientTrainingError("model has no trained DOFs")
        first = min(self.dofs)
        for dof, ops in self.dofs.items():
            if ops.dim != self.dofs[first].dim:
                raise DimensionError(f"{dof.value}: operators are {ops.dim}-dimensional, "
                                     f"{first.value}'s are {self.dofs[first].dim}-dimensional")

    @cached_property
    def n_channels(self) -> int:
        """The prototypes' dimension, which every DOF shares."""
        return next(iter(self.dofs.values())).dim

    def sorted_dofs(self) -> list[Dof]:
        return sorted(self.dofs)

    @cached_property
    def decode_tables(self) -> "DecodeTables":
        return DecodeTables.of(self.dofs, self.decode_config.overlap_epsilon)


class DecodeTables(NamedTuple):
    """What the decoder reads of a set of DOF operators, as arrays.

    DOFs are in sorted order; ``prototypes`` is (C, 2D) with each DOF's
    positive then negative prototype as columns; ``scalars`` holds each
    DOF's (θ₊, θ₋, span) as Python floats, where the span 1 - overlap is
    the denominator of the angle formula.
    """

    dofs: tuple[Dof, ...]
    prototypes: np.ndarray
    scalars: tuple[tuple[float, float, float], ...]

    @classmethod
    def of(cls, dofs: dict[Dof, DofOperators], overlap_epsilon: float) -> "DecodeTables":
        order = tuple(sorted(dofs))
        ops = [dofs[d] for d in order]
        max_overlap = max(o.overlap for o in ops)
        if max_overlap >= 1.0 - overlap_epsilon:
            raise DegenerateOperatorsError(
                f"prototype overlap {max_overlap!r} leaves no margin; "
                "the direction pair is unlearnable"
            )
        return cls(
            dofs=order,
            prototypes=np.stack(
                [p.amplitudes for o in ops for p in (o.proto_pos, o.proto_neg)], axis=1
            ),
            scalars=tuple((float(o.theta_pos_max), float(o.theta_neg_max), 1.0 - o.overlap)
                          for o in ops),
        )


class TrainingTable(NamedTuple):
    """Single-DOF training rows as arrays: (N, C) ``features``, each row's
    DOF as an index into ``DOFS``, signed ``angles`` (the sign is the
    direction, the magnitude the training angle) and the ``direct``-phase
    mask. Row order is the training order."""

    features: np.ndarray
    dof_index: np.ndarray
    angles: np.ndarray
    direct: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.angles)

    def rows(self, index) -> "TrainingTable":
        """The rows a mask, slice or index array selects, in order."""
        return TrainingTable(*(column[index] for column in self))

    def of_dofs(self, dofs) -> "TrainingTable":
        """The rows of the given DOFs, in order."""
        return self.rows(np.isin(self.dof_index, [DOFS.index(dof) for dof in dofs]))

    def dofs(self, rows=slice(None)) -> list[Dof]:
        """DOFs with at least one of the selected rows, sorted."""
        counts = np.bincount(self.dof_index[rows], minlength=len(DOFS))  # np.unique imports np.ma
        return [DOFS[k] for k in np.flatnonzero(counts)]

    @classmethod
    def of_samples(cls, samples: list[TrainingSample], n_channels: int) -> "TrainingTable":
        """Table of a sample list; every sample must have ``n_channels`` values."""
        rows = [s.features.values for s in samples]
        widths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
        if (wrong := widths[widths != n_channels]).size:
            raise DimensionError(f"sample has {wrong[0]} channels, expected {n_channels}")
        n = len(samples)
        return cls(
            features=np.array(rows, dtype=float).reshape(n, n_channels),
            dof_index=np.fromiter((DOFS.index(s.dof) for s in samples), int, n),
            angles=np.fromiter(
                (s.angle if s.direction is Direction.POSITIVE else -s.angle for s in samples),
                float, n,
            ),
            direct=np.fromiter((s.movement_phase is MovementPhase.DIRECT for s in samples), bool, n),
        )

    def samples(self) -> list[TrainingSample]:
        """The rows as training samples of MAV features."""
        phases = (MovementPhase.RETURN, MovementPhase.DIRECT)
        return [
            TrainingSample(
                FeatureVector(values, FeatureKind.MAV),
                DOFS[k],
                Direction.POSITIVE if signed > 0 else Direction.NEGATIVE,
                abs(signed),
                phases[direct],
            )
            for values, k, signed, direct in zip(
                self.features, self.dof_index.tolist(), self.angles.tolist(), self.direct.tolist()
            )
        ]


def _prototype(states: np.ndarray, weights: np.ndarray, dof: Dof, direction: Direction) -> QuantumState:
    """normalize(Σ wᵢ ψᵢ) over the states, all with signal, of one (DOF, direction) group."""
    with np.errstate(over="ignore"):  # a sum past float range is refused below
        combined = weights @ states
        norm, floor = float(np.linalg.norm(combined)), 1e-12 * weights.sum()
    if not norm < np.inf:
        raise DegeneratePrototypeError(f"{dof.value} {direction.value}: weighted state sum overflows")
    if norm < floor:
        raise DegeneratePrototypeError(
            f"{dof.value} {direction.value}: weighted state sum cancelled to norm {norm!r}"
        )
    return QuantumState(combined / norm)


def build_direction_operator(prototype: QuantumState) -> Operator:
    """Rank-1 projector onto a prototype: symmetric, idempotent, trace 1."""
    p = prototype.amplitudes
    return Operator(np.outer(p, p))


def build_completeness_operator(p_pos: Operator, p_neg: Operator) -> Operator:
    """Identity minus both direction operators, so the triple sums to I."""
    if p_pos.dim != p_neg.dim:
        raise DimensionError(f"operator dimensions differ: {p_pos.dim} vs {p_neg.dim}")
    return Operator(np.eye(p_pos.dim) - p_pos.matrix - p_neg.matrix)


def train(
    samples: list[TrainingSample],
    n_channels: int,
    dofs: list[Dof] | None = None,
    config: DecodeConfig | None = None,
) -> ControllerModel:
    """:func:`train_table` on a list of samples."""
    return train_table(TrainingTable.of_samples(samples, n_channels), dofs, config)


def train_table(
    table: TrainingTable,
    dofs: list[Dof] | None = None,
    config: DecodeConfig | None = None,
) -> ControllerModel:
    """Train two prototypes and two maximal angles per requested DOF.

    Only direct-phase rows with some signal are used; return-phase and
    zero-signal rows are dropped with a logged count. ``dofs`` defaults
    to every DOF present in the usable rows. Each (DOF, direction) group
    is selected by a mask, so its rows keep their order. The model's
    channel count is the table's width.
    """
    features, dof_index, angles, direct = table
    magnitude = np.abs(angles)
    if (bad := ~(magnitude > 0)).any():
        raise ValueError(f"training angle must be > 0, got {magnitude[bad][0]}")
    n_dropped = len(direct) - int(direct.sum())
    if n_dropped:
        logger.info("dropped %d return-phase samples from training", n_dropped)
    states, zero = encode_rows(features)
    n_zero = int((direct & zero).sum())
    if n_zero:
        logger.info("dropped %d zero-signal samples from training", n_zero)
    usable = direct & ~zero

    if dofs is None:
        dofs = table.dofs(usable)
    if not dofs:
        raise InsufficientTrainingError("no direct-phase training samples")

    positive = angles > 0
    trained: dict[Dof, DofOperators] = {}
    for dof in sorted(dofs):
        of_dof = usable & (dof_index == DOFS.index(dof))
        pos, neg = of_dof & positive, of_dof & ~positive
        for direction, mask in ((Direction.POSITIVE, pos), (Direction.NEGATIVE, neg)):
            if not mask.any():
                raise InsufficientTrainingError(
                    f"no {direction.value} training samples for {dof.value}"
                )
        trained[dof] = DofOperators(
            proto_pos=_prototype(states[pos], magnitude[pos], dof, Direction.POSITIVE),
            proto_neg=_prototype(states[neg], magnitude[neg], dof, Direction.NEGATIVE),
            theta_pos_max=float(magnitude[pos].max()),
            theta_neg_max=float(magnitude[neg].max()),
        )
    return ControllerModel(trained, config if config is not None else DecodeConfig())


def overlap_curve(
    table: TrainingTable,
    batch_sizes: list[int],
    dofs: list[Dof] | None = None,
) -> dict[Dof, list[float]]:
    """Retrain on growing prefixes and record each DOF's prototype overlap.

    The overlap settling down is the learning-sufficiency diagnostic: once
    it stops moving, more training data is not going to help. Batch sizes
    must be increasing and count prefix rows of the table, so the rows
    should interleave the actions (as the synthetic generator does).
    Every prefix trains the DOFs of the largest one; a prefix that lacks
    a direction of one raises :class:`InsufficientTrainingError` naming
    its size.
    """
    if not batch_sizes:
        raise ValueError("batch_sizes must be non-empty")
    if any(b <= 0 for b in batch_sizes):
        raise ValueError(f"batch sizes must be positive, got {batch_sizes}")
    if list(batch_sizes) != sorted(set(batch_sizes)):
        raise ValueError(f"batch sizes must be strictly increasing, got {batch_sizes}")
    if batch_sizes[-1] > table.n_rows:
        raise ValueError(
            f"largest batch size {batch_sizes[-1]} exceeds the "
            f"{table.n_rows} available samples"
        )
    curves: dict[Dof, list[float]] = {}
    for size in reversed(batch_sizes):
        try:
            model = train_table(table.rows(slice(size)), dofs=dofs)
        except InsufficientTrainingError as exc:
            raise InsufficientTrainingError(f"size {size}: {exc}") from None
        dofs = sorted(model.dofs)
        for dof, ops in model.dofs.items():
            curves.setdefault(dof, []).insert(0, ops.overlap)
    return curves


def model_to_dict(model: ControllerModel) -> dict:
    """Plain-JSON model (format 3) at full float precision; the overlap is
    stored for readers that do not derive it."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "n_channels": model.n_channels,
        "decode_config": asdict(model.decode_config),
        "dofs": {
            dof.value: {
                "prototype_positive": ops.proto_pos.amplitudes.tolist(),
                "prototype_negative": ops.proto_neg.amplitudes.tolist(),
                "theta_positive_max": ops.theta_pos_max,
                "theta_negative_max": ops.theta_neg_max,
                "overlap": ops.overlap,
            }
            for dof, ops in sorted(model.dofs.items())
        },
    }


def _reason(exc: Exception) -> str:
    """A model-file fault in words; a KeyError names the missing key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _number(value, key: str) -> float:
    """A number a model file stores, as a float. Only a JSON int or float
    passes (true, a string, null or a list does not), and an int only
    within float range; a fault names ``key``."""
    if type(value) not in (int, float):
        raise ValueError(f"{key}: must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key}: int too large to convert to float") from None


def _object(value, key: str) -> dict:
    """A JSON object a model file stores; a fault names ``key``."""
    if type(value) is not dict:
        raise ValueError(f"{key}: must be a JSON object, got {json.dumps(value)}")
    return value


def _stored_prototype(values, key: str) -> QuantumState:
    """The unit state a model file stores; a fault names its key."""
    if type(values) is not list:
        raise ValueError(f"{key}: must be a list of numbers, got {json.dumps(values)}")
    cells = np.array([_number(v, key) for v in values])
    try:
        return QuantumState(cells)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def model_from_dict(doc: dict) -> ControllerModel:
    """Model from a format-3 document, whose version is the JSON int 3. The stored
    overlap and channel count must match the prototypes; a fault in a DOF's entry names the DOF."""
    version = _object(doc, "top level")["format_version"]
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    cfg = DecodeConfig(**{key: _number(value, f"decode_config.{key}")
                          for key, value in _object(doc["decode_config"], "decode_config").items()})
    dofs: dict[Dof, DofOperators] = {}
    for key, entry in _object(doc["dofs"], "dofs").items():
        _object(entry, key)
        try:
            ops = DofOperators(
                proto_pos=_stored_prototype(entry["prototype_positive"], "prototype_positive"),
                proto_neg=_stored_prototype(entry["prototype_negative"], "prototype_negative"),
                theta_pos_max=_number(entry["theta_positive_max"], "theta_positive_max"),
                theta_neg_max=_number(entry["theta_negative_max"], "theta_negative_max"),
            )
            if not (dev := abs(_number(entry["overlap"], "overlap") - ops.overlap)) <= OVERLAP_TOL:
                raise ValueError(f"stored overlap deviates from the prototypes by {dev!r}")
        except (LookupError, TypeError, ValueError, QmyoError) as exc:
            raise ValueError(f"{key}: {_reason(exc)}") from None
        dofs[Dof(key)] = ops
    n_channels = doc["n_channels"]
    if type(n_channels) is not int:  # JSON true is a bool, 8.5 and Infinity are floats
        raise ValueError(f"n_channels must be an integer, got {n_channels!r}")
    model = ControllerModel(dofs, cfg)
    if n_channels != model.n_channels:
        raise ValueError(f"n_channels is {n_channels}, the prototypes have {model.n_channels}")
    return model


def save_model(model: ControllerModel, path) -> None:
    with writing(path) as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> ControllerModel:
    """Read a model file; anything wrong with its contents raises
    :class:`ModelFileError` naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return model_from_dict(json.load(fh))
    except (ValueError, LookupError, TypeError, AttributeError, OverflowError, QmyoError) as exc:
        raise ModelFileError(f"{path}: {_reason(exc)}") from exc
