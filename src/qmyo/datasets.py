"""Feature-dataset container and CSV interchange.

One row per window: ``ch1..chN, d1_angle, d2_angle, d3_angle, phase,
block``. Angles are signed ground truth in degrees (0 for inactive
DOFs), phase is ``direct`` or ``return``, and block ids group windows
into contiguous evaluation blocks. Floats are written with ``repr`` so a
round trip reproduces values exactly. Rows are numbered as CSV lines,
the header being line 1, so errors name ``source:line``.
"""

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetParseError, DatasetSchemaError
from .evaluation import Block
from .features import FeatureKind, FeatureVector
from .operators import SIGN_DIRECTIONS, Direction, Dof, MovementPhase, TrainingSample
from .synthetic import TestSet

logger = logging.getLogger(__name__)

_ANGLE_COLUMNS = [f"{dof.value}_angle" for dof in Dof]
_TAIL_COLUMNS = _ANGLE_COLUMNS + ["phase", "block"]


@dataclass(frozen=True)
class FeatureDataset:
    """Tabular feature windows with ground truth, phases and block ids."""

    features: np.ndarray
    angles: dict[Dof, np.ndarray]
    phases: list[MovementPhase]
    block_ids: np.ndarray
    feature_kind: FeatureKind = FeatureKind.MAV
    source: str = ""

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise DatasetSchemaError(
                f"features must be 2-D (rows x channels), got ndim={features.ndim}"
            )
        n = features.shape[0]
        angles = {}
        for dof in Dof:
            column = np.asarray(self.angles.get(dof, np.zeros(n)), dtype=float)
            if column.shape != (n,):
                raise DatasetSchemaError(
                    f"{dof.value} angle column has {column.shape[0]} rows, expected {n}"
                )
            angles[dof] = column
        bad = ~np.isfinite(features)
        if self.feature_kind in (FeatureKind.MAV, FeatureKind.WL):
            bad |= features < 0
        if bad.any():
            row, column = np.argwhere(bad)[0]
            raise DatasetSchemaError(
                f"{self.source or '<dataset>'}:{row + 2}: ch{column + 1} value "
                f"{float(features[row, column])!r} is not a finite, non-negative "
                f"{self.feature_kind.value} feature"
            )
        block_ids = np.asarray(self.block_ids, dtype=int)
        if block_ids.shape != (n,) or len(self.phases) != n:
            raise DatasetSchemaError("phase and block columns must match the row count")
        seen_runs = set()
        for i, bid in enumerate(block_ids):
            if i == 0 or bid != block_ids[i - 1]:
                if int(bid) in seen_runs:
                    raise DatasetSchemaError(
                        f"block id {bid} appears in non-contiguous runs"
                    )
                seen_runs.add(int(bid))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "block_ids", block_ids)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_channels(self) -> int:
        return self.features.shape[1]


def to_training_samples(ds: FeatureDataset) -> list[TrainingSample]:
    """Interpret dataset rows as single-DOF training samples.

    Rows with every angle zero carry no action label and are skipped with
    a logged count; rows activating more than one DOF are rejected, since
    operator learning is defined on single-DOF data only.
    """
    samples = []
    n_rest = 0
    for i in range(ds.n_rows):
        active = [(dof, ds.angles[dof][i]) for dof in Dof if ds.angles[dof][i] != 0.0]
        if not active:
            n_rest += 1
            continue
        if len(active) > 1:
            names = ", ".join(dof.value for dof, _ in active)
            raise DatasetSchemaError(
                f"row {i}: training rows must activate exactly one DOF, got {names}"
            )
        dof, signed = active[0]
        samples.append(
            TrainingSample(
                features=FeatureVector(ds.features[i].copy(), ds.feature_kind),
                dof=dof,
                direction=Direction.POSITIVE if signed > 0 else Direction.NEGATIVE,
                angle=abs(float(signed)),
                movement_phase=ds.phases[i],
            )
        )
    if n_rest:
        logger.info("skipped %d rest rows while collecting training samples", n_rest)
    return samples


def _intended_direction(values: np.ndarray) -> Direction:
    total = float(values.sum())
    if total > 0:
        return Direction.POSITIVE
    return Direction.NEGATIVE if total < 0 else Direction.REST


def to_blocks(ds: FeatureDataset, dofs: list[Dof]) -> list[Block]:
    """Recover evaluation blocks and intended directions from a dataset.

    The intended direction of a DOF in a block is the sign of its summed
    true angles over the block (zero sum means rest).
    """
    blocks = []
    start = 0
    for i in range(1, ds.n_rows + 1):
        if i == ds.n_rows or ds.block_ids[i] != ds.block_ids[start]:
            intended = {}
            for dof in dofs:
                direction = _intended_direction(ds.angles[dof][start:i])
                if direction is not Direction.REST:
                    intended[dof] = direction
            blocks.append(Block(start=start, stop=i, intended=intended))
            start = i
    return blocks


def from_training_samples(
    samples: list[TrainingSample], n_channels: int, source: str = ""
) -> FeatureDataset:
    """Pack training samples into a dataset (all rows in block 0)."""
    n = len(samples)
    features = np.zeros((n, n_channels))
    angles = {dof: np.zeros(n) for dof in Dof}
    phases = []
    for i, s in enumerate(samples):
        features[i] = s.features.values
        sign = 1.0 if s.direction is Direction.POSITIVE else -1.0
        angles[s.dof][i] = sign * s.angle
        phases.append(s.movement_phase)
    return FeatureDataset(
        features=features,
        angles=angles,
        phases=phases,
        block_ids=np.zeros(n, dtype=int),
        source=source,
    )


def from_test_set(ts: TestSet, source: str = "") -> FeatureDataset:
    """Pack a generated test set into a dataset, numbering blocks from 0."""
    n = len(ts.features)
    if n == 0:
        raise DatasetSchemaError("test set has no windows")
    features = np.stack([fv.values for fv in ts.features])
    block_ids = np.zeros(n, dtype=int)
    for i, block in enumerate(ts.blocks):
        block_ids[block.start : block.stop] = i
    return FeatureDataset(
        features=features,
        angles={dof: values.copy() for dof, values in ts.truth.items()},
        phases=[MovementPhase.DIRECT] * n,
        block_ids=block_ids,
        feature_kind=ts.features[0].kind,
        source=source,
    )


def save_feature_dataset(ds: FeatureDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"ch{i + 1}" for i in range(ds.n_channels)] + _TAIL_COLUMNS)
        for i in range(ds.n_rows):
            row = [repr(float(v)) for v in ds.features[i]]
            row += [repr(float(ds.angles[dof][i])) for dof in Dof]
            row.append(ds.phases[i].value)
            row.append(str(int(ds.block_ids[i])))
            writer.writerow(row)


def load_feature_dataset(path) -> FeatureDataset:
    """Read a feature dataset CSV, validating the header and every row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetSchemaError(f"{path}: missing header row") from None
        if len(header) < len(_TAIL_COLUMNS) + 1 or header[-len(_TAIL_COLUMNS):] != _TAIL_COLUMNS:
            raise DatasetSchemaError(
                f"{path}: header must end with {', '.join(_TAIL_COLUMNS)}"
            )
        n_channels = len(header) - len(_TAIL_COLUMNS)
        expected = [f"ch{i + 1}" for i in range(n_channels)]
        if header[:n_channels] != expected:
            raise DatasetSchemaError(f"{path}: channel columns must be ch1..ch{n_channels}")

        features, phases, block_rows = [], [], []
        angle_rows = {dof: [] for dof in Dof}
        n_columns = len(header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                raise DatasetSchemaError(
                    f"{path}:{lineno}: expected {n_columns} values, got {len(row)}"
                )
            try:
                features.append([float(v) for v in row[:n_channels]])
                for k, dof in enumerate(Dof):
                    angle_rows[dof].append(float(row[n_channels + k]))
                phases.append(MovementPhase(row[n_channels + 3].strip()))
                block_rows.append(int(row[n_channels + 4]))
            except ValueError as exc:
                raise DatasetParseError(f"{path}:{lineno}: {exc}") from None
    if not features:
        logger.warning("%s: dataset has a valid header but no rows", path)
    n = len(features)
    ds = FeatureDataset(
        features=np.array(features, dtype=float).reshape(n, n_channels),
        angles={dof: np.array(values) for dof, values in angle_rows.items()},
        phases=phases,
        block_ids=np.array(block_rows, dtype=int),
        source=str(path),
    )
    counts = {phase.value: 0 for phase in MovementPhase}
    for phase in phases:
        counts[phase.value] += 1
    logger.info(
        "loaded %d rows (%s) from %s",
        n,
        ", ".join(f"{k}: {v}" for k, v in counts.items()),
        path,
    )
    return ds


_DECODE_FIELDS = ("exp_pos", "exp_neg", "exp_zero", "direction", "angle", "clamped")


def save_decode_csv(decoded, dofs: list[Dof], path) -> None:
    """Write one row per decoded window: expectations, decisions, residuals.

    ``decoded`` is a :class:`~qmyo.control.DecodedBatch` over ``dofs``.
    """
    header = ["window"]
    columns = [[str(i) for i in range(len(decoded))]]
    for k, dof in enumerate(dofs):
        header += [f"{dof.value}_{name}" for name in _DECODE_FIELDS]
        columns += [
            [repr(v) for v in decoded.expectation_pos[:, k].tolist()],
            [repr(v) for v in decoded.expectation_neg[:, k].tolist()],
            [repr(v) for v in decoded.expectation_zero[:, k].tolist()],
            [SIGN_DIRECTIONS[v].value for v in decoded.direction[:, k].tolist()],
            [repr(v) for v in decoded.angle[:, k].tolist()],
            ["1" if v else "0" for v in decoded.angle_clamped[:, k].tolist()],
        ]
    header += [f"residual_{dof.value}" for dof in Dof]
    residuals = decoded.residuals()
    if residuals is None:
        residuals = np.full((len(decoded), len(Dof)), np.nan)
    # NaN, for a zero-signal window or a model without three DOFs, is an empty cell
    columns += [["" if math.isnan(v) else repr(v) for v in col] for col in residuals.T.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
