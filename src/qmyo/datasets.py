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
from .features import FeatureKind
from .operators import (
    DOFS,
    SIGN_DIRECTIONS,
    Direction,
    Dof,
    MovementPhase,
    TrainingSample,
    TrainingTable,
)
from .synthetic import TestSet

logger = logging.getLogger(__name__)

_ANGLE_COLUMNS = [f"{dof.value}_angle" for dof in Dof]
_TAIL_COLUMNS = _ANGLE_COLUMNS + ["phase", "block"]
_PHASES = {phase.value: phase for phase in MovementPhase}


def _run_starts(block_ids: np.ndarray) -> np.ndarray:
    """Rows that start a run of equal block ids."""
    return np.flatnonzero(np.diff(block_ids, prepend=block_ids[:1] + 1))


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
        table = np.column_stack([angles[dof] for dof in DOFS])
        if (bad := ~np.isfinite(table)).any():
            row, k = np.argwhere(bad)[0]
            raise DatasetSchemaError(
                f"{self.source or '<dataset>'}:{row + 2}: {DOFS[k].value}_angle value "
                f"{float(table[row, k])!r} is not finite"
            )
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
        starts = _run_starts(block_ids)
        later = np.ones(len(starts), dtype=bool)  # runs that are not the first of their id
        later[np.unique(block_ids[starts], return_index=True)[1]] = False
        if later.any():
            row = starts[later.argmax()]
            raise DatasetSchemaError(f"{self.source or '<dataset>'}:{row + 2}: block id "
                                     f"{block_ids[row]} appears in non-contiguous runs")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "block_ids", block_ids)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_channels(self) -> int:
        return self.features.shape[1]


def training_table(ds: FeatureDataset) -> TrainingTable:
    """The dataset's labeled rows as a training table.

    Rows with every angle zero carry no action label and are skipped with
    a logged count; rows activating more than one DOF are rejected, since
    operator learning is defined on single-DOF data only.
    """
    table = np.column_stack([ds.angles[dof] for dof in DOFS])
    active = table != 0.0
    if (multi := np.flatnonzero(active.sum(axis=1) > 1)).size:
        names = ", ".join(dof.value for dof, on in zip(DOFS, active[multi[0]]) if on)
        raise DatasetSchemaError(
            f"row {multi[0]}: training rows must activate exactly one DOF, got {names}"
        )
    rows, columns = np.nonzero(active)  # rows ascend, one column each
    if n_rest := ds.n_rows - len(rows):
        logger.info("skipped %d rest rows while collecting training samples", n_rest)
    direct = np.fromiter((p is MovementPhase.DIRECT for p in ds.phases), bool, ds.n_rows)
    return TrainingTable(ds.features[rows], columns, table[rows, columns], direct[rows])


def to_training_samples(ds: FeatureDataset) -> list[TrainingSample]:
    """:func:`training_table` as a list of single-DOF training samples."""
    return training_table(ds).samples(ds.feature_kind)


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
    starts = _run_starts(ds.block_ids).tolist()
    blocks = []
    for start, stop in zip(starts, starts[1:] + [ds.n_rows]):
        directions = {dof: _intended_direction(ds.angles[dof][start:stop]) for dof in dofs}
        intended = {dof: d for dof, d in directions.items() if d is not Direction.REST}
        blocks.append(Block(start=start, stop=stop, intended=intended))
    return blocks


def from_training_table(table: TrainingTable, source: str = "") -> FeatureDataset:
    """Pack training rows into a dataset (all rows in block 0)."""
    phases = (MovementPhase.RETURN, MovementPhase.DIRECT)
    return FeatureDataset(
        features=table.features,
        angles={dof: np.where(table.dof_index == k, table.angles, 0.0) for k, dof in enumerate(DOFS)},
        phases=[phases[direct] for direct in table.direct.tolist()],
        block_ids=np.zeros(table.n_rows, dtype=int),
        source=source,
    )


def from_training_samples(
    samples: list[TrainingSample], n_channels: int, source: str = ""
) -> FeatureDataset:
    """:func:`from_training_table` on a list of samples."""
    return from_training_table(TrainingTable.of_samples(samples, n_channels), source)


def from_test_set(ts: TestSet, source: str = "") -> FeatureDataset:
    """Pack a generated test set into a dataset, numbering blocks from 0."""
    n = len(ts.values)
    if n == 0:
        raise DatasetSchemaError("test set has no windows")
    sizes = [block.stop - block.start for block in ts.blocks]  # blocks partition the windows
    block_ids = np.repeat(np.arange(len(sizes)), sizes)
    return FeatureDataset(
        features=ts.values,
        angles={dof: values.copy() for dof, values in ts.truth.items()},
        phases=[MovementPhase.DIRECT] * n,
        block_ids=block_ids,
        source=source,
    )


def save_feature_dataset(ds: FeatureDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"ch{i + 1}" for i in range(ds.n_channels)] + _TAIL_COLUMNS)
        table = np.column_stack([ds.features] + [ds.angles[dof] for dof in Dof])
        rows = zip(table, ds.phases, ds.block_ids.tolist())
        # csv writes a Python float as its repr and an int as its str
        writer.writerows(row.tolist() + [phase.value, block] for row, phase, block in rows)


def load_feature_dataset(path) -> FeatureDataset:
    """Read a feature dataset CSV, validating the header and every row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetSchemaError(f"{path}: missing header row") from None
        if len(header) < len(_TAIL_COLUMNS) + 1 or header[-len(_TAIL_COLUMNS):] != _TAIL_COLUMNS:
            raise DatasetSchemaError(f"{path}: header must end with {', '.join(_TAIL_COLUMNS)}")
        n_channels = len(header) - len(_TAIL_COLUMNS)
        expected = [f"ch{i + 1}" for i in range(n_channels)]
        if header[:n_channels] != expected:
            raise DatasetSchemaError(f"{path}: channel columns must be ch1..ch{n_channels}")

        # channels then angles are floats, parsed per row into one table
        n_floats = n_channels + len(Dof)
        table, phases, block_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetSchemaError(
                    f"{path}:{lineno}: expected {len(header)} values, got {len(row)}"
                )
            try:
                table.append(tuple(map(float, row[:n_floats])))  # a tuple is sized exactly
                phase = row[n_floats].strip()
                phases.append(_PHASES.get(phase) or MovementPhase(phase))  # enum names bad ones
                block_rows.append(int(row[n_floats + 1]))
            except ValueError as exc:
                raise DatasetParseError(f"{path}:{lineno}: {exc}") from None
    if not table:
        logger.warning("%s: dataset has a valid header but no rows", path)
    n = len(table)
    table = np.array(table, dtype=float).reshape(n, n_floats)
    ds = FeatureDataset(
        features=np.array(table[:, :n_channels]),
        angles={dof: np.array(table[:, n_channels + k]) for k, dof in enumerate(Dof)},
        phases=phases,
        block_ids=np.array(block_rows, dtype=int),
        source=str(path),
    )
    counts = ", ".join(f"{phase.value}: {phases.count(phase)}" for phase in MovementPhase)
    logger.info("loaded %d rows (%s) from %s", n, counts, path)
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
