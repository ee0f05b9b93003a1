"""Feature-dataset container and CSV interchange.

One row per window: ``ch1..chN, d1_angle, d2_angle, d3_angle, phase,
block``. Angles are signed ground truth in degrees (0 for inactive
DOFs), phase is ``direct`` or ``return``, and block ids group windows
into contiguous evaluation blocks. Floats are written with ``repr`` so a
round trip reproduces values exactly. Rows are numbered as CSV lines,
the header being line 1, so errors name ``source:line``.

Files are written and read through :mod:`qmyo.csvio`; a load passes it
only the header check and the phase and block cell parsers.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_table, write_rows
from .errors import DatasetSchemaError, EmptyInputError
from .evaluation import run_starts
from .operators import (
    DOFS,
    SIGN_DIRECTIONS,
    Dof,
    MovementPhase,
    TrainingSample,
    TrainingTable,
)
from .synthetic import TestSet

logger = logging.getLogger(__name__)

_TAIL_COLUMNS = [f"{dof.value}_angle" for dof in DOFS] + ["phase", "block"]
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class FeatureDataset:
    """Tabular feature windows with ground truth, phases and block ids.

    ``angles`` is (N, 3), one signed angle column per DOF in ``DOFS``
    order, as in the CSV; ``direct`` marks the direct-phase rows.
    ``lines`` holds each row's file line when a row may span lines;
    without it, row ``i`` is named as line ``i + 2``, after the header.
    """

    features: np.ndarray
    angles: np.ndarray
    direct: np.ndarray
    block_ids: np.ndarray
    source: str = ""
    lines: list[int] | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise DatasetSchemaError(
                f"features must be 2-D (rows x channels), got ndim={features.ndim}"
            )
        n = features.shape[0]
        angles = np.asarray(self.angles, dtype=float)
        direct = np.asarray(self.direct, dtype=bool)
        block_ids = np.asarray(self.block_ids, dtype=int)
        for name, column, shape in (("angles", angles, (n, len(DOFS))),
                                    ("direct", direct, (n,)), ("block_ids", block_ids, (n,))):
            if column.shape != shape:
                raise DatasetSchemaError(f"{name} has shape {column.shape}, expected {shape}")
        if (bad := ~np.isfinite(angles)).any():
            row, k = np.argwhere(bad)[0]
            raise DatasetSchemaError(
                f"{self.where(row)}: {DOFS[k].value}_angle value "
                f"{float(angles[row, k])!r} is not finite"
            )
        if (bad := ~(np.isfinite(features) & (features >= 0))).any():
            row, column = np.argwhere(bad)[0]
            raise DatasetSchemaError(
                f"{self.where(row)}: ch{column + 1} value "
                f"{float(features[row, column])!r} is not a finite, non-negative mav feature"
            )
        starts = run_starts(block_ids)
        later = np.ones(len(starts), dtype=bool)  # runs that are not the first of their id
        later[np.unique(block_ids[starts], return_index=True)[1]] = False
        if later.any():
            row = starts[later.argmax()]
            raise DatasetSchemaError(f"{self.where(row)}: block id "
                                     f"{block_ids[row]} appears in non-contiguous runs")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "block_ids", block_ids)

    def where(self, row: int) -> str:
        """``source:line`` naming a row."""
        line = row + 2 if self.lines is None else self.lines[row]
        return f"{self.source or '<dataset>'}:{line}"

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
    active = ds.angles != 0.0
    if (multi := np.flatnonzero(active.sum(axis=1) > 1)).size:
        names = ", ".join(dof.value for dof, on in zip(DOFS, active[multi[0]]) if on)
        raise DatasetSchemaError(f"{ds.where(multi[0])}: training rows "
                                 f"must activate exactly one DOF, got {names}")
    rows, columns = np.nonzero(active)  # rows ascend, one column each
    if n_rest := ds.n_rows - len(rows):
        logger.info("skipped %d rest rows while collecting training samples", n_rest)
    return TrainingTable(ds.features[rows], columns, ds.angles[rows, columns], ds.direct[rows])


def from_training_table(table: TrainingTable, source: str = "") -> FeatureDataset:
    """Pack training rows into a dataset (all rows in block 0)."""
    angles = np.where(table.dof_index[:, None] == np.arange(len(DOFS)), table.angles[:, None], 0.0)
    return FeatureDataset(table.features, angles, table.direct, np.zeros(table.n_rows, dtype=int), source)


def from_training_samples(
    samples: list[TrainingSample], n_channels: int, source: str = ""
) -> FeatureDataset:
    """:func:`from_training_table` on a list of samples."""
    return from_training_table(TrainingTable.of_samples(samples, n_channels), source)


def from_test_set(ts: TestSet, source: str = "") -> FeatureDataset:
    """Pack a generated test set into a dataset, every row direct-phase."""
    n = len(ts.values)
    if n == 0:
        raise DatasetSchemaError("test set has no windows")
    return FeatureDataset(ts.values, ts.truth, np.ones(n, dtype=bool), ts.block_ids, source)


def _header(n_channels: int) -> list[str]:
    return [f"ch{i + 1}" for i in range(n_channels)] + _TAIL_COLUMNS


def save_feature_dataset(ds: FeatureDataset, path) -> None:
    phases = np.where(ds.direct, MovementPhase.DIRECT.value, MovementPhase.RETURN.value)
    write_rows(path, _header(ds.n_channels), [*ds.features.T, *ds.angles.T, phases, ds.block_ids])


def _header_problem(header: list[str]) -> str | None:
    n_channels = len(header) - len(_TAIL_COLUMNS)
    if n_channels < 1 or header[n_channels:] != _TAIL_COLUMNS:
        return f"header must end with {', '.join(_TAIL_COLUMNS)}"
    if header != _header(n_channels):
        return f"channel columns must be ch1..ch{n_channels}"
    return None


def _direct(cell: str) -> bool:
    return MovementPhase(cell.strip()) is MovementPhase.DIRECT  # the enum's ValueError names a bad cell


def _block(cell: str) -> int:
    block = int(cell)  # int's ValueError names a bad cell
    if not _INT64.min <= block <= _INT64.max:
        raise ValueError(f"block id {block} is outside the int64 range")
    return block


def load_feature_dataset(path) -> FeatureDataset:
    """Read a feature dataset CSV, validating the header and every row."""
    header, table, (direct, block_ids), lines = read_table(path, _header_problem, (_direct, _block))
    if not direct:
        raise EmptyInputError(f"{path}: no rows after header")
    n_channels = len(header) - len(_TAIL_COLUMNS)
    ds = FeatureDataset(
        features=np.array(table[:, :n_channels]),
        angles=np.array(table[:, n_channels:]),
        direct=direct,
        block_ids=block_ids,
        source=str(path),
        lines=lines,
    )
    n_direct = int(ds.direct.sum())
    logger.info("loaded %d rows (direct: %d, return: %d) from %s",
                ds.n_rows, n_direct, ds.n_rows - n_direct, path)
    return ds


_DECODE_FIELDS = ("exp_pos", "exp_neg", "exp_zero", "direction", "angle", "clamped")


def save_decode_csv(decoded, dofs: list[Dof], path) -> None:
    """Write one row per decoded window: expectations, decisions, residuals.

    ``decoded`` is a :class:`~qmyo.control.DecodedBatch` over ``dofs``.
    """
    n = len(decoded)
    labels = np.array([SIGN_DIRECTIONS[sign].value for sign in (-1, 0, 1)])
    fields = [decoded.expectation_pos, decoded.expectation_neg, decoded.expectation_zero,
              labels[decoded.direction + 1], decoded.angle, decoded.angle_clamped.astype(np.int8)]
    header = ["window", *(f"{dof.value}_{name}" for dof in dofs for name in _DECODE_FIELDS),
              *(f"residual_{dof.value}" for dof in Dof)]
    columns = [np.arange(n), *(field[:, k] for k in range(len(dofs)) for field in fields)]
    # a model without three DOFs has no residuals; NaN, for a zero-signal window, is an empty cell
    residuals = decoded.residuals()
    columns += [[""] * n] * len(Dof) if residuals is None else [
        ["" if math.isnan(v) else repr(v) for v in col] for col in residuals.T.tolist()]
    write_rows(path, header, columns)
