"""Experiment orchestration: train at one or more training-set sizes,
decode a test set, and summarize performance.

Reports are plain deterministic text/CSV (no timestamps) carrying the
seed and a hash of the configuration, so identical runs produce byte
identical output.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .control import DecodedBatch, decode_batch
from .datasets import FeatureDataset, to_blocks, training_table
from .errors import ConfigurationError, DimensionError
from .evaluation import (
    BlockErrorReport,
    TrajectoryPair,
    block_errors,
    r_squared_dof,
    r_squared_global,
)
from .operators import (
    DOFS,
    ControllerModel,
    DecodeConfig,
    Direction,
    Dof,
    TrainingTable,
    train_table,
)


@dataclass(frozen=True)
class ExperimentConfig:
    rest_threshold: float = 0.05
    overlap_epsilon: float = 1e-6
    block_vote: str = "majority"
    training_sizes: tuple[int, ...] = (500, 2000)
    seed: int = 0
    dofs: tuple[Dof, ...] | None = None

    def __post_init__(self):
        if not self.training_sizes or any(s < 1 for s in self.training_sizes):
            raise ValueError(f"training sizes must be positive, got {self.training_sizes}")
        self.decode_config()

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(self.rest_threshold, self.overlap_epsilon, self.block_vote)

    def hash(self) -> str:
        """Digest of every field."""
        doc = asdict(self) | {"dofs": None if self.dofs is None else [d.value for d in self.dofs]}
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class SizeResult:
    """Everything measured for one training-set size."""

    training_size: int
    model: ControllerModel
    overlaps: dict[Dof, float]
    r2_per_dof: dict[Dof, float]
    r2_global: float
    blocks: BlockErrorReport
    decoded: DecodedBatch

    @property
    def n_zero_signal(self) -> int:
        return int(self.decoded.zero_signal.sum())

    @property
    def n_clamped(self) -> int:
        """Windows with at least one DOF's angle clamped."""
        return int(self.decoded.angle_clamped.any(axis=1).sum())


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig | None
    config_hash: str
    dofs: list[Dof]
    n_channels: int
    n_windows: int
    n_blocks: int
    results: list[SizeResult]


def subset_per_action(table: TrainingTable, size: int) -> TrainingTable:
    """First ``size`` rows of every (DOF, direction) group, in order.

    A row is kept when its rank within its group is below ``size``; a
    group with fewer rows is an error, naming the first such group to
    appear in the table.
    """
    group = 2 * table.dof_index + (table.angles < 0)
    order = np.argsort(group, kind="stable")  # each group's rows, in table order
    starts = np.flatnonzero(np.diff(group[order], prepend=-1))
    counts = np.diff(starts, append=len(group))
    rank = np.empty(len(group), dtype=int)
    rank[order] = np.arange(len(group)) - np.repeat(starts, counts)
    if (short := np.flatnonzero(counts < size)).size:
        first = short[order[starts[short]].argmin()]  # the short group seen first
        row = order[starts[first]]
        dof = DOFS[table.dof_index[row]]
        direction = Direction.NEGATIVE if table.angles[row] < 0 else Direction.POSITIVE
        raise ConfigurationError(
            f"training size {size} exceeds the {counts[first]} available "
            f"{dof.value} {direction.value} samples"
        )
    return table.rows(rank < size)


def evaluate_model(
    model: ControllerModel, test: FeatureDataset, training_size: int = 0
) -> SizeResult:
    """Decode a test dataset against one model and score it."""
    if test.n_rows == 0:
        raise ConfigurationError("test dataset is empty")
    if test.n_channels != model.n_channels:
        raise DimensionError(
            f"test dataset has {test.n_channels} channels, model expects "
            f"{model.n_channels}"
        )
    dofs = model.sorted_dofs()
    decoded = decode_batch(test.features, model)
    estimate = {dof: decoded.angle[:, k] for k, dof in enumerate(dofs)}
    truth = {dof: test.angles[dof] for dof in dofs}
    pair = TrajectoryPair(truth=truth, estimate=estimate, blocks=to_blocks(test, dofs))
    return SizeResult(
        training_size=training_size,
        model=model,
        overlaps={dof: model.dofs[dof].overlap for dof in dofs},
        r2_per_dof={dof: r_squared_dof(truth[dof], estimate[dof]) for dof in dofs},
        r2_global=r_squared_global(truth, estimate),
        blocks=block_errors(pair, model.decode_config),
        decoded=decoded,
    )


def run_experiment(
    cfg: ExperimentConfig, train_ds: FeatureDataset, test_ds: FeatureDataset
) -> ExperimentReport:
    """Train one model per configured size and evaluate each on the test set."""
    if train_ds.n_channels != test_ds.n_channels:
        raise DimensionError(
            f"train and test channel counts differ: "
            f"{train_ds.n_channels} vs {test_ds.n_channels}"
        )
    table = training_table(train_ds)
    dofs = list(cfg.dofs) if cfg.dofs is not None else table.dofs()
    pool = table.rows(np.isin(table.dof_index, [DOFS.index(dof) for dof in dofs]))
    results = []
    for size in cfg.training_sizes:
        model = train_table(
            subset_per_action(pool, size), train_ds.n_channels, dofs=dofs,
            config=cfg.decode_config(),
        )
        results.append(evaluate_model(model, test_ds, training_size=size))
    return ExperimentReport(
        config=cfg,
        config_hash=cfg.hash(),
        dofs=sorted(dofs),
        n_channels=train_ds.n_channels,
        n_windows=test_ds.n_rows,
        n_blocks=len(to_blocks(test_ds, dofs)),
        results=results,
    )


def report_for_model(model: ControllerModel, test: FeatureDataset) -> ExperimentReport:
    """Single-model evaluation report (training size reported as 0)."""
    result = evaluate_model(model, test)
    return ExperimentReport(
        config=None,
        config_hash="-",
        dofs=model.sorted_dofs(),
        n_channels=model.n_channels,
        n_windows=test.n_rows,
        n_blocks=len(to_blocks(test, model.sorted_dofs())),
        results=[result],
    )


def render_report_text(report: ExperimentReport) -> str:
    lines = [
        "myoelectric controller evaluation",
        f"config_hash: {report.config_hash}",
    ]
    if report.config is not None:
        lines.append(f"seed: {report.config.seed}")
    lines += [
        f"dofs: {','.join(d.value for d in report.dofs)}",
        f"channels: {report.n_channels}",
        f"test_windows: {report.n_windows}",
        f"test_blocks: {report.n_blocks}",
    ]
    for res in report.results:
        lines.append("")
        lines.append(f"[training_size={res.training_size}]")
        for dof in report.dofs:
            lines.append(f"overlap_{dof.value}: {res.overlaps[dof]!r}")
        for dof in report.dofs:
            lines.append(f"r2_{dof.value}: {res.r2_per_dof[dof]!r}")
        lines.append(f"r2_global: {res.r2_global!r}")
        for dof in report.dofs:
            lines.append(
                f"block_errors_{dof.value}: {res.blocks.error_counts[dof]}"
            )
        lines.append(f"misclassified_blocks: {res.blocks.n_misclassified}")
        indices = ",".join(str(i) for i in res.blocks.misclassified_blocks)
        lines.append(f"misclassified_block_indices: {indices}")
        lines.append(f"zero_signal_windows: {res.n_zero_signal}")
        lines.append(f"clamped_windows: {res.n_clamped}")
    return "\n".join(lines) + "\n"


def render_report_csv(report: ExperimentReport) -> str:
    header = ["training_size"]
    for dof in report.dofs:
        header += [f"overlap_{dof.value}", f"r2_{dof.value}", f"block_errors_{dof.value}"]
    header += [
        "r2_global",
        "misclassified_blocks",
        "misclassified_block_indices",
        "zero_signal_windows",
        "clamped_windows",
    ]
    rows = [",".join(header)]
    for res in report.results:
        row = [str(res.training_size)]
        for dof in report.dofs:
            row += [
                repr(res.overlaps[dof]),
                repr(res.r2_per_dof[dof]),
                str(res.blocks.error_counts[dof]),
            ]
        row += [
            repr(res.r2_global),
            str(res.blocks.n_misclassified),
            ";".join(str(i) for i in res.blocks.misclassified_blocks),
            str(res.n_zero_signal),
            str(res.n_clamped),
        ]
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"
