"""Experiment orchestration: train at one or more training-set sizes,
decode a test set, and summarize performance.

Reports are plain deterministic text/CSV (no timestamps) carrying the
seed and a hash of the configuration, so identical runs produce byte
identical output.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .control import DecodedBatch, decode_batch
from .datasets import FeatureDataset, training_table
from .errors import ConfigurationError, DimensionError
from .evaluation import (
    BlockErrorReport,
    block_errors,
    r_squared_dof,
    r_squared_global,
    run_starts,
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
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    training_sizes: tuple[int, ...] = (500, 2000)
    seed: int = 0
    dofs: tuple[Dof, ...] | None = None

    def __post_init__(self):
        if not self.training_sizes or any(s < 1 for s in self.training_sizes):
            raise ValueError(f"training sizes must be positive, got {self.training_sizes}")

    def hash(self) -> str:
        """Digest of every setting, the decode ones flat beside the others."""
        doc = asdict(self)
        doc |= doc.pop("decode")
        doc["dofs"] = None if self.dofs is None else [d.value for d in self.dofs]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class SizeResult:
    """Everything measured for one training-set size."""

    training_size: int
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

    The first group to appear with fewer rows is an error.
    """
    group = 2 * table.dof_index + (table.angles < 0)
    keep = np.zeros(len(group), dtype=bool)
    for row in np.sort(np.unique(group, return_index=True)[1]):  # each group's first row
        members = np.flatnonzero(group == group[row])
        if len(members) < size:
            direction = Direction.NEGATIVE if table.angles[row] < 0 else Direction.POSITIVE
            raise ConfigurationError(
                f"training size {size} exceeds the {len(members)} available "
                f"{DOFS[table.dof_index[row]].value} {direction.value} samples"
            )
        keep[members[:size]] = True
    return table.rows(keep)


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
    return SizeResult(
        training_size=training_size,
        overlaps={dof: model.dofs[dof].overlap for dof in dofs},
        r2_per_dof={dof: r_squared_dof(truth[dof], estimate[dof]) for dof in dofs},
        r2_global=r_squared_global(truth, estimate),
        blocks=block_errors(truth, estimate, test.block_ids, model.decode_config),
        decoded=decoded,
    )


def _report(config: ExperimentConfig | None, dofs, test: FeatureDataset, results):
    """The report on ``test``, whose channel count every caller checked equal to its model's."""
    return ExperimentReport(
        config=config,
        config_hash="-" if config is None else config.hash(),
        dofs=sorted(dofs),
        n_channels=test.n_channels,
        n_windows=test.n_rows,
        n_blocks=len(run_starts(test.block_ids)),
        results=results,
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
        model = train_table(subset_per_action(pool, size), dofs=dofs, config=cfg.decode)
        results.append(evaluate_model(model, test_ds, training_size=size))
    return _report(cfg, dofs, test_ds, results)


def report_for_model(model: ControllerModel, test: FeatureDataset) -> ExperimentReport:
    """Single-model evaluation report (training size reported as 0)."""
    return _report(None, model.dofs, test, [evaluate_model(model, test)])


def _size_fields(res: SizeResult, dofs: list[Dof], sep: str = ",") -> dict[str, str]:
    """One size's report cells by name in the text report's order; ``sep`` joins block indices."""
    cells = {f"overlap_{dof.value}": repr(res.overlaps[dof]) for dof in dofs}
    cells |= {f"r2_{dof.value}": repr(res.r2_per_dof[dof]) for dof in dofs}
    cells["r2_global"] = repr(res.r2_global)
    cells |= {f"block_errors_{dof.value}": str(res.blocks.error_counts[dof]) for dof in dofs}
    return cells | {
        "misclassified_blocks": str(res.blocks.n_misclassified),
        "misclassified_block_indices": sep.join(map(str, res.blocks.misclassified_blocks)),
        "zero_signal_windows": str(res.n_zero_signal),
        "clamped_windows": str(res.n_clamped),
    }


def render_report_text(report: ExperimentReport) -> str:
    lines = ["myoelectric controller evaluation", f"config_hash: {report.config_hash}"]
    if report.config is not None:
        lines.append(f"seed: {report.config.seed}")
    lines += [f"dofs: {','.join(d.value for d in report.dofs)}", f"channels: {report.n_channels}",
              f"test_windows: {report.n_windows}", f"test_blocks: {report.n_blocks}"]
    for res in report.results:
        lines += ["", f"[training_size={res.training_size}]"]
        lines += [f"{name}: {cell}" for name, cell in _size_fields(res, report.dofs).items()]
    return "\n".join(lines) + "\n"


def render_report_csv(report: ExperimentReport) -> str:
    header = [f"{name}_{dof.value}" for dof in report.dofs
              for name in ("overlap", "r2", "block_errors")]
    header += ["r2_global", "misclassified_blocks", "misclassified_block_indices",
               "zero_signal_windows", "clamped_windows"]
    rows = [["training_size"] + header]
    for res in report.results:
        cells = _size_fields(res, report.dofs, sep=";")
        rows.append([str(res.training_size)] + [cells[name] for name in header])
    return "\n".join(map(",".join, rows)) + "\n"
