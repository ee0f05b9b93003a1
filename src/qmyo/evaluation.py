"""Performance indices and block-wise classification-error accounting.

The per-DOF index is an R-squared against the temporal mean of the true
trajectory; the global index pools squared errors and deviations across
DOFs before taking the ratio. Trajectories are signed: positive
direction +, negative direction -, rest 0, so each DOF is one estimator
output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MalformedBlockError, UndefinedDenominatorError
from .operators import DecodeConfig, Direction, Dof


@dataclass(frozen=True)
class Block:
    """Half-open window range [start, stop) with intended directions.

    DOFs absent from ``intended`` count as rest in that block.
    """

    start: int
    stop: int
    intended: dict[Dof, Direction]

    def __post_init__(self):
        if self.stop <= self.start:
            raise MalformedBlockError(
                f"block [{self.start}, {self.stop}) contains no windows"
            )

    def intended_direction(self, dof: Dof) -> Direction:
        return self.intended.get(dof, Direction.REST)


@dataclass(frozen=True)
class TrajectoryPair:
    """True and estimated signed-angle sequences plus the block partition."""

    truth: dict[Dof, np.ndarray]
    estimate: dict[Dof, np.ndarray]
    blocks: list[Block]

    def __post_init__(self):
        if set(self.truth) != set(self.estimate):
            raise ValueError("truth and estimate must cover the same DOFs")
        lengths = {len(v) for v in self.truth.values()}
        lengths |= {len(v) for v in self.estimate.values()}
        if len(lengths) != 1:
            raise ValueError(f"trajectory lengths differ: {sorted(lengths)}")
        n = lengths.pop()
        for name in ("truth", "estimate"):
            arrays = {d: np.asarray(v, dtype=float) for d, v in getattr(self, name).items()}
            object.__setattr__(self, name, arrays)
        cursor = 0
        for block in self.blocks:
            if block.start != cursor:
                raise MalformedBlockError(
                    f"block starting at {block.start} leaves a gap or overlap at {cursor}"
                )
            cursor = block.stop
        if cursor != n:
            raise MalformedBlockError(
                f"blocks cover {cursor} windows but trajectories have {n}"
            )

    @property
    def n_windows(self) -> int:
        return len(next(iter(self.truth.values())))

    def dofs(self) -> list[Dof]:
        return sorted(self.truth)


def r_squared_dof(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Performance index for one DOF: 1 - SSE / variance around the mean.

    May be negative when the estimate is worse than predicting the
    temporal mean of the truth.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape or truth.ndim != 1 or truth.size == 0:
        raise ValueError(
            f"need equal non-empty 1-D sequences, got {truth.shape} and {estimate.shape}"
        )
    deviations = truth - truth.mean()
    denominator = float(deviations @ deviations)
    if denominator == 0.0:
        raise UndefinedDenominatorError(
            "true trajectory is constant; the performance index is undefined"
        )
    errors = estimate - truth
    return 1.0 - float(errors @ errors) / denominator


def r_squared_global(
    truth: dict[Dof, np.ndarray], estimate: dict[Dof, np.ndarray]
) -> float:
    """Pooled performance index over all DOFs.

    Sums squared errors and squared deviations from each DOF's own
    temporal mean across DOFs before dividing, rather than averaging the
    per-DOF indices.
    """
    if set(truth) != set(estimate) or not truth:
        raise ValueError("truth and estimate must cover the same non-empty DOF set")
    total_error = 0.0
    total_deviation = 0.0
    for dof in sorted(truth):
        t = np.asarray(truth[dof], dtype=float)
        e = np.asarray(estimate[dof], dtype=float)
        if t.shape != e.shape or t.size == 0:
            raise ValueError(f"{dof.value}: sequences must be equal and non-empty")
        err = e - t
        dev = t - t.mean()
        total_error += float(err @ err)
        total_deviation += float(dev @ dev)
    if total_deviation == 0.0:
        raise UndefinedDenominatorError(
            "every true trajectory is constant; the global index is undefined"
        )
    return 1.0 - total_error / total_deviation


@dataclass(frozen=True)
class BlockErrorReport:
    error_counts: dict[Dof, int]
    misclassified_blocks: list[int]

    @property
    def n_misclassified(self) -> int:
        return len(self.misclassified_blocks)


# Vote columns in tie-break order: positive, negative, rest.
_VOTE_COLUMN = {Direction.POSITIVE: 0, Direction.NEGATIVE: 1, Direction.REST: 2}


def block_errors(pair: TrajectoryPair, cfg: DecodeConfig) -> BlockErrorReport:
    """Count per-DOF direction mistakes block by block.

    Each window votes with the sign of its estimate. Under the default
    majority vote, a block errs on a DOF when the most common decoded
    direction across its windows differs from the intended one (ties
    break in favor of positive, then negative, then rest); under "any"
    when some window misses the intended direction, under "all" when
    every window does. A block with at least one erring DOF is
    misclassified.
    """
    starts = np.array([block.start for block in pair.blocks], dtype=int)
    sizes = np.array([block.stop - block.start for block in pair.blocks], dtype=int)
    counts = {}
    misclassified = np.zeros(len(pair.blocks), dtype=bool)
    for dof in pair.dofs():
        estimate = pair.estimate[dof]
        positive, negative = estimate > 0, estimate < 0
        votes = np.stack([positive, negative, ~(positive | negative)], axis=1)
        # (blocks, 3) window counts per direction column
        tally = np.add.reduceat(votes, starts, axis=0, dtype=int) if len(starts) else votes
        intended = np.array(
            [_VOTE_COLUMN[block.intended_direction(dof)] for block in pair.blocks], dtype=int
        )
        hits = tally[np.arange(len(intended)), intended]
        if cfg.block_vote == "any":
            wrong = hits < sizes
        elif cfg.block_vote == "all":
            wrong = hits == 0
        else:
            wrong = tally.argmax(axis=1) != intended
        counts[dof] = int(wrong.sum())
        misclassified |= wrong
    return BlockErrorReport(
        error_counts=counts, misclassified_blocks=np.flatnonzero(misclassified).tolist()
    )
