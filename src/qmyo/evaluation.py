"""Performance indices and block-wise classification-error accounting.

The per-DOF index is an R-squared against the temporal mean of the true
trajectory; the global index pools squared errors and deviations across
DOFs before taking the ratio. Trajectories are signed: positive
direction +, negative direction -, rest 0, so each DOF is one estimator
output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedDenominatorError
from .operators import Dof


def _squared_sums(truth, estimate) -> tuple[float, float]:
    """One DOF's sums of squared errors and of squared deviations from the truth's mean."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape or truth.ndim != 1 or truth.size == 0:
        raise ValueError(
            f"need equal non-empty 1-D sequences, got {truth.shape} and {estimate.shape}"
        )
    errors = estimate - truth
    deviations = truth - truth.mean()
    return float(errors @ errors), float(deviations @ deviations)


def r_squared_dof(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Performance index for one DOF: 1 - SSE / variance around the mean.

    May be negative when the estimate is worse than predicting the
    temporal mean of the truth.
    """
    error, deviation = _squared_sums(truth, estimate)
    if deviation == 0.0:
        raise UndefinedDenominatorError(
            "true trajectory is constant; the performance index is undefined"
        )
    return 1.0 - error / deviation


def r_squared_global(
    truth: dict[Dof, np.ndarray], estimate: dict[Dof, np.ndarray]
) -> float:
    """Pooled performance index over all DOFs.

    Sums squared errors and squared deviations from each DOF's own
    temporal mean across DOFs, in sorted-DOF order, before dividing,
    rather than averaging the per-DOF indices.
    """
    if set(truth) != set(estimate) or not truth:
        raise ValueError("truth and estimate must cover the same non-empty DOF set")
    total_error = total_deviation = 0.0
    # a plain left-to-right sum: sum() compensates floats on Python >= 3.12
    for dof in sorted(truth):
        error, deviation = _squared_sums(truth[dof], estimate[dof])
        total_error += error
        total_deviation += deviation
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


def run_starts(block_ids: np.ndarray) -> np.ndarray:
    """Rows that start a run of equal block ids; each run is one block."""
    return np.flatnonzero(np.diff(block_ids, prepend=block_ids[:1] + 1))


def block_errors(
    truth: dict[Dof, np.ndarray],
    estimate: dict[Dof, np.ndarray],
    block_ids: np.ndarray,
    vote: str = "majority",
) -> BlockErrorReport:
    """Count per-DOF direction mistakes block by block.

    Blocks are the runs of equal ``block_ids``. A block's intended
    direction on a DOF is the sign of its summed true angles (zero sum
    means rest). Each window votes with the sign of its estimate. Under
    the default ``vote``, "majority", a block errs on a DOF when the most common
    decoded direction across its windows differs from the intended one
    (ties break in favor of positive, then negative, then rest); under
    "any" when some window misses the intended direction, under "all"
    when every window does. A block with at least one erring DOF is
    misclassified.
    """
    starts = run_starts(block_ids)
    stops = np.append(starts[1:], len(block_ids))
    bounds = list(zip(starts.tolist(), stops.tolist()))
    counts = {}
    misclassified = np.zeros(len(starts), dtype=bool)
    for dof in sorted(truth):
        values = np.asarray(estimate[dof], dtype=float)
        positive, negative = values > 0, values < 0
        # vote columns in tie-break order: positive, negative, rest
        votes = np.stack([positive, negative, ~(positive | negative)], axis=1)
        # (blocks, 3) window counts per direction column
        tally = np.add.reduceat(votes, starts, axis=0, dtype=int) if len(starts) else votes
        # one 1-D sum per block; reduceat may add in another order and flip a near-zero sum
        true = np.asarray(truth[dof], dtype=float)
        sums = np.array([true[start:stop].sum() for start, stop in bounds])
        intended = np.where(sums > 0, 0, np.where(sums < 0, 1, 2))
        hits = tally[np.arange(len(intended)), intended]
        if vote == "any":
            wrong = hits < stops - starts
        elif vote == "all":
            wrong = hits == 0
        elif vote == "majority":
            wrong = tally.argmax(axis=1) != intended
        else:
            raise ValueError(f"unknown block_vote rule: {vote!r}")
        counts[dof] = int(wrong.sum())
        misclassified |= wrong
    return BlockErrorReport(
        error_counts=counts, misclassified_blocks=np.flatnonzero(misclassified).tolist()
    )
