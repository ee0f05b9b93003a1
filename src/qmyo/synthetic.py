"""Synthetic feature and raw-EMG generation from a linear mixing model.

Each DOF direction owns one non-negative column of the mixing matrix;
a window's feature vector is the mixing matrix times the activation
magnitudes plus optional Gaussian noise, clipped at zero because MAV
features cannot be negative. Combined movements are plain superpositions
of single-DOF columns, which is exactly the linearity the decoding
scheme relies on.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .features import EmgRecording, FeatureKind, FeatureVector
from .operators import DOFS, SIGN_DIRECTIONS, Direction, Dof, TrainingSample, TrainingTable

# The moving directions in mixing-column order, with the sign of their angles.
_SIGNS = {direction: float(code) for code, direction in SIGN_DIRECTIONS.items() if code}


def _column(dofs: tuple[Dof, ...], dof: Dof, direction: Direction) -> int:
    """Mixing column of a DOF direction: each DOF's positive column, then its negative."""
    if direction not in _SIGNS:
        raise ValueError(f"no mixing column for direction {direction.value}")
    return 2 * dofs.index(dof) + (_SIGNS[direction] < 0)


@dataclass(frozen=True)
class MixingModel:
    """Linear map from per-direction activations to channel features."""

    mixing: np.ndarray
    dofs: tuple[Dof, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        mixing = np.asarray(self.mixing, dtype=float)
        dofs = tuple(self.dofs)
        if mixing.ndim != 2:
            raise DimensionError(f"mixing must be 2-D, got ndim={mixing.ndim}")
        if not dofs or len(set(dofs)) != len(dofs):
            raise ValueError(f"dofs must be non-empty and unique, got {dofs}")
        if mixing.shape[1] != 2 * len(dofs):
            raise DimensionError(
                f"mixing needs {2 * len(dofs)} columns for {len(dofs)} DOFs, "
                f"got {mixing.shape[1]}"
            )
        if np.any(mixing < 0):
            raise ValueError("mixing entries must be non-negative")
        if np.any(mixing.max(axis=0) <= 0):
            raise ValueError("every mixing column needs a strictly positive entry")
        if np.linalg.matrix_rank(mixing) < 2:
            raise ValueError("mixing columns are all parallel; directions are indistinguishable")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "mixing", mixing)
        object.__setattr__(self, "dofs", dofs)

    @property
    def n_channels(self) -> int:
        return self.mixing.shape[0]

    def column(self, dof: Dof, direction: Direction) -> np.ndarray:
        return self.mixing[:, _column(self.dofs, dof, direction)]


@dataclass(frozen=True)
class ScenarioBlock:
    """One block of windows with a linear signed-angle ramp per DOF.

    Angles are (start, end) pairs in signed degrees; a DOF may not flip
    sign within a block, so each block has a well-defined intended
    direction per DOF. DOFs omitted from ``angles`` rest.
    """

    angles: dict[Dof, tuple[float, float]]
    n_windows: int

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError(f"block needs at least 1 window, got {self.n_windows}")
        for dof, (start, end) in self.angles.items():
            if start * end < 0:
                raise ValueError(
                    f"{dof.value}: block angles change sign ({start} to {end})"
                )

    def angle_at(self, dof: Dof, window: int | np.ndarray) -> float | np.ndarray:
        """Signed angle at a window index, or elementwise at an array of them."""
        if dof not in self.angles:
            return 0.0
        start, end = self.angles[dof]
        if self.n_windows == 1:
            return start
        return start + (end - start) * window / (self.n_windows - 1)


@dataclass(frozen=True)
class TestSet:
    """Generated evaluation inputs: (N, C) MAV feature values, ground truth
    and each window's block id (the scenario's block index)."""

    values: np.ndarray
    truth: dict[Dof, np.ndarray]
    block_ids: np.ndarray
    n_clipped: int

    @cached_property
    def features(self) -> list[FeatureVector]:
        """The windows as feature vectors, built on first read."""
        return [FeatureVector(row, FeatureKind.MAV) for row in self.values]


def _activation(model: MixingModel, angles: dict, n: int = 1) -> np.ndarray:
    """(n, 2D) activations: each DOF's angle (a float or (n,) array) by sign."""
    activation = np.zeros((n, 2 * len(model.dofs)))
    for dof, angle in angles.items():
        if dof not in model.dofs:
            raise ValueError(f"model has no mixing columns for {dof.value}")
        col = _column(model.dofs, dof, Direction.POSITIVE)
        activation[:, col] = np.where(angle > 0, angle, 0.0)
        activation[:, col + 1] = np.where(angle >= 0, 0.0, -angle)
    return activation


def _noise(model: MixingModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, C) Gaussian feature noise; zeros, drawing nothing, when noiseless."""
    if model.noise_sigma > 0:
        return rng.normal(0.0, model.noise_sigma, size=(n, model.n_channels))
    return np.zeros((n, model.n_channels))


def _realize(model: MixingModel, activation: np.ndarray, noise: np.ndarray):
    """Feature rows of (N, 2D) activations plus noise, clipped at zero, and the
    count clipped. One matrix-vector product per row gives each row the bits
    of ``model.mixing @ activation`` for that row alone."""
    values = (model.mixing @ activation[:, :, None])[:, :, 0] + noise
    negative = values < 0
    return np.where(negative, 0.0, values), int(negative.sum())


def generate_features(
    model: MixingModel,
    angles: dict[Dof, float],
    count: int,
    rng: np.random.Generator | None = None,
) -> tuple[list[FeatureVector], int]:
    """Draw feature windows for a fixed signed-angle combination.

    Returns the windows and the number of entries clipped at zero, which
    is always 0 when the model is noiseless.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rng is None:
        rng = np.random.default_rng([model.seed, 2])
    activation = _activation(model, angles, count)
    values, n_clipped = _realize(model, activation, _noise(model, rng, count))
    return [FeatureVector(row, FeatureKind.MAV) for row in values], n_clipped


def generate_training_table(
    model: MixingModel,
    per_action_count: int,
    angle_range: tuple[float, float] = (5.0, 40.0),
) -> TrainingTable:
    """Draw single-DOF direct-phase training rows, one action at a time.

    Actions (every DOF x direction pair) are interleaved round-robin so
    that any prefix of the rows stays balanced; growing-prefix retraining
    and size subsetting rely on that. Each row draws its angle, then its
    noise, from one generator; the raw draws are then scaled in bulk with
    the arithmetic ``uniform`` and ``normal`` apply, so rows keep their bits.
    """
    if per_action_count < 1:
        raise ValueError(f"per_action_count must be >= 1, got {per_action_count}")
    low, high = angle_range
    if not 0 < low < high < np.inf:
        raise ValueError(f"angle range must satisfy 0 < min < max < inf, got {angle_range}")
    rng = np.random.default_rng([model.seed, 0])
    actions = [(dof, direction) for dof in model.dofs for direction in _SIGNS]
    n = per_action_count * len(actions)
    uniform, noise = np.empty(n), np.zeros((n, model.n_channels))
    noisy = model.noise_sigma > 0
    for i, row in enumerate(noise):
        uniform[i] = rng.random()
        if noisy:
            rng.standard_normal(out=row)
    angles = low + (high - low) * uniform
    if noisy:
        noise = 0.0 + model.noise_sigma * noise
    activation = np.zeros((n, 2 * len(model.dofs)))
    columns = [_column(model.dofs, dof, direction) for dof, direction in actions]
    activation[np.arange(n), np.tile(columns, per_action_count)] = angles
    values, _ = _realize(model, activation, noise)
    signs = [_SIGNS[direction] for _, direction in actions]
    return TrainingTable(
        features=values,
        dof_index=np.tile([DOFS.index(dof) for dof, _ in actions], per_action_count),
        angles=np.tile(signs, per_action_count) * angles,
        direct=np.ones(n, dtype=bool),
    )


def generate_training_set(
    model: MixingModel,
    per_action_count: int,
    angle_range: tuple[float, float] = (5.0, 40.0),
) -> list[TrainingSample]:
    """:func:`generate_training_table` as a list of training samples."""
    return generate_training_table(model, per_action_count, angle_range).samples()


def generate_test_scenario(model: MixingModel, scenario: list[ScenarioBlock]) -> TestSet:
    """Realize a scenario's blocks as feature windows with ground truth and block ids.

    Each block draws from its own random substream derived from the
    model seed and block index, so blocks could be generated in parallel
    without changing the output.
    """
    if not scenario:
        raise ValueError("scenario needs at least one block")
    values, truths, n_clipped = [], [], 0
    for index, block in enumerate(scenario):
        n, windows = block.n_windows, np.arange(block.n_windows)
        angles = {dof: np.full(n, block.angle_at(dof, windows), dtype=float) for dof in model.dofs}
        rng = np.random.default_rng([model.seed, 1, index])
        block_values, clipped = _realize(model, _activation(model, angles, n), _noise(model, rng, n))
        values.append(block_values)
        n_clipped += clipped
        truths.append(angles)
    truth = {dof: np.concatenate([angles[dof] for angles in truths]) for dof in model.dofs}
    block_ids = np.repeat(np.arange(len(scenario)), [b.n_windows for b in scenario])
    return TestSet(
        values=np.concatenate(values), truth=truth, block_ids=block_ids, n_clipped=n_clipped
    )


def default_mixing_model(
    n_channels: int = 8,
    dofs: tuple[Dof, ...] = (Dof.FLEXION_EXTENSION, Dof.PRONATION_SUPINATION),
    noise_sigma: float = 0.0,
    seed: int = 0,
    baseline: float = 0.0,
) -> MixingModel:
    """Masking-configured mixing: each direction dominates one channel pair.

    Pronation-supination columns are built weak and the flexion-extension
    columns bleed onto their dominant channels, so that DOF degrades
    first under noise and co-activation, the way deep forearm muscles are
    shadowed by superficial ones. A positive ``baseline`` adds shared
    background tone on every channel, which keeps noisy features away
    from the non-negativity clip.
    """
    if n_channels < 4 * len(dofs):
        raise ValueError(
            f"{n_channels} channels cannot host {2 * len(dofs)} disjoint dominant pairs"
        )
    if baseline < 0:
        raise ValueError(f"baseline must be >= 0, got {baseline}")
    mixing = np.full((n_channels, 2 * len(dofs)), baseline)
    # Column ``col`` dominates channels 2 col and 2 col + 1, wrapped.
    for col in range(2 * len(dofs)):
        scale = 0.5 if dofs[col // 2] is Dof.PRONATION_SUPINATION else 1.0
        mixing[(2 * col) % n_channels, col] += 0.10 * scale
        mixing[(2 * col + 1) % n_channels, col] += 0.08 * scale
    if Dof.FLEXION_EXTENSION in dofs and Dof.PRONATION_SUPINATION in dofs:
        weak = [_column(dofs, Dof.PRONATION_SUPINATION, direction) for direction in _SIGNS]
        masked_channels = sorted({(2 * col + k) % n_channels for col in weak for k in (0, 1)})
        for direction in _SIGNS:
            mixing[masked_channels, _column(dofs, Dof.FLEXION_EXTENSION, direction)] += 0.015
    return MixingModel(mixing=mixing, dofs=dofs, noise_sigma=noise_sigma, seed=seed)


def orthogonal_mixing_model(
    n_channels: int = 8,
    dofs: tuple[Dof, ...] = (Dof.FLEXION_EXTENSION, Dof.PRONATION_SUPINATION),
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> MixingModel:
    """Mixing with disjoint equal-strength channel pairs per direction.

    All columns are mutually orthogonal with equal norms, so learned
    prototypes have zero overlap; the cleanest geometry for oracles and
    demos.
    """
    if n_channels < 2 * 2 * len(dofs):
        raise ValueError(
            f"{n_channels} channels cannot host {2 * len(dofs)} disjoint pairs"
        )
    mixing = np.zeros((n_channels, 2 * len(dofs)))
    for col in range(2 * len(dofs)):
        mixing[2 * col, col] = 0.08
        mixing[2 * col + 1, col] = 0.06
    return MixingModel(mixing=mixing, dofs=dofs, noise_sigma=noise_sigma, seed=seed)


def _cycle_blocks(patterns: list, n_blocks: int, total_windows: int, angles) -> list[ScenarioBlock]:
    """``n_blocks`` blocks cycling ``patterns`` and splitting ``total_windows`` evenly, the first
    ``total_windows % n_blocks`` one window longer; ``angles(pattern, cycle)`` gives their angles."""
    if n_blocks < 1 or total_windows < n_blocks:
        raise ValueError(
            f"cannot spread {total_windows} windows over {n_blocks} blocks"
        )
    base, extra = divmod(total_windows, n_blocks)
    cycles = (divmod(i, len(patterns)) for i in range(n_blocks))
    return [
        ScenarioBlock(angles=angles(patterns[k], cycle), n_windows=base + (i < extra))
        for i, (cycle, k) in enumerate(cycles)
    ]


def default_scenario(
    dofs: tuple[Dof, ...] = (Dof.FLEXION_EXTENSION, Dof.PRONATION_SUPINATION),
    n_blocks: int = 55,
    total_windows: int = 8216,
    angle_max: float = 40.0,
) -> list[ScenarioBlock]:
    """Deterministic test trajectory shaped like the standard experiment.

    Cycles single-DOF ramps, the four combined sign quadrants, mixed
    ramp-over-constant blocks and rest across five intensity scales.
    Each cycle of patterns moves one pair of DOFs; with more than two,
    successive cycles pair each DOF with the next (the last with the
    first). Window counts split the total as evenly as possible.
    """
    if len(dofs) < 2:
        raise ValueError("the default scenario needs at least two DOFs")
    # Patterns name the DOFs of a pair by position: 0 is the first, 1 the second.
    patterns = [
        {0: (0.5, 1.0)},
        {1: (0.5, 1.0)},
        {0: (-0.5, -1.0)},
        {1: (-0.5, -1.0)},
        {0: (0.6, 0.6), 1: (0.6, 0.6)},
        {0: (0.4, 0.9), 1: (-0.7, -0.7)},
        {0: (-0.7, -0.7), 1: (0.4, 0.9)},
        {0: (-0.5, -1.0), 1: (-0.5, -1.0)},
        {0: (0.8, 0.8), 1: (0.3, 0.8)},
        {0: (0.3, 0.8), 1: (0.8, 0.8)},
        {},
    ]
    pairs = list(zip(dofs, dofs[1:] + dofs[:1])) if len(dofs) > 2 else [dofs[:2]]

    def angles(pattern, cycle):
        scale = (0.2 + 0.8 * (cycle % 5) / 4.0) * angle_max
        pair = pairs[cycle % len(pairs)]
        return {pair[k]: (start * scale, end * scale) for k, (start, end) in pattern.items()}

    return _cycle_blocks(patterns, n_blocks, total_windows, angles)


def matched_operating_point(
    mixing: MixingModel,
    theta_max: dict[tuple[Dof, Direction], float],
    first: tuple[Dof, Direction],
    second: tuple[Dof, Direction],
) -> tuple[float, float]:
    """Combined angle pair the proportional decoder can reproduce.

    Because encoded states are normalized, the decoder sees only the
    activation ratio; for a combined movement of two DOFs there is one
    magnitude pair per sign quadrant at which the expectation shares map
    back onto the true angles (exactly so for orthogonal mixing columns).
    """
    t_first = theta_max[first]
    t_second = theta_max[second]
    m_first = float(np.linalg.norm(mixing.column(*first)))
    m_second = float(np.linalg.norm(mixing.column(*second)))
    a = (t_first * m_first) ** 2
    b = (t_second * m_second) ** 2
    return t_first * b / (a + b), t_second * a / (a + b)


def matched_scenario(
    mixing: MixingModel,
    theta_max: dict[tuple[Dof, Direction], float],
    n_blocks: int = 55,
    total_windows: int = 8216,
    include_combined: bool = True,
) -> list[ScenarioBlock]:
    """Test trajectory on the decoder's reachable operating points.

    Cycles the single-DOF maximal angles and (unless disabled) the four
    combined sign quadrants at their matched magnitude pairs for the
    first two DOFs. On noiseless data from the same mixing model an
    orthogonal-column decoder reproduces this trajectory exactly, which
    makes it the end to end oracle; with noise it isolates model quality
    from scenario mismatch.
    """
    dofs = mixing.dofs
    if len(dofs) < 2:
        raise ValueError("the matched scenario needs at least two DOFs")
    a, b = dofs[0], dofs[1]
    patterns = [
        {dof: sign * theta_max[(dof, direction)]}
        for direction, sign in _SIGNS.items()
        for dof in (a, b)
    ]
    if include_combined:
        for (dir_a, sign_a), (dir_b, sign_b) in itertools.product(_SIGNS.items(), repeat=2):
            angle_a, angle_b = matched_operating_point(
                mixing, theta_max, (a, dir_a), (b, dir_b)
            )
            patterns.append({a: sign_a * angle_a, b: sign_b * angle_b})
    return _cycle_blocks(
        patterns, n_blocks, total_windows,
        lambda pattern, _: {dof: (angle, angle) for dof, angle in pattern.items()},
    )


def theta_max_of_model(model) -> dict[tuple[Dof, Direction], float]:
    """Maximal training angles per DOF direction, keyed for scenarios."""
    out = {}
    for dof, ops in model.dofs.items():
        out[(dof, Direction.POSITIVE)] = ops.theta_pos_max
        out[(dof, Direction.NEGATIVE)] = ops.theta_neg_max
    return out


def generate_raw_emg(
    model: MixingModel,
    angles: dict[Dof, float],
    duration_s: float,
    sample_rate: float = 1024.0,
    n_tones: int = 32,
    rng: np.random.Generator | None = None,
) -> EmgRecording:
    """Band-limited random signal whose per-channel MAV tracks the mixing.

    Each channel is a sum of random-frequency, random-phase tones between
    20 and 200 Hz, rescaled so its mean absolute value over the recording
    equals the mixing model's clean feature value for the requested
    activation. Meant for exercising the windowing and MAV path end to
    end, not as a physiological simulation.

    A channel whose target is 0 is exact zeros. Every channel, silent or
    not, draws its ``n_tones`` frequencies and then its ``n_tones``
    phases from ``rng`` in channel order, so the samples for a given
    ``rng`` state are part of the output contract: a silent channel
    still advances the stream, and a channel's tones do not depend on
    which other channels are active.
    """
    if duration_s <= 0 or sample_rate <= 0:
        raise ValueError("duration_s and sample_rate must be > 0")
    if rng is None:
        rng = np.random.default_rng([model.seed, 3])
    n_samples = int(duration_s * sample_rate)
    t = np.arange(n_samples) / sample_rate
    targets = model.mixing @ _activation(model, angles)[0]
    channels = np.zeros((n_samples, model.n_channels))
    for ch in range(model.n_channels):
        freqs = rng.uniform(20.0, 200.0, size=n_tones)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_tones)
        if not targets[ch] > 0:
            continue
        signal = np.sin(2.0 * np.pi * freqs[None, :] * t[:, None] + phases[None, :]).sum(axis=1)
        level = np.mean(np.abs(signal))
        if level > 0:
            channels[:, ch] = signal * (targets[ch] / level)
    return EmgRecording(channels, sample_rate)
