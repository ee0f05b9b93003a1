"""Synthetic feature and raw-EMG generation from a linear mixing model.

Each DOF direction owns one non-negative column of the mixing matrix;
a window's feature vector is the mixing matrix times the activation
magnitudes plus optional Gaussian noise, clipped at zero because MAV
features cannot be negative. Combined movements are plain superpositions
of single-DOF columns, which is exactly the linearity the decoding
scheme relies on.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .evaluation import Block
from .features import EmgRecording, FeatureKind, FeatureVector
from .operators import DOFS, Direction, Dof, TrainingSample, TrainingTable

_DIRECTIONS = (Direction.POSITIVE, Direction.NEGATIVE)


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
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "mixing", mixing)
        object.__setattr__(self, "dofs", dofs)

    @property
    def n_channels(self) -> int:
        return self.mixing.shape[0]

    def column_index(self, dof: Dof, direction: Direction) -> int:
        if direction not in _DIRECTIONS:
            raise ValueError(f"no mixing column for direction {direction.value}")
        return 2 * self.dofs.index(dof) + (0 if direction is Direction.POSITIVE else 1)

    def column(self, dof: Dof, direction: Direction) -> np.ndarray:
        return self.mixing[:, self.column_index(dof, direction)]


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

    def intended_direction(self, dof: Dof) -> Direction:
        start, end = self.angles.get(dof, (0.0, 0.0))
        reference = start if start != 0.0 else end
        if reference > 0:
            return Direction.POSITIVE
        return Direction.NEGATIVE if reference < 0 else Direction.REST


@dataclass(frozen=True)
class SyntheticScenario:
    """A full test trajectory as an ordered list of blocks."""

    blocks: list[ScenarioBlock]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("scenario needs at least one block")

    @property
    def n_windows(self) -> int:
        return sum(b.n_windows for b in self.blocks)


@dataclass(frozen=True)
class TestSet:
    """Generated evaluation inputs: (N, C) MAV feature values, ground truth
    and blocks."""

    values: np.ndarray
    truth: dict[Dof, np.ndarray]
    blocks: list[Block]
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
        col = model.column_index(dof, Direction.POSITIVE)
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
    noise, from one generator.
    """
    if per_action_count < 1:
        raise ValueError(f"per_action_count must be >= 1, got {per_action_count}")
    low, high = angle_range
    if not 0 < low < high:
        raise ValueError(f"angle range must satisfy 0 < min < max, got {angle_range}")
    rng = np.random.default_rng([model.seed, 0])
    actions = [(dof, direction) for dof in model.dofs for direction in _DIRECTIONS]
    n = per_action_count * len(actions)
    angles, noise = np.empty(n), np.empty((n, model.n_channels))
    for i in range(n):
        angles[i] = rng.uniform(low, high)
        noise[i] = _noise(model, rng, 1)
    activation = np.zeros((n, 2 * len(model.dofs)))
    columns = [model.column_index(dof, direction) for dof, direction in actions]
    activation[np.arange(n), np.tile(columns, per_action_count)] = angles
    values, _ = _realize(model, activation, noise)
    signs = [1.0 if direction is Direction.POSITIVE else -1.0 for _, direction in actions]
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


def generate_test_scenario(model: MixingModel, scenario: SyntheticScenario) -> TestSet:
    """Realize a scenario as feature windows with ground truth and blocks.

    Each block draws from its own random substream derived from the
    model seed and block index, so blocks could be generated in parallel
    without changing the output.
    """
    values, truths, blocks, n_clipped, cursor = [], [], [], 0, 0
    for index, block in enumerate(scenario.blocks):
        n, windows = block.n_windows, np.arange(block.n_windows)
        angles = {dof: np.full(n, block.angle_at(dof, windows), dtype=float) for dof in model.dofs}
        rng = np.random.default_rng([model.seed, 1, index])
        block_values, clipped = _realize(model, _activation(model, angles, n), _noise(model, rng, n))
        values.append(block_values)
        n_clipped += clipped
        truths.append(angles)
        directions = {dof: block.intended_direction(dof) for dof in model.dofs}
        intended = {dof: d for dof, d in directions.items() if d is not Direction.REST}
        blocks.append(Block(start=cursor, stop=cursor + n, intended=intended))
        cursor += n
    truth = {dof: np.concatenate([angles[dof] for angles in truths]) for dof in model.dofs}
    return TestSet(
        values=np.concatenate(values), truth=truth, blocks=blocks, n_clipped=n_clipped
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
    dominant_pairs = {}
    for i, dof in enumerate(dofs):
        for j, direction in enumerate(_DIRECTIONS):
            col = 2 * i + j
            dom = ((2 * col) % n_channels, (2 * col + 1) % n_channels)
            dominant_pairs[(dof, direction)] = dom
            weak = dof is Dof.PRONATION_SUPINATION
            scale = 0.5 if weak else 1.0
            mixing[dom[0], col] += 0.10 * scale
            mixing[dom[1], col] += 0.08 * scale
    if Dof.FLEXION_EXTENSION in dofs and Dof.PRONATION_SUPINATION in dofs:
        masked_channels = sorted(
            set(
                dominant_pairs[(Dof.PRONATION_SUPINATION, Direction.POSITIVE)]
                + dominant_pairs[(Dof.PRONATION_SUPINATION, Direction.NEGATIVE)]
            )
        )
        for direction in _DIRECTIONS:
            col = mixing[:, 2 * dofs.index(Dof.FLEXION_EXTENSION) + (0 if direction is Direction.POSITIVE else 1)]
            col[masked_channels] += 0.015
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


def default_scenario(
    dofs: tuple[Dof, ...] = (Dof.FLEXION_EXTENSION, Dof.PRONATION_SUPINATION),
    n_blocks: int = 55,
    total_windows: int = 8216,
    angle_max: float = 40.0,
) -> SyntheticScenario:
    """Deterministic test trajectory shaped like the standard experiment.

    Cycles single-DOF ramps, the four combined sign quadrants, mixed
    ramp-over-constant blocks and rest across five intensity scales.
    Each cycle of patterns moves one pair of DOFs; with more than two,
    successive cycles pair each DOF with the next (the last with the
    first). Window counts split the total as evenly as possible.
    """
    if len(dofs) < 2:
        raise ValueError("the default scenario needs at least two DOFs")
    if n_blocks < 1 or total_windows < n_blocks:
        raise ValueError(
            f"cannot spread {total_windows} windows over {n_blocks} blocks"
        )
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
    base, extra = divmod(total_windows, n_blocks)
    blocks = []
    for i in range(n_blocks):
        cycle = i // len(patterns)
        scale = (0.2 + 0.8 * (cycle % 5) / 4.0) * angle_max
        pair = pairs[cycle % len(pairs)]
        angles = {
            pair[k]: (start * scale, end * scale)
            for k, (start, end) in patterns[i % len(patterns)].items()
        }
        blocks.append(
            ScenarioBlock(angles=angles, n_windows=base + (1 if i < extra else 0))
        )
    return SyntheticScenario(blocks=blocks)


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
) -> SyntheticScenario:
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
    patterns: list[dict[Dof, float]] = []
    for direction in _DIRECTIONS:
        sign = 1.0 if direction is Direction.POSITIVE else -1.0
        patterns.append({a: sign * theta_max[(a, direction)]})
        patterns.append({b: sign * theta_max[(b, direction)]})
    if include_combined:
        for dir_a in _DIRECTIONS:
            for dir_b in _DIRECTIONS:
                angle_a, angle_b = matched_operating_point(
                    mixing, theta_max, (a, dir_a), (b, dir_b)
                )
                sign_a = 1.0 if dir_a is Direction.POSITIVE else -1.0
                sign_b = 1.0 if dir_b is Direction.POSITIVE else -1.0
                patterns.append({a: sign_a * angle_a, b: sign_b * angle_b})
    base, extra = divmod(total_windows, n_blocks)
    blocks = []
    for i in range(n_blocks):
        pattern = patterns[i % len(patterns)]
        blocks.append(
            ScenarioBlock(
                angles={dof: (angle, angle) for dof, angle in pattern.items()},
                n_windows=base + (1 if i < extra else 0),
            )
        )
    return SyntheticScenario(blocks=blocks)


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
    band: tuple[float, float] = (20.0, 200.0),
    n_tones: int = 32,
    rng: np.random.Generator | None = None,
) -> EmgRecording:
    """Band-limited random signal whose per-channel MAV tracks the mixing.

    Each channel is a sum of random-frequency, random-phase tones inside
    ``band``, rescaled so its mean absolute value over the recording
    equals the mixing model's clean feature value for the requested
    activation. Meant for exercising the windowing and MAV path end to
    end, not as a physiological simulation.
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
        freqs = rng.uniform(band[0], band[1], size=n_tones)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_tones)
        signal = np.sin(2.0 * np.pi * freqs[None, :] * t[:, None] + phases[None, :]).sum(axis=1)
        level = np.mean(np.abs(signal))
        if targets[ch] > 0 and level > 0:
            channels[:, ch] = signal * (targets[ch] / level)
    return EmgRecording(channels, sample_rate)
