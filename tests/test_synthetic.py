"""Synthetic feature generation from the linear mixing model."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmyo.errors import DimensionError
from qmyo.evaluation import block_errors, run_starts
from qmyo.features import mav, segment_windows
from qmyo.operators import Direction, Dof, MovementPhase, train
from qmyo.state import QuantumState, encode_rows, inner_product
from qmyo.synthetic import (
    MixingModel,
    ScenarioBlock,
    default_mixing_model,
    default_scenario,
    generate_features,
    generate_raw_emg,
    generate_test_scenario,
    generate_training_set,
    matched_operating_point,
    matched_scenario,
    orthogonal_mixing_model,
    theta_max_of_model,
)

D1 = Dof.FLEXION_EXTENSION
D2 = Dof.RADIAL_ULNAR
D3 = Dof.PRONATION_SUPINATION
POS = Direction.POSITIVE
NEG = Direction.NEGATIVE


def tiny_model(noise_sigma=0.0, seed=0):
    mixing = np.array(
        [
            [1.0, 0.0, 0.2, 0.0],
            [0.0, 1.0, 0.0, 0.2],
            [0.1, 0.1, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return MixingModel(mixing=mixing, dofs=(D1, D3), noise_sigma=noise_sigma, seed=seed)


class TestMixingModelValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MixingModel(mixing=np.array([[-1.0, 1.0], [1.0, 1.0]]), dofs=(D1,))

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            MixingModel(mixing=np.array([[1.0, 0.0], [1.0, 0.0]]), dofs=(D1,))

    def test_parallel_columns_rejected(self):
        with pytest.raises(ValueError):
            MixingModel(mixing=np.array([[1.0, 2.0], [1.0, 2.0]]), dofs=(D1,))

    def test_column_count_must_match_dofs(self):
        with pytest.raises(Exception):
            MixingModel(mixing=np.eye(4)[:, :3], dofs=(D1, D3))

    @pytest.mark.parametrize("mixing, dofs, error, message", [
        (np.ones(2), (D1,), DimensionError, r"mixing must be 2-D, got ndim=1"),
        (np.eye(4), (D1, D1), ValueError, r"dofs must be non-empty and unique, got .*"),
        (np.eye(2), (), ValueError, r"dofs must be non-empty and unique, got \(\)"),
    ])
    def test_mixing_shape_and_dofs_checked(self, mixing, dofs, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            MixingModel(mixing=mixing, dofs=dofs)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_negative_or_nan_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            tiny_model(noise_sigma=sigma)

    def test_column_lookup(self):
        model = tiny_model()
        np.testing.assert_array_equal(model.column(D3, NEG), [0.0, 0.2, 0.0, 1.0])
        with pytest.raises(ValueError):
            model.column(D1, Direction.REST)


class TestGenerateFeatures:
    def test_noiseless_single_dof_is_the_column(self):
        model = tiny_model()
        windows, clipped = generate_features(model, {D1: 20.0}, 3)
        assert clipped == 0
        for fv in windows:
            np.testing.assert_allclose(fv.values, 20.0 * model.column(D1, POS), atol=1e-12)

    def test_negative_angle_uses_negative_column(self):
        model = tiny_model()
        windows, _ = generate_features(model, {D1: -15.0}, 1)
        np.testing.assert_allclose(windows[0].values, 15.0 * model.column(D1, NEG), atol=1e-12)

    def test_rest_produces_zero_vector(self):
        model = tiny_model()
        windows, _ = generate_features(model, {D1: 0.0, D3: 0.0}, 1)
        assert not windows[0].values.any()

    def test_combined_superposition(self):
        model = tiny_model()
        windows, _ = generate_features(model, {D1: 20.0, D3: 10.0}, 1)
        expected = 20.0 * model.column(D1, POS) + 10.0 * model.column(D3, POS)
        np.testing.assert_allclose(windows[0].values, expected, atol=1e-12)

    def test_noise_is_reproducible(self):
        a, _ = generate_features(tiny_model(noise_sigma=0.5, seed=9), {D1: 10.0}, 5)
        b, _ = generate_features(tiny_model(noise_sigma=0.5, seed=9), {D1: 10.0}, 5)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_clipping_counted_and_non_negative(self):
        model = tiny_model(noise_sigma=5.0, seed=1)
        windows, clipped = generate_features(model, {D1: 1.0}, 200)
        assert clipped > 0
        assert all(np.all(fv.values >= 0.0) for fv in windows)

    def test_unknown_dof_rejected(self):
        with pytest.raises(ValueError):
            generate_features(tiny_model(), {D2: 5.0}, 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
            generate_features(tiny_model(), {D1: 5.0}, -1)


class TestSingleDofRayProperty:
    def test_angles_encode_to_the_same_state(self):
        model = tiny_model()
        a, _ = generate_features(model, {D1: 7.0}, 1)
        b, _ = generate_features(model, {D1: 33.0}, 1)
        states, _ = encode_rows(np.stack([a[0].values, b[0].values]))
        ip = inner_product(QuantumState(states[0]), QuantumState(states[1]))
        assert ip == pytest.approx(1.0, abs=1e-12)


class TestGenerateTrainingSet:
    def test_per_action_counts_multiply_out(self):
        model = tiny_model()
        assert len(generate_training_set(model, 500)) == 2000
        assert len(generate_training_set(model, 2000)) == 8000

    def test_reproducible(self):
        a = generate_training_set(tiny_model(noise_sigma=0.2), 10)
        b = generate_training_set(tiny_model(noise_sigma=0.2), 10)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.features.values, sb.features.values)
            assert sa.angle == sb.angle

    def test_interleaved_prefixes_stay_balanced(self):
        samples = generate_training_set(tiny_model(), 25)
        prefix = samples[:40]
        counts = {}
        for s in prefix:
            counts[(s.dof, s.direction)] = counts.get((s.dof, s.direction), 0) + 1
        assert set(counts.values()) == {10}

    def test_single_dof_per_sample_with_angle_in_range(self):
        for s in generate_training_set(tiny_model(), 50, (5.0, 40.0)):
            assert 5.0 <= s.angle <= 40.0
            assert s.movement_phase is MovementPhase.DIRECT

    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            generate_training_set(tiny_model(), 5, (0.0, 40.0))
        with pytest.raises(ValueError):
            generate_training_set(tiny_model(), 5, (5.0, np.inf))
        with pytest.raises(ValueError):
            generate_training_set(tiny_model(), 0)


class TestGenerateTestScenario:
    def test_default_scenario_counts(self):
        model = default_mixing_model()
        scenario = default_scenario()
        assert sum(b.n_windows for b in scenario) == 8216
        assert len(scenario) == 55
        test_set = generate_test_scenario(model, scenario)
        assert len(test_set.features) == 8216
        assert len(run_starts(test_set.block_ids)) == 55
        assert len(test_set.block_ids) == 8216

    def test_single_constant_block_reduces_to_generate_features(self):
        model = tiny_model()
        scenario = [ScenarioBlock(angles={D1: (12.0, 12.0)}, n_windows=4)]
        test_set = generate_test_scenario(model, scenario)
        expected, _ = generate_features(model, {D1: 12.0}, 1)
        for fv in test_set.features:
            np.testing.assert_allclose(fv.values, expected[0].values, atol=1e-12)
        np.testing.assert_array_equal(test_set.truth, [[12.0, 0.0, 0.0]] * 4)

    def test_ramp_profile(self):
        scenario = [ScenarioBlock(angles={D1: (10.0, 30.0)}, n_windows=5)]
        test_set = generate_test_scenario(tiny_model(), scenario)
        np.testing.assert_allclose(test_set.truth[:, 0], [10.0, 15.0, 20.0, 25.0, 30.0])

    def test_intended_directions(self):
        scenario = [
            ScenarioBlock(angles={D1: (10.0, 20.0), D3: (-5.0, -1.0)}, n_windows=2),
            ScenarioBlock(angles={}, n_windows=2),
        ]
        test_set = generate_test_scenario(tiny_model(), scenario)
        np.testing.assert_array_equal(test_set.block_ids, [0, 0, 1, 1])
        # windows decoded as block 0: d1 positive, d3 negative; block 1: rest
        decoded = {D1: np.array([1.0, 1.0, 0.0, 0.0]), D3: np.array([-1.0, -1.0, 0.0, 0.0])}
        truth = {D1: test_set.truth[:, 0], D3: test_set.truth[:, 2]}
        report = block_errors(truth, decoded, test_set.block_ids)
        assert report.misclassified_blocks == []
        flipped = {dof: -values for dof, values in decoded.items()}
        report = block_errors(truth, flipped, test_set.block_ids)
        assert report.misclassified_blocks == [0]

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            generate_test_scenario(tiny_model(), [])

    @pytest.mark.parametrize("n_blocks, total_windows", [(0, 10), (11, 10)])
    def test_both_builders_reject_an_impossible_split(self, n_blocks, total_windows):
        theta = {(d, dd): 40.0 for d in (D1, D3) for dd in (POS, NEG)}
        with pytest.raises(ValueError, match="cannot spread"):
            default_scenario((D1, D3), n_blocks, total_windows)
        with pytest.raises(ValueError, match="cannot spread"):
            matched_scenario(tiny_model(), theta, n_blocks, total_windows)

    def test_sign_change_within_block_rejected(self):
        with pytest.raises(ValueError):
            ScenarioBlock(angles={D1: (-5.0, 5.0)}, n_windows=3)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="^block needs at least 1 window, got 0$"):
            ScenarioBlock(angles={D1: (5.0, 5.0)}, n_windows=0)

    def test_both_builders_need_two_dofs(self):
        one_dof = MixingModel(mixing=np.eye(2), dofs=(D1,))
        with pytest.raises(ValueError, match="^the default scenario needs at least two DOFs$"):
            default_scenario((D1,))
        with pytest.raises(ValueError, match="^the matched scenario needs at least two DOFs$"):
            matched_scenario(one_dof, {(D1, POS): 40.0, (D1, NEG): 40.0})

    def test_deterministic(self):
        model = tiny_model(noise_sigma=0.3, seed=4)
        scenario = default_scenario(dofs=(D1, D3), n_blocks=6, total_windows=60)
        a = generate_test_scenario(model, scenario)
        b = generate_test_scenario(model, scenario)
        for fa, fb in zip(a.features, b.features):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_noiseless_clip_count_is_zero(self):
        model = tiny_model()
        scenario = default_scenario(dofs=(D1, D3), n_blocks=6, total_windows=60)
        assert generate_test_scenario(model, scenario).n_clipped == 0

    def test_three_dof_cycles_pair_each_dof_with_the_next(self):
        scenario = default_scenario(dofs=(D1, D2, D3), n_blocks=44, total_windows=440)
        moved = [set().union(*(b.angles for b in scenario[c * 11:(c + 1) * 11]))
                 for c in range(4)]
        assert moved == [{D1, D2}, {D2, D3}, {D3, D1}, {D1, D2}]

    def test_two_dof_cycles_keep_one_pair(self):
        scenario = default_scenario(dofs=(D3, D1), n_blocks=22, total_windows=220)
        assert scenario[0].angles.keys() == {D3}
        assert scenario[11 + 1].angles.keys() == {D1}
        assert all(b.angles.keys() <= {D1, D3} for b in scenario)


class TestDefaultModels:
    def test_default_masking_geometry(self):
        model = default_mixing_model()
        assert model.n_channels == 8
        assert model.dofs == (D1, D3)
        # pronation-supination columns are deliberately weaker
        d1_norm = np.linalg.norm(model.column(D1, POS))
        d3_norm = np.linalg.norm(model.column(D3, POS))
        assert d3_norm < d1_norm
        # flexion-extension bleeds onto the weak DOF's dominant channels
        assert np.all(model.column(D1, POS)[[4, 5, 6, 7]] > 0)

    def test_orthogonal_model_columns(self):
        model = orthogonal_mixing_model()
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(model.mixing[:, i] @ model.mixing[:, j]) == 0.0

    def test_trained_overlaps_below_threshold(self):
        for model in (default_mixing_model(), orthogonal_mixing_model()):
            samples = generate_training_set(model, 20)
            trained = train(samples, model.n_channels)
            for ops in trained.dofs.values():
                assert ops.overlap < 0.3

    def test_baseline_keeps_every_entry_positive(self):
        model = default_mixing_model(baseline=0.02)
        assert np.all(model.mixing > 0)

    def test_negative_baseline_rejected(self):
        with pytest.raises(ValueError, match="^baseline must be >= 0, got -0.1$"):
            default_mixing_model(baseline=-0.1)

    def test_channel_guard(self):
        with pytest.raises(ValueError):
            default_mixing_model(n_channels=6, dofs=(D1, D2, D3))
        with pytest.raises(ValueError):
            orthogonal_mixing_model(n_channels=7)


class TestMatchedScenario:
    def test_operating_point_balances_shares(self):
        model = orthogonal_mixing_model()
        theta = {(d, dd): 40.0 for d in model.dofs for dd in (POS, NEG)}
        a1, a3 = matched_operating_point(model, theta, (D1, POS), (D3, POS))
        # equal column norms and maxima -> both at half range
        assert a1 == pytest.approx(20.0, abs=1e-12)
        assert a3 == pytest.approx(20.0, abs=1e-12)

    def test_matched_scenario_structure(self):
        model = orthogonal_mixing_model()
        samples = generate_training_set(model, 30)
        trained = train(samples, model.n_channels)
        scenario = matched_scenario(
            model, theta_max_of_model(trained), n_blocks=16, total_windows=160
        )
        assert sum(b.n_windows for b in scenario) == 160
        combined = [b for b in scenario if len(b.angles) == 2]
        singles = [b for b in scenario if len(b.angles) == 1]
        assert combined and singles

    def test_singles_only_variant(self):
        model = default_mixing_model()
        theta = {(d, dd): 40.0 for d in model.dofs for dd in (POS, NEG)}
        scenario = matched_scenario(model, theta, n_blocks=8, total_windows=80, include_combined=False)
        assert all(len(b.angles) == 1 for b in scenario)


def scenario_digest(blocks):
    """sha256 of each block's window count and its angles as ``float.hex``."""
    digest = hashlib.sha256()
    for block in blocks:
        cells = [str(block.n_windows)] + [
            f"{dof.value}={float(start).hex()},{float(end).hex()}"
            for dof, (start, end) in sorted(block.angles.items())
        ]
        digest.update((" ".join(cells) + "\n").encode())
    return digest.hexdigest()


class TestScenarioPins:
    """Block angles and window counts of both scenario builders, recorded
    before the builders shared one pattern-cycling rule."""

    @pytest.mark.parametrize("dofs, n_blocks, total_windows, want", [
        ((D1, D3), 55, 8216,
         "58ee37341f61be3ec01b52a9bf1584697d94db6ebc51c859a3f91b7a053e0734"),
        ((D1, D2, D3), 55, 8216,
         "1629e457a06f8d8cf5b8fea639e7bb90c3d7c53c328e1ac4a96d3ca23ab448be"),
        ((D1, D3), 7, 100,
         "bbf7356eaca0fcda907473761d48d335bed116b5391e82588406986643e20158"),
    ])
    def test_default_scenario(self, dofs, n_blocks, total_windows, want):
        scenario = default_scenario(dofs, n_blocks, total_windows)
        assert scenario_digest(scenario) == want

    @pytest.mark.parametrize("include_combined, want", [
        (True,
         "aa71f6474ea948454c5dfe8e4617313a90d5a536ab4830f5bafaeb661644c61e"),
        (False,
         "6a64cc42514e88fab41a455f0b0f6433ac6bb8914132d50dfebec1f0f7fa63c3"),
    ])
    def test_matched_scenario(self, include_combined, want):
        model = default_mixing_model()
        theta = {(D1, POS): 37.5, (D1, NEG): 41.25, (D3, POS): 29.0, (D3, NEG): 33.3}
        scenario = matched_scenario(model, theta, 23, 500, include_combined)
        assert scenario_digest(scenario) == want


class TestGenerateRawEmg:
    @pytest.mark.parametrize("duration_s, sample_rate", [(0.0, 1024.0), (-1.0, 1024.0), (1.0, 0.0)])
    def test_non_positive_duration_or_rate_rejected(self, duration_s, sample_rate):
        with pytest.raises(ValueError, match="^duration_s and sample_rate must be > 0$"):
            generate_raw_emg(tiny_model(), {D1: 10.0}, duration_s, sample_rate)

    def test_window_mav_tracks_mixing(self):
        model = tiny_model()
        rec = generate_raw_emg(model, {D1: 20.0}, duration_s=4.0)
        assert rec.n_channels == 4
        assert rec.sample_rate == 1024.0
        target = 20.0 * model.column(D1, POS)
        windows = segment_windows(rec, 500.0)
        for w in windows:
            np.testing.assert_allclose(mav(w).values, target, rtol=0.25, atol=0.02)

    def test_deterministic(self):
        model = tiny_model(seed=5)
        a = generate_raw_emg(model, {D1: 10.0}, duration_s=0.5)
        b = generate_raw_emg(model, {D1: 10.0}, duration_s=0.5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rest_channels_are_silent(self):
        model = orthogonal_mixing_model()
        rec = generate_raw_emg(model, {D1: 10.0}, duration_s=0.2)
        assert not rec.samples[:, 4:].any()

    def test_samples_keep_their_bits(self):
        # A 16-channel, three-DOF masking recording at seed 1 over every
        # single-DOF direction, signed DOF pair, four three-DOF mixes and a
        # silent segment; digest recorded before silent channels skipped
        # their tone sums.
        model = default_mixing_model(n_channels=16, dofs=DOFS_3, noise_sigma=0.1, seed=1)
        digest = hashlib.sha256()
        for k, angles in enumerate(raw_segments()):
            rec = generate_raw_emg(model, angles, 2.0, 1024.0, rng=np.random.default_rng([1, 7, k]))
            digest.update(rec.samples.tobytes())
        assert digest.hexdigest() == (
            "36629dcf0dfb3c87949f56acc27942e8c96e34c7075168e6a1276d111eb5dbb1"
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_per_channel_tone_sums(self, data):
        model = data.draw(raw_mixings())
        active = data.draw(st.sampled_from(["none", "all", "some"]))
        if active == "none":
            angles = {}
        else:
            dofs = model.dofs if active == "all" else data.draw(
                st.lists(st.sampled_from(model.dofs), unique=True))
            angle = st.floats(0.5, 60.0) | st.floats(-60.0, -0.5) | st.just(0.0)
            angles = {dof: data.draw(angle) for dof in dofs}
        duration = data.draw(st.sampled_from([0.05, 0.25, 1.0]))
        n_tones = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_raw_emg(model, angles, duration, n_tones, want_rng)
        got = generate_raw_emg(model, angles, duration, n_tones=n_tones, rng=rng).samples
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state
        silent = model.mixing @ reference_activation(model, angles) == 0
        assert not got[:, silent].any()

    def test_all_silent_and_all_active_recordings(self):
        model = default_mixing_model(n_channels=12, dofs=DOFS_3, baseline=0.01, seed=3)
        for angles in ({}, {D1: 15.0, D2: -20.0, D3: 5.0}):
            expected = reference_raw_emg(model, angles, 0.5, 32, np.random.default_rng(9))
            got = generate_raw_emg(model, angles, 0.5, rng=np.random.default_rng(9)).samples
            assert got.tobytes() == expected.tobytes()
            assert got.any(axis=0).all() == bool(angles)


# The per-window generators as they were before generation was batched per
# block: the vectorized generators must reproduce their draws bit for bit.
def reference_activation(model, angles):
    activation = np.zeros(2 * len(model.dofs))
    for dof, angle in angles.items():
        if dof not in model.dofs:
            raise ValueError(f"model has no mixing columns for {dof.value}")
        if angle == 0.0:
            continue
        direction = POS if angle > 0 else NEG
        activation[2 * model.dofs.index(dof) + (direction is NEG)] = abs(angle)
    return activation


def reference_features(model, angles, count, rng):
    clean = model.mixing @ reference_activation(model, angles)
    n_clipped = 0
    windows = []
    for _ in range(count):
        values = clean
        if model.noise_sigma > 0:
            values = clean + rng.normal(0.0, model.noise_sigma, size=clean.shape)
            negative = values < 0
            n_clipped += int(np.sum(negative))
            values = np.where(negative, 0.0, values)
        windows.append(values.copy())
    return windows, n_clipped


def reference_training_set(model, per_action_count, angle_range=(5.0, 40.0)):
    low, high = angle_range
    rng = np.random.default_rng([model.seed, 0])
    actions = [(dof, direction) for dof in model.dofs for direction in (POS, NEG)]
    samples = []
    for _ in range(per_action_count):
        for dof, direction in actions:
            angle = float(rng.uniform(low, high))
            signed = angle if direction is POS else -angle
            windows, _ = reference_features(model, {dof: signed}, 1, rng)
            samples.append((windows[0], dof, direction, angle))
    return samples


def reference_scenario(model, scenario):
    features, truth, block_ids, n_clipped = [], [], [], 0
    for index, block in enumerate(scenario):
        rng = np.random.default_rng([model.seed, 1, index])
        for j in range(block.n_windows):
            angles = {dof: block.angle_at(dof, j) for dof in model.dofs}
            windows, clipped = reference_features(model, angles, 1, rng)
            features.append(windows[0])
            n_clipped += clipped
            truth.append([angles.get(dof, 0.0) for dof in DOFS_3])
            block_ids.append(index)
    return features, np.array(truth), block_ids, n_clipped


DOFS_3 = (D1, D2, D3)


def raw_segments():
    """Every single-DOF direction, each DOF pair with equal and opposite
    signs, four three-DOF mixes and one silent segment."""
    singles = [{dof: sign * 30.0} for dof in DOFS_3 for sign in (1.0, -1.0)]
    pairs = [{a: 25.0, b: sign * 25.0} for a, b in ((D1, D2), (D1, D3), (D2, D3))
             for sign in (1.0, -1.0)]
    triples = [{D1: s1 * 20.0, D2: s2 * 20.0, D3: s3 * 20.0}
               for s1, s2, s3 in ((1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, -1, -1))]
    return singles + pairs + triples + [{}]


@st.composite
def raw_mixings(draw):
    """Masking, orthogonal or random sparse non-negative mixing models."""
    dofs = tuple(draw(st.lists(st.sampled_from(DOFS_3), min_size=1, unique=True)))
    geometry = draw(st.sampled_from(["masking", "orthogonal", "random"]))
    n_channels = draw(st.integers(4 * len(dofs), 4 * len(dofs) + 6))
    if geometry == "masking":
        baseline = draw(st.sampled_from([0.0, 0.004]))
        return default_mixing_model(n_channels, dofs, baseline=baseline)
    if geometry == "orthogonal":
        return orthogonal_mixing_model(n_channels, dofs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = rng.uniform(0.01, 0.1, (n_channels, 2 * len(dofs)))
    mixing *= rng.random(mixing.shape) < draw(st.floats(0.1, 1.0))
    mixing[rng.integers(n_channels, size=mixing.shape[1]), np.arange(mixing.shape[1])] = 0.05
    try:
        return MixingModel(mixing=mixing, dofs=dofs)
    except ValueError:
        assume(False)


def reference_raw_emg(model, angles, duration_s, n_tones, rng):
    """The raw generator as it was before silent channels skipped their tone
    sums: every channel's tones are summed and scaled, then kept if active."""
    sample_rate = 1024.0
    n_samples = int(duration_s * sample_rate)
    t = np.arange(n_samples) / sample_rate
    targets = model.mixing @ reference_activation(model, angles)
    channels = np.zeros((n_samples, model.n_channels))
    for ch in range(model.n_channels):
        freqs = rng.uniform(20.0, 200.0, size=n_tones)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_tones)
        signal = np.sin(2.0 * np.pi * freqs[None, :] * t[:, None] + phases[None, :]).sum(axis=1)
        level = np.mean(np.abs(signal))
        if targets[ch] > 0 and level > 0:
            channels[:, ch] = signal * (targets[ch] / level)
    return channels


def bits(rows):
    return [np.asarray(row, dtype=float).tobytes() for row in rows]


MODELS = {
    "tiny-noisy": lambda: tiny_model(noise_sigma=0.3, seed=4),
    "tiny-clipping": lambda: tiny_model(noise_sigma=5.0, seed=1),
    "tiny-noiseless": lambda: tiny_model(),
    "masking-3dof": lambda: default_mixing_model(
        n_channels=12, dofs=(D1, D2, D3), noise_sigma=0.1, seed=7
    ),
    "orthogonal-noiseless": lambda: orthogonal_mixing_model(seed=2),
}


class TestVectorisedGeneration:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_scenario_equals_per_window_draws(self, name):
        model = MODELS[name]()
        scenarios = [
            default_scenario(dofs=model.dofs, n_blocks=33, total_windows=700),
            [
                ScenarioBlock(angles={model.dofs[0]: (0.0, 10.0)}, n_windows=7),
                ScenarioBlock(angles={model.dofs[0]: (-0.0, -3.0), model.dofs[1]: (4, 9)},
                              n_windows=5),
                ScenarioBlock(angles={model.dofs[1]: (12, 30)}, n_windows=1),
                ScenarioBlock(angles={}, n_windows=40),
            ],
        ]
        for scenario in scenarios:
            features, truth, block_ids, n_clipped = reference_scenario(model, scenario)
            got = generate_test_scenario(model, scenario)
            assert bits(fv.values for fv in got.features) == bits(features)
            assert (got.truth.dtype, got.truth.shape) == (truth.dtype, truth.shape)
            assert got.truth.tobytes() == truth.tobytes()
            assert got.block_ids.tolist() == block_ids
            assert got.n_clipped == n_clipped
        if name == "tiny-clipping":
            assert n_clipped > 0

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_training_set_equals_per_sample_draws(self, name):
        model = MODELS[name]()
        expected = reference_training_set(model, 25, (3.0, 35.0))
        got = generate_training_set(model, 25, (3.0, 35.0))
        assert bits(s.features.values for s in got) == bits(e[0] for e in expected)
        assert [(s.dof, s.direction, s.angle) for s in got] == [e[1:] for e in expected]
        assert {s.movement_phase for s in got} == {MovementPhase.DIRECT}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("count", [0, 1, 6])
    def test_features_equal_per_window_draws(self, name, count):
        model = MODELS[name]()
        angles = {model.dofs[0]: -12.5, model.dofs[1]: 0.0}
        expected, clipped = reference_features(model, angles, count, np.random.default_rng(11))
        got, n_clipped = generate_features(model, angles, count, rng=np.random.default_rng(11))
        assert bits(fv.values for fv in got) == bits(expected)
        assert n_clipped == clipped
