"""Performance indices and block error accounting."""

import numpy as np
import pytest

from qmyo.errors import UndefinedDenominatorError
from qmyo.evaluation import block_errors, r_squared_dof, r_squared_global
from qmyo.operators import Direction, Dof

D1 = Dof.FLEXION_EXTENSION
D3 = Dof.PRONATION_SUPINATION

POS = Direction.POSITIVE
NEG = Direction.NEGATIVE


def brute_force_r2(truth, estimate):
    """Independent plain-Python evaluation of the per-DOF index."""
    mean = sum(truth) / len(truth)
    sse = sum((e - t) ** 2 for t, e in zip(truth, estimate))
    tss = sum((t - mean) ** 2 for t in truth)
    return 1.0 - sse / tss


def brute_force_global(truth_map, estimate_map):
    sse = 0.0
    tss = 0.0
    for dof in truth_map:
        truth = list(truth_map[dof])
        estimate = list(estimate_map[dof])
        mean = sum(truth) / len(truth)
        sse += sum((e - t) ** 2 for t, e in zip(truth, estimate))
        tss += sum((t - mean) ** 2 for t in truth)
    return 1.0 - sse / tss


class TestRSquaredDof:
    def test_perfect_estimate(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert r_squared_dof(truth, truth) == 1.0

    def test_mean_predictor_scores_zero(self):
        truth = np.array([0.0, 1.0, 2.0, 3.0])
        estimate = np.full(4, truth.mean())
        assert r_squared_dof(truth, estimate) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        truth = np.array([0.0, 1.0, 2.0, 3.0])
        estimate = np.array([0.0, 1.0, 2.0, 5.0])
        assert r_squared_dof(truth, estimate) == pytest.approx(0.2, abs=1e-15)

    def test_can_be_negative(self):
        truth = np.array([0.0, 1.0])
        estimate = np.array([5.0, -5.0])
        assert r_squared_dof(truth, estimate) < 0.0

    def test_constant_truth_undefined(self):
        with pytest.raises(UndefinedDenominatorError):
            r_squared_dof(np.full(5, 2.0), np.zeros(5))

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            truth = rng.normal(size=20)
            estimate = rng.normal(size=20)
            value = r_squared_dof(truth, estimate)
            assert value <= 1.0
            assert (value == 1.0) == bool(np.all(truth == estimate))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            truth = rng.normal(scale=10.0, size=n)
            estimate = truth + rng.normal(size=n)
            assert r_squared_dof(truth, estimate) == pytest.approx(
                brute_force_r2(truth, estimate), abs=1e-12
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=30)
        estimate = truth + rng.normal(size=30)
        base = r_squared_dof(truth, estimate)
        shifted = r_squared_dof(truth + 123.25, estimate + 123.25)
        assert shifted == pytest.approx(base, abs=1e-12)


class TestRSquaredGlobal:
    def test_all_perfect(self):
        truth = {D1: np.array([1.0, 2.0]), D3: np.array([3.0, 1.0])}
        assert r_squared_global(truth, truth) == 1.0

    def test_single_dof_reduces_to_per_dof(self):
        truth = {D1: np.array([0.0, 1.0, 2.0, 3.0])}
        estimate = {D1: np.array([0.0, 1.0, 2.0, 5.0])}
        assert r_squared_global(truth, estimate) == pytest.approx(
            r_squared_dof(truth[D1], estimate[D1]), abs=1e-15
        )

    def test_pooled_not_averaged(self):
        # equal denominators, per-DOF values 0.2 and 1.0 -> pooled 0.6
        truth = {
            D1: np.array([0.0, 1.0, 2.0, 3.0]),
            D3: np.array([10.0, 11.0, 12.0, 13.0]),
        }
        estimate = {
            D1: np.array([0.0, 1.0, 2.0, 5.0]),
            D3: truth[D3].copy(),
        }
        assert r_squared_dof(truth[D1], estimate[D1]) == pytest.approx(0.2, abs=1e-15)
        assert r_squared_dof(truth[D3], estimate[D3]) == 1.0
        assert r_squared_global(truth, estimate) == pytest.approx(0.6, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            truth = {d: rng.normal(scale=5.0, size=n) for d in (D1, D3)}
            estimate = {d: truth[d] + rng.normal(size=n) for d in (D1, D3)}
            assert r_squared_global(truth, estimate) == pytest.approx(
                brute_force_global(truth, estimate), abs=1e-12
            )

    def test_one_constant_dof_is_fine_when_pooled(self):
        truth = {D1: np.array([1.0, 1.0]), D3: np.array([0.0, 2.0])}
        estimate = {D1: np.array([1.0, 1.0]), D3: np.array([0.0, 2.0])}
        assert r_squared_global(truth, estimate) == 1.0

    def test_all_constant_truth_undefined(self):
        truth = {D1: np.full(3, 1.0), D3: np.full(3, 2.0)}
        with pytest.raises(UndefinedDenominatorError):
            r_squared_global(truth, truth)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        truth = {d: rng.normal(size=20) for d in (D1, D3)}
        estimate = {d: truth[d] + rng.normal(size=20) for d in (D1, D3)}
        base = r_squared_global(truth, estimate)
        shifted = r_squared_global(
            {d: truth[d] - 55.5 for d in truth},
            {d: estimate[d] - 55.5 for d in estimate},
        )
        assert shifted == pytest.approx(base, abs=1e-12)


def looped_indices(truth_map, estimate_map):
    """Per-DOF and pooled indices as a plain loop of numpy dot products over
    the sorted DOFs, each pooled sum added left to right."""
    per_dof, sse, tss = {}, 0.0, 0.0
    for dof in sorted(truth_map):
        errors = estimate_map[dof] - truth_map[dof]
        deviations = truth_map[dof] - truth_map[dof].mean()
        per_dof[dof] = 1.0 - float(errors @ errors) / float(deviations @ deviations)
        sse += float(errors @ errors)
        tss += float(deviations @ deviations)
    return per_dof, 1.0 - sse / tss


class TestIndicesEqualAPlainLoop:
    def test_bit_for_bit_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            dofs = list(rng.permutation(list(Dof))[: int(rng.integers(1, 4))])
            n = int(rng.integers(2, 60))
            # scales apart by many orders, so the order of the pooled sums shows in the bits
            truth = {d: rng.normal(size=n) * 10.0 ** rng.integers(-8, 9) for d in dofs}
            estimate = {d: truth[d] + rng.normal(size=n) * 10.0 ** rng.integers(-8, 9)
                        for d in dofs}
            per_dof, pooled = looped_indices(truth, estimate)
            for dof in dofs:
                assert r_squared_dof(truth[dof], estimate[dof]).hex() == per_dof[dof].hex()
            assert r_squared_global(truth, estimate).hex() == pooled.hex()


def ids(*sizes):
    """Block ids of consecutive blocks of the given sizes, numbered from 0."""
    return np.repeat(np.arange(len(sizes)), sizes)


class TestBlockErrors:
    def two_block_errors(self, d1_estimates):
        n = len(d1_estimates)
        half = n // 2
        truth = {D1: np.array([10.0] * half + [-10.0] * (n - half))}
        return block_errors(truth, {D1: np.array(d1_estimates)}, ids(half, n - half))

    def test_all_correct(self):
        report = self.two_block_errors([9.0, 11.0, 10.0, -9.0, -11.0, -10.0])
        assert report.error_counts[D1] == 0
        assert report.misclassified_blocks == []

    def test_flipped_majority_counts_once(self):
        report = self.two_block_errors([-9.0, -11.0, -10.0, -9.0, -11.0, -10.0])
        assert report.error_counts[D1] == 1
        assert report.misclassified_blocks == [0]

    def test_three_of_five_wrong_is_an_error(self):
        truth = {D3: np.full(5, 10.0)}
        estimate = {D3: np.array([10.0, -10.0, -10.0, -10.0, 10.0])}
        report = block_errors(truth, estimate, ids(5))
        assert report.error_counts[D3] == 1

    def test_two_of_five_wrong_is_not(self):
        truth = {D3: np.full(5, 10.0)}
        estimate = {D3: np.array([10.0, -10.0, -10.0, 10.0, 10.0])}
        assert block_errors(truth, estimate, ids(5)).error_counts[D3] == 0

    def test_window_order_within_block_is_irrelevant(self):
        rng = np.random.default_rng(5)
        estimates = np.array([12.0, -3.0, 8.0, 9.0, -1.0, 7.0])
        truth = {D1: np.full(6, 10.0)}
        base = block_errors(truth, {D1: estimates}, ids(6))
        for _ in range(10):
            shuffled = estimates.copy()
            rng.shuffle(shuffled)
            report = block_errors(truth, {D1: shuffled}, ids(6))
            assert report.error_counts == base.error_counts

    def test_rest_intended_blocks(self):
        truth = {D1: np.zeros(4)}
        estimate = {D1: np.array([0.0, 0.0, 0.0, 5.0])}
        assert block_errors(truth, estimate, ids(4)).error_counts[D1] == 0

    def test_any_vote(self):
        truth = {D1: np.full(4, 10.0)}
        estimate = {D1: np.array([10.0, 10.0, 10.0, -1.0])}
        for vote, errors in (("any", 1), ("majority", 0)):
            report = block_errors(truth, estimate, ids(4), vote)
            assert report.error_counts[D1] == errors

    def test_all_vote(self):
        truth = {D1: np.full(4, 10.0)}
        estimate = {D1: np.array([-10.0, -10.0, -10.0, 1.0])}
        for vote, errors in (("all", 0), ("majority", 1)):
            report = block_errors(truth, estimate, ids(4), vote)
            assert report.error_counts[D1] == errors

    def test_unknown_vote_rejected(self):
        with pytest.raises(ValueError, match="^unknown block_vote rule: 'plurality'$"):
            block_errors({D1: np.ones(2)}, {D1: np.ones(2)}, ids(2), "plurality")

    def test_misclassified_once_even_with_two_dof_mistakes(self):
        truth = {D1: np.full(3, 10.0), D3: np.full(3, 10.0)}
        estimate = {D1: np.full(3, -10.0), D3: np.full(3, -10.0)}
        report = block_errors(truth, estimate, ids(3))
        assert report.error_counts == {D1: 1, D3: 1}
        assert report.misclassified_blocks == [0]
        assert report.n_misclassified == 1


def per_window_vote(truth, estimate, block_ids, vote):
    """Block errors counted one window and one block at a time."""
    order = (POS, NEG, Direction.REST)

    def direction(value):
        return POS if value > 0 else NEG if value < 0 else Direction.REST

    blocks = []  # [start, stop) of each run of equal ids
    for i, block_id in enumerate(block_ids.tolist()):
        if i and block_id == block_ids[i - 1]:
            blocks[-1][1] = i + 1
        else:
            blocks.append([i, i + 1])
    dofs = sorted(truth)
    counts = {dof: 0 for dof in dofs}
    misclassified = []
    for index, (start, stop) in enumerate(blocks):
        block_wrong = False
        for dof in dofs:
            intended = direction(sum(truth[dof][start:stop].tolist()))
            votes = [direction(v) for v in estimate[dof][start:stop]]
            if vote == "any":
                wrong = any(d is not intended for d in votes)
            elif vote == "all":
                wrong = all(d is not intended for d in votes)
            else:
                tally = {d: votes.count(d) for d in order}
                wrong = max(order, key=lambda d: tally[d]) is not intended
            if wrong:
                counts[dof] += 1
                block_wrong = True
        if block_wrong:
            misclassified.append(index)
    return counts, misclassified


class TestVectorisedVote:
    @pytest.mark.parametrize("vote", ["majority", "any", "all"])
    def test_matches_per_window_vote(self, vote):
        rng = np.random.default_rng(6)
        for _ in range(200):
            sizes = rng.integers(1, 7, size=rng.integers(1, 8))
            # distinct labels in any order, so adjacent blocks differ
            block_ids = np.repeat(rng.permutation(50)[:len(sizes)], sizes)
            n = len(block_ids)
            # whole numbers sum exactly, so mixed-sign blocks often cancel to rest
            truth = {dof: rng.choice([-3.0, -1.0, 0.0, 0.0, 2.0, 3.0], size=n) for dof in (D1, D3)}
            # few distinct values, so ties between directions are common
            estimate = {dof: rng.choice([-5.0, -0.0, 0.0, 5.0], size=n) for dof in (D1, D3)}
            report = block_errors(truth, estimate, block_ids, vote)
            assert (report.error_counts, report.misclassified_blocks) == per_window_vote(
                truth, estimate, block_ids, vote
            )

    @pytest.mark.parametrize(
        "estimates, intended, wrong",
        [
            ([5.0, -5.0], POS, False),  # positive beats negative on a tie
            ([5.0, -5.0], NEG, True),
            ([-5.0, 0.0], NEG, False),  # negative beats rest
            ([-5.0, 0.0], Direction.REST, True),
            ([5.0, -5.0, 0.0], POS, False),  # three-way tie goes to positive
        ],
    )
    def test_majority_tie_order(self, estimates, intended, wrong):
        n = len(estimates)
        truth = {D1: np.full(n, {POS: 1.0, NEG: -1.0, Direction.REST: 0.0}[intended])}
        report = block_errors(truth, {D1: np.array(estimates)}, ids(n))
        assert report.error_counts[D1] == int(wrong)


class TestStructureValidation:
    """Scoring reads truth and estimate through ``r_squared_global`` first,
    which rejects trajectories that do not pair up."""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r_squared_global({D1: np.arange(4.0)}, {D1: np.zeros(5)})

    def test_dof_set_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r_squared_global({D1: np.arange(2.0)}, {D3: np.zeros(2)})
