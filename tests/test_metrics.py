"""Selection and estimation metrics against simulation truth."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivas.exceptions import DegenerateLabels, DimensionMismatch
from bivas.metrics import auc, coef_mse, fdr_power


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_mixed_case_enumerated(self):
        # pairs: (0.9, 0.8) win, (0.9, 0.1) win, (0.3, 0.8) loss,
        # (0.3, 0.1) win -> 3/4
        assert auc([0.9, 0.3, 0.8, 0.1], [1, 1, 0, 0]) == 0.75

    def test_half_credit_for_ties(self):
        # one clean win, one tie -> (1 + 0.5) / 2
        assert auc([0.7, 0.7, 0.2], [1, 0, 0]) == pytest.approx(0.75)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=2,
                    max_size=40),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_pairwise_definition_on_ties(self, levels, seed):
        # five score levels, so most positive-negative pairs tie
        labels = np.random.default_rng(seed).integers(0, 2, len(levels)) > 0
        labels[:2] = True, False
        scores = np.asarray(levels, float) / 4.0
        pos, neg = scores[labels][:, None], scores[~labels][None, :]
        want = np.mean(pos > neg) + 0.5 * np.mean(pos == neg)
        assert auc(scores, labels) == pytest.approx(want, abs=1e-12)

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc([0.9, np.nan, 0.1], [1, 0, 0]))

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            auc([0.1, 0.2], [1, 0, 1])

    @given(st.lists(st.integers(min_value=-50_000, max_value=50_000),
                    min_size=4, max_size=60),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_increasing_transform(self, grid_scores, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, len(grid_scores))
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        # lattice scores keep the transforms strictly increasing in floats
        scores = np.asarray(grid_scores, float) / 1000.0
        base = auc(scores, labels)
        for transform in (lambda s: 3.0 * s + 7.0,
                          lambda s: np.exp(s / 25.0),
                          lambda s: np.arctan(s)):
            assert auc(transform(scores), labels) \
                == pytest.approx(base, abs=1e-12)


class TestFdrPower:
    @staticmethod
    def _mask(shape, *selected):
        mask = np.zeros(shape, bool)
        for at in selected:
            mask[at] = True
        return mask

    def test_all_correct(self):
        mask = np.ones(3, bool)
        fdr, power = fdr_power(mask, mask)
        assert fdr == 0.0 and power == 1.0

    def test_empty_selection(self):
        fdr, power = fdr_power(np.zeros(3, bool), np.ones(3, bool))
        assert fdr == 0.0 and power == 0.0

    def test_half_false(self):
        fdr, power = fdr_power(self._mask(100, 0, 99),
                               self._mask(100, *range(10)))
        assert fdr == 0.5
        assert power == pytest.approx(0.1)

    def test_count_identities(self):
        rng = np.random.default_rng(0)
        truth = rng.random(50) < 0.3
        selected = rng.random(50) < 0.4
        fdr, power = fdr_power(selected, truth)
        tp = int((selected & truth).sum())
        assert power * truth.sum() == pytest.approx(tp)
        assert fdr * max(1, selected.sum()) == pytest.approx(selected.sum() - tp)

    def test_boolean_masks(self):
        sel = np.array([True, False, True, False])
        tru = np.array([True, True, False, False])
        fdr, power = fdr_power(sel, tru)
        assert fdr == 0.5 and power == 0.5

    def test_multitask_masks(self):
        # (feature, task) masks of a multi-task model's (K, L) layout
        sel = self._mask((3, 3), (0, 0), (1, 2))
        tru = self._mask((3, 3), (0, 0), (2, 1))
        fdr, power = fdr_power(sel, tru)
        assert fdr == 0.5 and power == 0.5

    def test_empty_multitask_masks(self):
        # a multi-task selection of nothing, or a truth with no nonzero
        # coefficient
        empty = np.zeros((4, 2), bool)
        pairs = self._mask((4, 2), (0, 1), (3, 0))
        assert fdr_power(empty, pairs) == (0.0, 0.0)
        assert fdr_power(pairs, empty) == (1.0, 0.0)
        assert fdr_power(empty, empty) == (0.0, 0.0)

    def test_masks_of_one_shape_required(self):
        with pytest.raises(DimensionMismatch):
            fdr_power(np.zeros(6, bool), np.zeros((3, 2), bool))
        # index arrays are not masks
        with pytest.raises(DimensionMismatch):
            fdr_power(np.array([0, 1, 2]), np.array([0, 1, 2]))


class TestCoefMse:
    def test_exact_recovery(self):
        x = np.array([0.0, 1.5, -2.0])
        assert coef_mse(x, x) == 0.0

    def test_zero_estimate_support_scaling(self):
        truth = np.array([0.0, 0.0, 3.0, -1.0])
        # mean of beta^2 over the support, scaled by the support fraction
        expected = (9.0 + 1.0) / 4.0
        assert coef_mse(np.zeros(4), truth) == pytest.approx(expected)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        direct = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / 40.0
        assert coef_mse(a, b) == pytest.approx(direct, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            coef_mse(np.zeros(3), np.zeros(4))

    def test_matrix_inputs(self):
        a = np.zeros((3, 2))
        b = np.ones((3, 2))
        assert coef_mse(a, b) == 1.0
