from __future__ import annotations

import numpy as np
import pytest

from panelthresh import (
    DataError,
    PanelDataset,
    VariableRole,
    composite_index,
    make_lag,
    period_average,
    regime_indicator,
    within_transform,
)

from conftest import make_panel


class TestConstruction:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="'y' has a non-finite value at unit 'u1', period '2'$"):
            make_panel({"y": [[1.0, np.nan], [0.0, 1.0]]})
        with pytest.raises(DataError, match="non-finite value at unit 'u2', period '1'$"):
            make_panel({"y": [[1.0, 2.0], [np.inf, 1.0]]})

    def test_rejects_mismatched_shape(self):
        with pytest.raises(DataError, match="shape"):
            PanelDataset(["a", "b"], ["1", "2", "3"], {"y": [[1.0, 2.0], [3.0, 4.0]]})

    def test_rejects_tiny_panel(self):
        with pytest.raises(DataError, match="N >= 2"):
            PanelDataset(["a"], ["1", "2"], {"y": [[1.0, 2.0]]})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError, match="duplicate unit"):
            PanelDataset(["a", "a"], ["1", "2"], {"y": [[1.0, 2.0], [3.0, 4.0]]})
        with pytest.raises(DataError, match="duplicate period"):
            PanelDataset(["a", "b"], ["1", "1"], {"y": [[1.0, 2.0], [3.0, 4.0]]})

    def test_matrices_are_read_only(self):
        panel = make_panel({"y": [[1.0, 2.0], [3.0, 4.0]]})
        with pytest.raises(ValueError):
            panel.values("y")[0, 0] = 9.0

    def test_unknown_variable(self):
        panel = make_panel({"y": [[1.0, 2.0], [3.0, 4.0]]})
        with pytest.raises(DataError, match="unknown variable"):
            panel.values("z")


class TestWithinTransform:
    def test_single_row_mean_subtraction(self):
        panel = make_panel({"y": [[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]})
        out = within_transform(panel, ["y"])
        np.testing.assert_array_equal(out.values("y")[0], [-1.0, 0.0, 1.0])

    def test_idempotent(self):
        panel = make_panel({"y": [[-1.0, 0.0, 1.0], [2.0, 0.0, -2.0]]})
        once = within_transform(panel, ["y"])
        twice = within_transform(once, ["y"])
        np.testing.assert_array_equal(once.values("y"), twice.values("y"))

    def test_two_unit_hand_computation(self):
        panel = make_panel({"y": [[4.0, 4.0, 4.0], [0.0, 3.0, 6.0]]})
        out = within_transform(panel, ["y"])
        np.testing.assert_allclose(out.values("y"), [[0, 0, 0], [-3, 0, 3]], atol=1e-15)

    def test_zero_unit_means(self, rng):
        panel = make_panel({"y": rng.standard_normal((5, 9)) * 100})
        out = within_transform(panel, ["y"])
        assert np.abs(out.values("y").mean(axis=1)).max() < 1e-10

    def test_linearity(self, rng):
        x = rng.standard_normal((3, 6))
        z = rng.standard_normal((3, 6))
        a, b = 2.5, -1.25
        combo = within_transform(make_panel({"v": a * x + b * z}), ["v"]).values("v")
        tx = within_transform(make_panel({"v": x}), ["v"]).values("v")
        tz = within_transform(make_panel({"v": z}), ["v"]).values("v")
        np.testing.assert_allclose(combo, a * tx + b * tz, atol=1e-10)

    def test_untouched_variables_copied(self, rng):
        panel = make_panel({"y": rng.standard_normal((3, 4)), "x": rng.standard_normal((3, 4))})
        out = within_transform(panel, ["y"])
        np.testing.assert_array_equal(out.values("x"), panel.values("x"))

    def test_unknown_variable(self, rng):
        panel = make_panel({"y": rng.standard_normal((3, 4))})
        with pytest.raises(DataError):
            within_transform(panel, ["nope"])


class TestMakeLag:
    def test_shift_by_one(self):
        panel = make_panel({"v": [[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]]})
        out = make_lag(panel, "v", 1)
        assert out.periods == ("2", "3")
        np.testing.assert_array_equal(out.values("v")[0], [20.0, 30.0])
        np.testing.assert_array_equal(out.values("v_lag1")[0], [10.0, 20.0])

    def test_k_equals_t_errors(self):
        panel = make_panel({"v": [[1.0, 2.0], [3.0, 4.0]]})
        with pytest.raises(DataError, match="no observations"):
            make_lag(panel, "v", 2)

    def test_study_period_shape(self, rng):
        panel = make_panel({"v": rng.standard_normal((8, 36))})
        out = make_lag(panel, "v", 1)
        assert (out.n_units, out.n_periods) == (8, 35)

    def test_name_collision(self):
        panel = make_panel({"v": [[1.0, 2.0, 3.0]] * 2, "v_lag1": [[0.0, 0.0, 0.0]] * 2})
        with pytest.raises(DataError, match="already exists"):
            make_lag(panel, "v", 1)


class TestPeriodAverage:
    def test_block_mean_with_remainder_dropped(self):
        # first block [1..5] averages to 3; the trailing remainder is dropped
        row = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
        panel = make_panel({"v": [row] * 2})
        out = period_average(panel, 5)
        assert out.n_periods == 2
        np.testing.assert_array_equal(out.values("v"), [[3.0, 8.0], [3.0, 8.0]])

    def test_result_must_keep_two_periods(self):
        panel = make_panel({"v": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]] * 2})
        with pytest.raises(DataError, match="at least 2"):
            period_average(panel, 5)

    def test_k1_identity(self, rng):
        panel = make_panel({"v": rng.standard_normal((3, 5))})
        out = period_average(panel, 1)
        assert out.equals(panel)
        assert out.periods == panel.periods

    def test_quinquennial_shape(self, rng):
        panel = make_panel({"v": rng.standard_normal((8, 36))})
        assert period_average(panel, 5).n_periods == 7

    def test_k_too_large(self, rng):
        panel = make_panel({"v": rng.standard_normal((2, 4))})
        with pytest.raises(DataError, match="exceeds"):
            period_average(panel, 5)

    def test_grand_mean_preserved(self, rng):
        mat = rng.standard_normal((4, 17))
        panel = make_panel({"v": mat})
        out = period_average(panel, 5)
        retained = mat[:, :15]
        assert abs(out.values("v").mean() - retained.mean()) < 1e-12


class TestRegimeIndicator:
    def test_boundary_inclusive(self):
        panel = make_panel({"q": [[5.0, 12.741, 20.0]] * 2})
        ind = regime_indicator(panel, "q", 12.741)
        np.testing.assert_array_equal(ind[0], [1.0, 1.0, 0.0])

    def test_all_zeros_below_min(self, rng):
        panel = make_panel({"q": rng.uniform(5, 10, (3, 4))})
        assert regime_indicator(panel, "q", 4.9).sum() == 0

    def test_all_ones_at_max(self, rng):
        q = rng.uniform(5, 10, (3, 4))
        panel = make_panel({"q": q})
        assert regime_indicator(panel, "q", q.max()).sum() == q.size

    def test_partition_exact(self, rng):
        panel = make_panel({"q": rng.standard_normal((4, 6))})
        ind = regime_indicator(panel, "q", 0.3)
        np.testing.assert_array_equal(ind + (1.0 - ind), np.ones((4, 6)))


class TestCompositeIndex:
    def test_equal_weight_mean(self):
        panel = make_panel({"a": [[2.0, 2.0]] * 2, "b": [[4.0, 4.0]] * 2})
        out = composite_index(panel, ["a", "b"], [1.0, 1.0], "idx")
        np.testing.assert_array_equal(out.values("idx"), [[3.0, 3.0]] * 2)

    def test_zero_weight_component_ignored(self):
        panel = make_panel({"a": [[7.0, 1.0]] * 2, "b": [[100.0, -5.0]] * 2})
        out = composite_index(panel, ["a", "b"], [2.0, 0.0], "idx")
        np.testing.assert_array_equal(out.values("idx"), panel.values("a"))

    def test_four_components(self):
        mats = {f"v{k}": [[float(k), float(k)]] * 2 for k in (1, 2, 3, 4)}
        panel = make_panel(mats)
        out = composite_index(panel, ["v1", "v2", "v3", "v4"], [1.0] * 4, "idx")
        np.testing.assert_allclose(out.values("idx"), 2.5)

    def test_length_mismatch(self):
        panel = make_panel({"a": [[1.0, 2.0]] * 2})
        with pytest.raises(DataError, match="weights"):
            composite_index(panel, ["a"], [1.0, 2.0], "idx")

    def test_zero_weights(self):
        panel = make_panel({"a": [[1.0, 2.0]] * 2})
        with pytest.raises(DataError, match="positive"):
            composite_index(panel, ["a"], [0.0], "idx")

    def test_name_collision(self):
        # an existing variable is not overwritten, as make_lag's name is not
        panel = make_panel({"a": [[1.0, 2.0]] * 2, "b": [[3.0, 4.0]] * 2})
        with pytest.raises(DataError, match="variable 'a' already exists"):
            composite_index(panel, ["b"], [1.0], "a")

    def test_empty_components(self):
        panel = make_panel({"a": [[1.0, 2.0]] * 2})
        with pytest.raises(DataError, match="components must not be empty"):
            composite_index(panel, [], [], "idx")


def test_lag_then_within_matches_manual(rng):
    mat = rng.standard_normal((2, 4))
    panel = make_panel({"v": mat})
    out = within_transform(make_lag(panel, "v", 1), ["v_lag1"])
    manual = mat[:, :3] - mat[:, :3].mean(axis=1, keepdims=True)
    np.testing.assert_allclose(out.values("v_lag1"), manual, atol=1e-12)


class TestVariableRole:
    def test_dependent_overlap_rejected(self):
        with pytest.raises(DataError, match="another role"):
            VariableRole("y", "y", ["x"])

    def test_threshold_may_be_regime_varying(self):
        roles = VariableRole("y", "q", ["q", "x"])
        assert "q" in roles.regime_varying

    def test_validate_missing_names(self, rng):
        panel = make_panel({"y": rng.standard_normal((2, 3)), "q": rng.standard_normal((2, 3))})
        roles = VariableRole("y", "q", ["x"])
        with pytest.raises(DataError, match="not in panel"):
            roles.validate(panel)
