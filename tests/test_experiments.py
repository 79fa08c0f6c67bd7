"""Scaling scans and the strongly-convex rate harness."""

import numpy as np
import pytest

from sosarp.experiments import (ScanConfig, convex_rate, scan_delta,
                                scan_tensor)
from sosarp.tensor_poly import min_eigenvalue


class TestScanConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n=5),
        dict(p=5),
        dict(seeds=0),
        dict(delta=0.0),
        dict(delta=1.5),
        dict(scale=-1.0),
        dict(scales=()),
        dict(scales=(1.0, -2.0)),
        dict(deltas=(0.0,)),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScanConfig(**kwargs)

    def test_lists_required_per_scan(self):
        with pytest.raises(ValueError, match="scales"):
            scan_tensor(ScanConfig())
        with pytest.raises(ValueError, match="deltas"):
            scan_delta(ScanConfig())


class TestScans:
    def test_deterministic_given_seed(self):
        config = ScanConfig(seeds=2, seed=5, scales=(1.0, 10.0))
        first = scan_tensor(config)
        second = scan_tensor(config)
        assert first.slope == second.slope
        assert [(r.row, r.x, r.seed, r.sigma_bar) for r in first.rows] == \
               [(r.row, r.x, r.seed, r.sigma_bar) for r in second.rows]

    def test_rows_carry_cells_summaries_and_slope(self):
        config = ScanConfig(seeds=2, seed=0, scales=(1.0, 10.0))
        result = scan_tensor(config)
        cells = [r for r in result.rows if r.row == "cell"]
        summaries = [r for r in result.rows if r.row == "summary"]
        assert len(cells) == 4 and len(summaries) == 2
        assert all(r.slope is None for r in cells)
        assert all(r.slope == result.slope for r in summaries)
        assert result.failure_count == 0
        # the summary is the geometric mean of its cells
        for summary in summaries:
            values = [c.sigma_bar for c in cells if c.x == summary.x]
            assert summary.sigma_bar == pytest.approx(
                float(np.exp(np.mean(np.log(values)))), rel=1e-12)

    def test_single_x_value_yields_no_slope(self):
        result = scan_tensor(ScanConfig(seeds=2, scales=(5.0,)))
        assert result.slope is None
        assert all(r.slope is None for r in result.rows)
        assert len(result.rows) == 3

    def test_growth_with_magnitude_is_superlinear(self):
        result = scan_tensor(ScanConfig(seeds=3, scales=(1.0, 100.0)))
        assert result.slope is not None and result.slope > 1.0

    def test_delta_scan_reuses_tensor_and_decays(self):
        config = ScanConfig(seeds=3, deltas=(1e-2, 1.0))
        result = scan_delta(config)
        assert result.slope is not None and result.slope < 0.0
        summaries = {r.x: r.sigma_bar for r in result.rows
                     if r.row == "summary"}
        assert summaries[1e-2] > summaries[1.0]


class TestShiftedModels:
    def test_hessian_margin_is_exact(self):
        from sosarp.experiments import _draw_base, _model_at_delta
        rng = np.random.default_rng(0)
        g, H, higher = _draw_base(rng, 3, 3, 2.0)
        model = _model_at_delta(g, H, higher, 0.125, 3)
        lam, _ = min_eigenvalue(model.H_bar)
        assert lam == pytest.approx(0.125, abs=1e-12)
        assert np.max(np.abs(higher[0].to_dense())) == pytest.approx(2.0)


class TestRateHarness:
    def test_refuses_unflagged_problems(self, bundled):
        with pytest.raises(ValueError, match="strongly convex"):
            convex_rate(bundled["cubic_quartic"], [1e-2])

    def test_counts_and_gaps(self, bundled):
        points = convex_rate(bundled["quartic_sc2"], [1e-1, 1e-2], p=3,
                             x0=np.array([1.0, -1.0]))
        assert [pt.epsilon for pt in points] == [1e-1, 1e-2]
        for pt in points:
            assert pt.result.status.value == "Converged"
            assert pt.successful_iterations <= pt.total_iterations
            assert len(pt.f_gaps) == pt.successful_iterations
            assert all(gap >= -1e-12 for gap in pt.f_gaps)
            assert pt.f_gaps == sorted(pt.f_gaps, reverse=True)

    def test_empty_epsilon_list_rejected(self, bundled):
        with pytest.raises(ValueError, match="nonempty"):
            convex_rate(bundled["quartic_sc2"], [])
