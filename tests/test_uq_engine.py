"""Unit tests for the UQ engine core (`repro.uq.engine`, `repro.uq.reduce`).

Covers the pieces the property/golden suites exercise only end-to-end:
the zero-noise collapse onto the plain sweep (grid *and* digest), store
resume under the spec-tagged keyspace, the reduction arithmetic on
hand-built rows, and the OAT sensitivity report.
"""

import math

import pytest

from repro.analysis.sensitivity import parameter_elasticities
from repro.apps.gauss import GEConfig, build_ge_trace
from repro.core import MEIKO_CS2, CalibratedCostModel, RunningTimePredictor
from repro.experiments import ExperimentStore, PointSummary
from repro.layouts import LAYOUTS
from repro.sweep import expand_grid, run_sweep
from repro.uq import (
    UQPointSummary,
    UQSpec,
    oat_sensitivity,
    reduce_replicates,
    run_uq,
    summary_digest,
)

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()


class TestZeroNoiseCollapse:
    def test_deterministic_spec_collapses_grid_to_plain_sweep(self):
        """32 replicates of a sigma=0 study run exactly one evaluation
        per point and reproduce the plain sweep digest bit for bit."""
        result = run_uq(
            120, [24, 40], ["diagonal", "column"], PARAMS, CM,
            spec=UQSpec(), replicates=32, with_measured=False, base_seed=5,
        )
        grid = expand_grid(120, [24, 40], ["diagonal", "column"],
                           seeds=(5,), with_measured=False)
        plain = run_sweep(grid, PARAMS, CM)
        assert result.sweep.points == grid
        assert result.sweep.stats.total == len(grid)
        assert result.replicate_digest() == plain.digest()

    def test_collapsed_summaries_report_single_replicate(self):
        result = run_uq(
            120, [24], ["diagonal"], PARAMS, CM,
            spec=UQSpec(), replicates=16, with_measured=False,
        )
        (summary,) = result.summaries
        assert summary.replicates == 1
        assert summary.stat("pred_standard_total", "std") == 0.0
        assert summary.ci_width() == 0.0

    def test_stochastic_spec_expands_full_ensemble(self):
        result = run_uq(
            120, [24], ["diagonal"], PARAMS, CM,
            spec=UQSpec(sigma=0.1), replicates=8, with_measured=False,
        )
        assert result.sweep.stats.total == 8
        assert result.summaries[0].replicates == 8


class TestStoreResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        kwargs = dict(
            spec=UQSpec(sigma=0.1), replicates=5, with_measured=False,
            base_seed=3, store=tmp_path / "store",
        )
        first = run_uq(120, [24, 40], ["diagonal"], PARAMS, CM, **kwargs)
        second = run_uq(120, [24, 40], ["diagonal"], PARAMS, CM, **kwargs)
        assert first.sweep.stats.cached == 0
        assert second.sweep.stats.cached == second.sweep.stats.total
        assert second.summary_digest() == first.summary_digest()
        assert second.replicate_digest() == first.replicate_digest()

    def test_perturbed_entries_do_not_collide_with_deterministic(self, tmp_path):
        """A perturbed ensemble and a plain sweep share (n, b, layout,
        seed) keys only textually: the spec tag separates the keyspaces,
        so neither run can poison the other's cache."""
        store = tmp_path / "store"
        det = run_uq(
            120, [24], ["diagonal"], PARAMS, CM,
            spec=UQSpec(), replicates=1, with_measured=False, store=store,
        )
        noisy = run_uq(
            120, [24], ["diagonal"], PARAMS, CM,
            spec=UQSpec(sigma=0.2), replicates=1, with_measured=False,
            store=store,
        )
        assert noisy.sweep.stats.cached == 0  # no cross-tag reuse
        assert det.replicate_digest() != noisy.replicate_digest()

    def test_different_specs_use_distinct_tags(self):
        assert UQSpec().store_tag() is None
        a = UQSpec(sigma=0.1).store_tag()
        b = UQSpec(sigma=0.2).store_tag()
        assert a and b and a != b
        assert a.startswith("uq-")

    def test_extra_tag_changes_store_fingerprint(self, tmp_path):
        base = ExperimentStore(tmp_path, PARAMS, CM)
        tagged = ExperimentStore(tmp_path, PARAMS, CM, extra_tag="uq-x")
        assert base._fingerprint() != tagged._fingerprint()
        assert base._fingerprint() == ExperimentStore(tmp_path, PARAMS, CM)._fingerprint()


def _row(**metrics) -> PointSummary:
    base = {name: None for name in (
        "measured_total", "measured_total_wo_cache", "measured_comp",
        "measured_comm",
    )}
    defaults = dict(
        n=120, b=24, layout="diagonal", seed=0,
        pred_standard_total=1.0, pred_standard_comp=0.5, pred_standard_comm=0.5,
        pred_worstcase_total=2.0, pred_worstcase_comm=1.0,
    )
    defaults.update(base)
    defaults.update(metrics)
    return PointSummary(**defaults)


class TestReduction:
    def test_statistics_on_hand_built_replicates(self):
        values = [10.0, 12.0, 14.0, 20.0]
        rows = [_row(seed=i, pred_standard_total=v) for i, v in enumerate(values)]
        points = expand_grid(120, [24], ["diagonal"], seeds=(0, 1, 2, 3),
                             with_measured=False)
        (summary,) = reduce_replicates(points, rows, ci=0.5)
        stats = summary.metrics["pred_standard_total"]
        mean = sum(values) / 4
        assert stats["mean"] == mean
        assert stats["std"] == math.sqrt(
            sum((v - mean) ** 2 for v in values) / 3
        )
        assert stats["min"] == 10.0 and stats["max"] == 20.0
        # 50% CI of sorted [10, 12, 14, 20]: quantiles 0.25 and 0.75
        assert stats["ci_lo"] == 10.0 + 0.75 * 2.0
        assert stats["ci_hi"] == 14.0 + 0.25 * 6.0

    def test_absent_measured_metrics_reduce_to_none(self):
        points = expand_grid(120, [24], ["diagonal"], seeds=(0, 1),
                             with_measured=False)
        (summary,) = reduce_replicates(points, [_row(seed=0), _row(seed=1)])
        assert summary.metrics["measured_total"] is None
        with pytest.raises(KeyError):
            summary.stat("measured_total", "mean")

    def test_groups_keep_first_occurrence_order(self):
        points = expand_grid(120, [40, 24], ["diagonal"], seeds=(0, 1),
                             with_measured=False)
        rows = [_row(b=p.b, seed=p.seed) for p in points]
        summaries = reduce_replicates(points, rows)
        assert [(s.b, s.replicates) for s in summaries] == [(40, 2), (24, 2)]

    def test_length_mismatch_rejected(self):
        points = expand_grid(120, [24], ["diagonal"], with_measured=False)
        with pytest.raises(ValueError):
            reduce_replicates(points, [])

    def test_invalid_ci_rejected(self):
        points = expand_grid(120, [24], ["diagonal"], with_measured=False)
        for ci in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                reduce_replicates(points, [_row()], ci=ci)
        with pytest.raises(ValueError):
            run_uq(120, [24], ["diagonal"], PARAMS, CM, ci=1.5)

    def test_summary_digest_sensitive_to_values(self):
        points = expand_grid(120, [24], ["diagonal"], with_measured=False)
        a = reduce_replicates(points, [_row()])
        b = reduce_replicates(points, [_row(pred_standard_total=9.0)])
        assert summary_digest(a) != summary_digest(b)
        assert summary_digest(a) == summary_digest(
            [UQPointSummary.from_dict(s.to_dict()) for s in a]
        )


class TestOATSensitivity:
    def test_report_shape_and_elasticities(self):
        report = oat_sensitivity(120, [24, 40], "diagonal", PARAMS, CM)
        assert [row["b"] for row in report] == [24, 40]
        for row in report:
            assert row["layout"] == "diagonal"
            assert row["base_us"] > 0
            assert set(row["elasticity"]) == {"L", "o", "g", "G"}
            assert row["dominant"] in row["elasticity"]

    def test_deterministic(self):
        a = oat_sensitivity(120, [24], "diagonal", PARAMS, CM)
        b = oat_sensitivity(120, [24], "diagonal", PARAMS, CM)
        assert a == b

    @pytest.mark.parametrize("mode", ["standard", "worstcase", "causal"])
    @pytest.mark.parametrize("layout", ["diagonal", "stripped"])
    def test_plan_lanes_equal_trace_predictions(self, layout, mode):
        """Pricing one compiled plan per block size gives, repr for repr,
        the report of predicting each perturbation on the GE trace."""

        def from_trace(b):
            config = GEConfig(n=120, b=b, layout=LAYOUTS[layout](120 // b, PARAMS.P))
            trace = build_ge_trace(config)
            res = parameter_elasticities(
                lambda p: RunningTimePredictor(p, CM).predict(trace, mode).total_us,
                PARAMS,
            )
            return {
                "b": b,
                "layout": layout,
                "base_us": res.base_us,
                "elasticity": dict(res.elasticity),
                "dominant": res.dominant(),
            }

        got = oat_sensitivity(120, [24, 40], layout, PARAMS, CM, mode=mode)
        assert repr(got) == repr([from_trace(24), from_trace(40)])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oat_sensitivity(120, [24], "nope", PARAMS, CM)
        with pytest.raises(ValueError):
            oat_sensitivity(120, [23], "diagonal", PARAMS, CM)
