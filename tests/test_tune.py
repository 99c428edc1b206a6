"""Tests for the Pareto auto-tuner (repro.tune).

Covers deterministic pipeline enumeration, exec-grid construction
(non-hidden cells, stable ids), verdict byte-determinism across runs
and jobs counts, cache-backed resume, Pareto-frontier math, and the
new figure's registration in the grid.
"""

import json
import os

import pytest

from repro.exec import runner as exec_runner
from repro.tune import (
    CANDIDATES,
    FAMILY_ORDER,
    TuneError,
    TuneSpec,
    build_grid,
    enumerate_pipelines,
    pareto_frontier,
    render_pareto_table,
    run_tune,
    tune_verdict,
    tune_verdict_json,
)

# Small, fast problem: 4 pipelines + base = 5 quarter-second scenarios.
SMALL = TuneSpec(families=("fusion", "batch"), grid="small",
                 rate=12.0, duration_s=0.25)


def _dirs(tmp_path, name="tune"):
    out = str(tmp_path / name)
    return out, os.path.join(str(tmp_path), ".cache")


# ---------------------------------------------------------------------------
# enumeration and grid construction


def test_enumerate_pipelines_deterministic_and_naive_first():
    pipelines = enumerate_pipelines(SMALL)
    assert pipelines == ("naive", "batch:4", "fusion", "fusion+batch:4")
    assert pipelines == enumerate_pipelines(SMALL)


def test_enumerate_full_grid_size():
    spec = TuneSpec(grid="full")
    sizes = [1 + len(CANDIDATES["full"][f]) for f in FAMILY_ORDER]
    expected = 1
    for size in sizes:
        expected *= size
    pipelines = enumerate_pipelines(spec)
    assert len(pipelines) == expected
    assert len(set(pipelines)) == expected
    assert pipelines[0] == "naive"


def test_build_grid_cells_are_visible_and_stable():
    grid = build_grid(SMALL)
    assert f"tune_base_r{SMALL.rate:g}" in grid
    for cell_id, spec in grid.items():
        # hidden cells would get a selftest cache key, defeating
        # code-fingerprint invalidation for tune results
        assert not spec.hidden
        assert spec.module == "ext_recovered_serving"
        assert spec.generator == "generate_cell"
        assert cell_id == spec.cell_id
    assert list(grid) == list(build_grid(SMALL))


@pytest.mark.parametrize("bad", [
    TuneSpec(grid="huge"),
    TuneSpec(families=()),
    TuneSpec(families=("bogus",)),
    TuneSpec(families=("fusion", "fusion")),
    TuneSpec(rate=0.0),
    TuneSpec(rate=float("nan")),
    TuneSpec(duration_s=-1.0),
    TuneSpec(tenants=0),
])
def test_spec_validation_rejects(bad):
    with pytest.raises(TuneError):
        bad.validate()


# ---------------------------------------------------------------------------
# Pareto math (pure, no simulation)


def _pt(goodput, ttft, ratio):
    return {"goodput_rps": goodput, "ttft_p99_ms": ttft,
            "cc_overhead_ratio": ratio}


def test_pareto_frontier_marks_non_dominated():
    points = [
        _pt(10.0, 50.0, 1.5),   # dominated by the next point
        _pt(12.0, 40.0, 1.2),   # frontier
        _pt(8.0, 10.0, 1.9),    # frontier: best ttft
        _pt(12.0, 40.0, 1.2),   # duplicate of frontier point: kept
        _pt(7.0, 60.0, 2.0),    # dominated by everything
    ]
    assert pareto_frontier(points) == [False, True, True, True, False]


def test_pareto_frontier_single_point():
    assert pareto_frontier([_pt(1.0, 1.0, 1.0)]) == [True]


# ---------------------------------------------------------------------------
# end-to-end sweeps (cache-backed, deterministic)


def test_run_tune_end_to_end_and_resume(tmp_path):
    out, cache = _dirs(tmp_path)
    report = run_tune(SMALL, results_dir=out, cache_dir=cache)
    assert len(report.points) == 4
    pipelines = {p["pipeline"] for p in report.points}
    assert pipelines == {"naive", "batch:4", "fusion", "fusion+batch:4"}
    naive = next(p for p in report.points if p["pipeline"] == "naive")
    assert naive["clawback_frac"] == 0.0
    assert report.pareto  # frontier is never empty
    assert report.best["pipeline"] in pipelines
    # per-point outputs landed under the tune results dir
    assert any(
        name.startswith("ext_recovered_cell_") and name.endswith(".json")
        for name in os.listdir(out)
    )
    # resume: a second run is all cache hits, identical verdict bytes
    first = tune_verdict_json(report)
    again = run_tune(SMALL, results_dir=out, cache_dir=cache)
    assert again.grid_report.all_cached()
    assert tune_verdict_json(again) == first


def test_verdict_bytes_identical_across_jobs_and_cache_modes(tmp_path):
    out, cache = _dirs(tmp_path)
    parallel = run_tune(SMALL, jobs=2, results_dir=out, cache_dir=cache)
    fresh = run_tune(
        SMALL, jobs=1, results_dir=str(tmp_path / "t2"),
        cache_dir=os.path.join(str(tmp_path), ".cache2"), use_cache=False,
    )
    assert tune_verdict_json(parallel) == tune_verdict_json(fresh)


def test_verdict_shape_and_no_run_dependent_fields(tmp_path):
    out, cache = _dirs(tmp_path)
    report = run_tune(SMALL, results_dir=out, cache_dir=cache)
    verdict = tune_verdict(report)
    assert verdict["command"] == "tune"
    assert verdict["cells"] == len(report.points) + 1
    assert tuple(verdict["spec"]["families"]) == SMALL.families
    flat = json.dumps(verdict)
    for forbidden in ("wall", "hit", "miss", "cache"):
        assert forbidden not in flat
    # byte-stable encoding round-trips
    assert json.loads(tune_verdict_json(report)) == json.loads(
        json.dumps(verdict))


def test_render_pareto_table_mentions_best_and_baseline(tmp_path):
    out, cache = _dirs(tmp_path)
    report = run_tune(SMALL, results_dir=out, cache_dir=cache)
    table = render_pareto_table(report)
    assert report.best["pipeline"] in table
    assert "baseline" in table and "clawback" in table


def test_failed_point_raises_tune_error(tmp_path, monkeypatch):
    out, cache = _dirs(tmp_path)
    grid = build_grid(SMALL)
    broken_id = next(iter(grid))
    import dataclasses as _dc

    broken = dict(grid)
    broken[broken_id] = _dc.replace(
        grid[broken_id],
        params=grid[broken_id].params + (("mode", "bogus"),),
    )
    monkeypatch.setattr("repro.tune.driver.build_grid", lambda spec: broken)
    with pytest.raises(TuneError, match="failed"):
        run_tune(SMALL, results_dir=out, cache_dir=cache)


# ---------------------------------------------------------------------------
# figure registration


def test_recovered_serving_cell_registered_in_grid():
    spec = exec_runner.GRID["ext_recovered_serving"]
    assert spec.module == "ext_recovered_serving"
    assert spec.slow and not spec.hidden
    assert "ext_recovered_serving" in exec_runner.resolve_cells(["ext"])
