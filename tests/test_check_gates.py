"""Tests for the regression gates (repro.check.golden/accuracy/perf).

Covers the ISSUE acceptance criteria: each gate returns its distinct
documented exit code under injected drift (3 = accuracy, 4 = golden,
5 = perf), golden --update round-trips idempotently, and a perturbed
calibration constant trips the accuracy gate end to end.
"""

import dataclasses
import json
import os

import pytest

from repro.check import (
    EXIT_ACCURACY_DRIFT,
    EXIT_GOLDEN_DRIFT,
    EXIT_OK,
    EXIT_PERF_REGRESSION,
    VERDICTS,
)
from repro.check import paper_targets
from repro.check import perf as check_perf
from repro.check.accuracy import check_accuracy, score_payload
from repro.check.gate import PayloadSet, gate_cells, write_verdict
from repro.check.golden import check_golden, golden_path
from repro.cli import main
from repro.config import SystemConfig
from repro.exec.fingerprint import runtime_versions

PAYLOAD = {
    "figure_id": "fig_x",
    "columns": ["a", "b"],
    "rows": [["r", 1.25]],
    "comparisons": [],
}


def _payload_set(payload=PAYLOAD, figure_id="fig_x"):
    return PayloadSet(
        payloads={figure_id: json.loads(json.dumps(payload))},
        cell_of={figure_id: figure_id},
    )


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes_are_distinct_and_documented():
    codes = [EXIT_OK, EXIT_ACCURACY_DRIFT, EXIT_GOLDEN_DRIFT,
             EXIT_PERF_REGRESSION]
    assert codes == [0, 3, 4, 5]  # 1 = crash, 2 = argparse usage error
    assert VERDICTS == {
        "OK": 0, "ACCURACY_DRIFT": 3, "GOLDEN_DRIFT": 4,
        "PERF_REGRESSION": 5,
    }


def test_gate_cells_resolves_defaults_and_tokens():
    fast = gate_cells()
    assert "table1" in fast and "ext_teeio" not in fast
    assert "ext_teeio" in gate_cells(full=True)
    assert gate_cells(["table1"]) == ["table1"]


def test_write_verdict_is_machine_readable(tmp_path):
    path = str(tmp_path / "verdict.json")
    write_verdict(path, "golden", "GOLDEN_DRIFT", {"drifted": ["fig_x"]})
    payload = json.loads(open(path).read())
    assert payload["gate"] == "golden"
    assert payload["exit_code"] == EXIT_GOLDEN_DRIFT
    assert payload["exit_codes"]["PERF_REGRESSION"] == 5
    assert payload["drifted"] == ["fig_x"]


def test_write_verdict_stamps_runtime_versions(tmp_path):
    path = str(tmp_path / "verdict.json")
    write_verdict(path, "accuracy", "OK", {})
    payload = json.loads(open(path).read())
    assert payload["runtime"] == runtime_versions()
    assert set(payload["runtime"]) == {"numpy", "python"}


# ---------------------------------------------------------------------------
# golden gate


def test_golden_update_then_verify_roundtrip(tmp_path):
    golden_dir = str(tmp_path)
    report = check_golden(
        [], golden_dir=golden_dir, update=True, payload_set=_payload_set()
    )
    assert report.updated == ["fig_x"]
    assert report.ok and report.exit_code == EXIT_OK

    verify = check_golden([], golden_dir=golden_dir,
                          payload_set=_payload_set())
    assert verify.ok and verify.verdict == "OK"


def test_golden_update_is_idempotent(tmp_path):
    golden_dir = str(tmp_path)
    check_golden([], golden_dir=golden_dir, update=True,
                 payload_set=_payload_set())
    first = open(golden_path(golden_dir, "fig_x")).read()
    again = check_golden([], golden_dir=golden_dir, update=True,
                         payload_set=_payload_set())
    assert again.ok  # --update still reports clean against what it wrote
    assert open(golden_path(golden_dir, "fig_x")).read() == first


def test_golden_drift_returns_exit_4(tmp_path):
    golden_dir = str(tmp_path)
    check_golden([], golden_dir=golden_dir, update=True,
                 payload_set=_payload_set())
    drifted = json.loads(json.dumps(PAYLOAD))
    drifted["rows"][0][1] = 1.30
    report = check_golden([], golden_dir=golden_dir,
                          payload_set=_payload_set(drifted))
    assert not report.ok
    assert report.exit_code == EXIT_GOLDEN_DRIFT
    assert report.verdict == "GOLDEN_DRIFT"
    rendered = report.render()
    assert "$.rows[0][1]" in rendered and "1.25" in rendered


def test_missing_golden_is_drift_with_guidance(tmp_path):
    report = check_golden([], golden_dir=str(tmp_path),
                          payload_set=_payload_set())
    assert report.exit_code == EXIT_GOLDEN_DRIFT
    assert "run `repro check golden --update`" in report.render()


def test_failed_cell_fails_the_golden_gate(tmp_path):
    payload_set = _payload_set()
    payload_set.failures.append("fig_y: boom")
    report = check_golden([], golden_dir=str(tmp_path), update=True,
                          payload_set=payload_set)
    assert not report.ok and report.exit_code == EXIT_GOLDEN_DRIFT


# ---------------------------------------------------------------------------
# accuracy gate


def _crypto_payload(measured, embedded=None):
    table = paper_targets.TARGETS["fig04b_crypto"]
    paper = table["AES-GCM peak on EMR GB/s"].value
    return {
        "comparisons": [{
            "metric": "AES-GCM peak on EMR GB/s",
            "paper": paper if embedded is None else embedded,
            "measured": measured,
        }]
    }


def test_accuracy_within_threshold_is_ok():
    paper = paper_targets.TARGETS["fig04b_crypto"]["AES-GCM peak on EMR GB/s"].value
    score = score_payload("fig04b_crypto", _crypto_payload(paper * 1.001))
    assert not score.breached
    assert score.worst_pct == pytest.approx(0.1)


def test_accuracy_breach_returns_exit_3():
    paper = paper_targets.TARGETS["fig04b_crypto"]["AES-GCM peak on EMR GB/s"].value
    payload_set = PayloadSet(
        payloads={"fig04b_crypto": _crypto_payload(paper * 2)},
        cell_of={"fig04b_crypto": "fig04b"},
    )
    report = check_accuracy([], payload_set=payload_set)
    assert report.breached
    assert report.exit_code == EXIT_ACCURACY_DRIFT
    assert report.verdict == "ACCURACY_DRIFT"
    assert "BREACH" in report.render()


def test_unregistered_metric_breaches():
    score = score_payload(
        "fig04b_crypto",
        {"comparisons": [{"metric": "nope", "paper": 1.0, "measured": 1.0}]},
    )
    assert score.unregistered == ["nope"] and score.breached


def test_embedded_paper_value_must_match_table():
    paper = paper_targets.TARGETS["fig04b_crypto"]["AES-GCM peak on EMR GB/s"].value
    score = score_payload(
        "fig04b_crypto", _crypto_payload(paper, embedded=paper * 1.01)
    )
    assert score.table_mismatches and score.breached


def test_qualitative_targets_are_not_error_scored():
    score = score_payload(
        "fig01_overview",
        {"comparisons": [{
            "metric": "cc-on / cc-off end-to-end (qualitative: > 1)",
            "paper": 1.0,
            "measured": 123.0,  # any direction-consistent magnitude is fine
        }]},
    )
    assert score.qualitative == 1 and not score.scores
    assert not score.breached


def test_every_quantitative_target_has_finite_value():
    for figure_id, metrics in paper_targets.TARGETS.items():
        for metric, target in metrics.items():
            assert target.value == target.value, (figure_id, metric)
        assert paper_targets.threshold_for(figure_id) > 0


def test_paper_value_requires_registration():
    with pytest.raises(KeyError):
        paper_targets.paper_value("fig04b_crypto", "nope")
    assert paper_targets.paper_value("fig04b_crypto", "nope", default=7.0) == 7.0


def test_perturbed_calibration_trips_accuracy_gate(tmp_path, monkeypatch):
    """End to end: inflate the TD hypercall cost and the launch-path
    figure drifts past its accuracy budget (exit 3)."""
    pristine = SystemConfig.confidential()

    def inflated(**overrides):
        return pristine.replace(
            tdx=dataclasses.replace(
                pristine.tdx, td_hypercall_ns=pristine.tdx.td_hypercall_ns * 20
            )
        )

    clean = check_accuracy(["fig07"], results_dir=str(tmp_path / "clean"),
                           use_cache=False)
    assert clean.ok

    monkeypatch.setattr(SystemConfig, "confidential", inflated)
    report = check_accuracy(["fig07"], results_dir=str(tmp_path / "drift"),
                            use_cache=False)
    assert not report.ok
    assert report.exit_code == EXIT_ACCURACY_DRIFT
    assert report.breached[0].figure_id == "fig07_launch_queuing"


# ---------------------------------------------------------------------------
# perf gate


def _baseline(entries, config_hash=""):
    return {
        "version": check_perf.BASELINE_VERSION,
        "config_hash": config_hash,
        "entries": entries,
    }


def test_measure_times_cells_and_sim_benches():
    entries = check_perf.measure(
        ["table1"], repeats=1, sim_benches={"gemm.cc": ("gemm", True)}
    )
    assert set(entries) == {"cell:table1", "sim:gemm.cc"}
    assert entries["cell:table1"].wall_ns > 0
    assert entries["sim:gemm.cc"].sim_ns > 0
    assert entries["sim:gemm.cc"].sim_ns_per_wall_s > 0


def test_baseline_save_load_roundtrip(tmp_path):
    entries = {
        "cell:x": check_perf.PerfEntry("cell:x", wall_ns=1000, sim_ns=500)
    }
    path = str(tmp_path / "b.json")
    check_perf.save_baseline(entries, path, repeats=1)
    baseline = check_perf.load_baseline(path)
    assert baseline["entries"]["cell:x"]["wall_ns"] == 1000
    assert baseline["entries"]["cell:x"]["sim_ns"] == 500
    assert baseline["entries"]["cell:x"]["sim_ns_per_wall_s"] > 0


def test_baseline_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "b.json")
    with open(path, "w") as handle:
        json.dump({"version": 999, "entries": {}}, handle)
    with pytest.raises(ValueError):
        check_perf.load_baseline(path)


def test_baseline_all_cells_zero_sim_ns_rejected(tmp_path):
    """The zeroed-accounting bug: a baseline where no cell recorded a
    simulator clock must not load (it could never gate sim throughput)."""
    entries = {
        "cell:a": check_perf.PerfEntry("cell:a", wall_ns=1000),
        "cell:b": check_perf.PerfEntry("cell:b", wall_ns=2000),
    }
    path = str(tmp_path / "b.json")
    check_perf.save_baseline(entries, path, repeats=1)
    with pytest.raises(ValueError, match="zeroed accounting"):
        check_perf.load_baseline(path)


def test_baseline_analytic_cell_zero_sim_ns_allowed(tmp_path):
    """Individual analytic cells (table1) legitimately record sim_ns=0
    as long as the harness is recording the clock somewhere."""
    entries = {
        "cell:table1": check_perf.PerfEntry("cell:table1", wall_ns=1000),
        "cell:fig05": check_perf.PerfEntry(
            "cell:fig05", wall_ns=1000, sim_ns=7
        ),
    }
    path = str(tmp_path / "b.json")
    check_perf.save_baseline(entries, path, repeats=1)
    baseline = check_perf.load_baseline(path)
    assert baseline["entries"]["cell:table1"]["sim_ns"] == 0


def test_baseline_sim_bench_zero_sim_ns_rejected(tmp_path):
    entries = {
        "sim:gemm.cc": check_perf.PerfEntry("sim:gemm.cc", wall_ns=1000)
    }
    path = str(tmp_path / "b.json")
    check_perf.save_baseline(entries, path, repeats=1)
    with pytest.raises(ValueError, match="sim_ns=0"):
        check_perf.load_baseline(path)


def test_baseline_nonpositive_wall_ns_rejected(tmp_path):
    path = str(tmp_path / "b.json")
    with open(path, "w") as handle:
        json.dump(
            _baseline(
                {
                    "cell:x": {
                        "wall_ns": 0,
                        "sim_ns": 5,
                        "sim_ns_per_wall_s": 1.0,
                    }
                }
            ),
            handle,
        )
    with pytest.raises(ValueError, match="invalid wall_ns"):
        check_perf.load_baseline(path)


def test_baseline_inconsistent_rate_rejected(tmp_path):
    path = str(tmp_path / "b.json")
    with open(path, "w") as handle:
        json.dump(
            _baseline(
                {
                    "cell:x": {
                        "wall_ns": 1000,
                        "sim_ns": 5,
                        "sim_ns_per_wall_s": 0.0,
                    }
                }
            ),
            handle,
        )
    with pytest.raises(ValueError, match="inconsistent"):
        check_perf.load_baseline(path)


def test_perf_regression_returns_exit_5():
    entries = {"cell:x": check_perf.PerfEntry("cell:x", wall_ns=2000)}
    report = check_perf.compare(
        _baseline({"cell:x": {"wall_ns": 1000, "sim_ns": 0}}), entries,
        band=0.75, noise_floor_ns=0,
    )
    assert report.regressions and report.exit_code == EXIT_PERF_REGRESSION
    assert report.verdict == "PERF_REGRESSION"


def test_perf_within_band_is_ok_and_improvement_is_a_hint():
    entries = {
        "cell:ok": check_perf.PerfEntry("cell:ok", wall_ns=1500),
        "cell:fast": check_perf.PerfEntry("cell:fast", wall_ns=100),
    }
    report = check_perf.compare(
        _baseline({
            "cell:ok": {"wall_ns": 1000, "sim_ns": 0},
            "cell:fast": {"wall_ns": 1000, "sim_ns": 0},
        }),
        entries, band=0.75, noise_floor_ns=0,
    )
    statuses = {c.name: c.status for c in report.comparisons}
    assert statuses == {"cell:ok": "ok", "cell:fast": "improved"}
    assert report.ok and report.exit_code == EXIT_OK


def test_perf_noise_floor_shields_sub_ms_benches():
    """A 2x blowup on a 0.5 ms bench is scheduler jitter, not a
    regression; the same ratio above the floor still fails."""
    entries = {
        "sim:tiny": check_perf.PerfEntry("sim:tiny", wall_ns=1_000_000),
        "cell:big": check_perf.PerfEntry("cell:big", wall_ns=400_000_000),
    }
    report = check_perf.compare(
        _baseline({
            "sim:tiny": {"wall_ns": 500_000, "sim_ns": 0},
            "cell:big": {"wall_ns": 200_000_000, "sim_ns": 0},
        }),
        entries, band=0.2, noise_floor_ns=50_000_000,
    )
    statuses = {c.name: c.status for c in report.comparisons}
    assert statuses == {"sim:tiny": "ok", "cell:big": "regression"}


def test_perf_sim_drift_is_informational_not_failing():
    entries = {"sim:g": check_perf.PerfEntry("sim:g", wall_ns=1000, sim_ns=42)}
    report = check_perf.compare(
        _baseline({"sim:g": {"wall_ns": 1000, "sim_ns": 41}}), entries,
    )
    assert report.ok
    assert any("behavioural drift" in note for note in report.notes)


def test_perf_missing_entries_are_noted():
    report = check_perf.compare(
        _baseline({"cell:gone": {"wall_ns": 1, "sim_ns": 0}}),
        {"cell:new": check_perf.PerfEntry("cell:new", wall_ns=1)},
    )
    assert any("cell:gone" in note for note in report.notes)
    assert any("cell:new" in note for note in report.notes)


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_golden_update_verify_and_drift(tmp_path, capsys):
    out = str(tmp_path / "results")
    golden = str(tmp_path / "golden")
    assert main(["check", "golden", "table1", "--out", out,
                 "--golden-dir", golden, "--update"]) == 0
    assert main(["check", "golden", "table1", "--out", out,
                 "--golden-dir", golden]) == 0
    verdict = json.loads(
        open(os.path.join(out, "check", "golden_verdict.json")).read()
    )
    assert verdict["verdict"] == "OK" and verdict["exit_code"] == 0

    snapshot = os.path.join(golden, "table1_config.json")
    payload = json.loads(open(snapshot).read())
    payload["rows"][0][-1] = "edited"
    with open(snapshot, "w") as handle:
        json.dump(payload, handle)
    capsys.readouterr()
    assert main(["check", "golden", "table1", "--out", out,
                 "--golden-dir", golden]) == EXIT_GOLDEN_DRIFT
    assert "GOLDEN_DRIFT" in capsys.readouterr().out


def test_cli_accuracy_ok_and_report_file(tmp_path, capsys):
    out = str(tmp_path / "results")
    report_path = str(tmp_path / "accuracy.txt")
    assert main(["check", "accuracy", "fig04b", "--out", out,
                 "--report", report_path]) == 0
    assert "verdict: OK" in open(report_path).read()


def test_cli_perf_requires_baseline(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["check", "perf", "--quick", "--repeats", "1",
                 "--baseline", missing, "--out", str(tmp_path / "r")])
    assert code == 1
    assert "repro check perf --update" in capsys.readouterr().err
