"""The benchmark's own checks: the tracer counts every call it claims to,
restores what it wrapped, changes no output, and the report checks catch
each broken invariant."""

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import report_problems
from taoi_sim import aoi, cli, engine, mobility
from taoi_sim.engine import SimConfig, Simulation
from tracer import Tracer, cross_check, layer_metrics
from workloads import WORKLOADS, write_replay_trace

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_config(tmp_path, replay: bool) -> SimConfig:
    if not replay:
        return SimConfig(vehicle_count=12, duration_s=3.0, protocol="taoi",
                         seed=5)
    path = tmp_path / "trace.csv"
    write_replay_trace(path, 10, 3.0, seed=5)
    return SimConfig(vehicle_count=10, duration_s=3.0, protocol="aoi",
                     seed=5, trace_path=str(path))


def run_and_emit(cfg, out: Path) -> tuple[dict, str]:
    rep = Simulation(cfg).run()
    cli.emit_reports([rep], out)
    data = (out / "report.json").read_bytes()
    return json.loads(data), hashlib.sha256(data).hexdigest()


def traced_run(cfg, out: Path):
    tracer = Tracer()
    with tracer:
        report, digest = run_and_emit(cfg, out)
    return tracer, layer_metrics(tracer), report, digest


@pytest.mark.parametrize("replay", [False, True], ids=["krauss", "replay"])
def test_traced_counts_match_the_report(tmp_path, replay):
    cfg = small_config(tmp_path, replay)
    _, metrics, report, _ = traced_run(cfg, tmp_path / "out")
    assert metrics["channel.delivery_outcome.calls"][0] == \
        report["counts"]["sent"]
    assert metrics["engine.events.measurement"][0] * cfg.vehicle_count == \
        sum(v["mi_count"] for v in report["per_vehicle"])
    if replay:
        assert "mobility.krauss_step.calls" not in metrics
    else:
        assert metrics["mobility.krauss_step.calls"][0] == 30
    assert cross_check(metrics, report, cfg) == []


def test_cross_check_reports_a_missed_call(tmp_path):
    cfg = small_config(tmp_path, replay=False)
    _, metrics, report, _ = traced_run(cfg, tmp_path / "out")
    calls, unit = metrics["channel.delivery_outcome.calls"]
    metrics["channel.delivery_outcome.calls"] = (calls - 1, unit)
    metrics["mobility.krauss_step.calls"] = (29, "count")
    problems = cross_check(metrics, report, cfg)
    assert len(problems) == 2
    assert "delivery_outcome" in problems[0]
    assert "krauss_step" in problems[1]


@pytest.mark.parametrize("replay", [False, True], ids=["krauss", "replay"])
def test_tracing_changes_no_output(tmp_path, replay):
    cfg = small_config(tmp_path, replay)
    _, plain = run_and_emit(cfg, tmp_path / "plain")
    _, _, _, traced = traced_run(cfg, tmp_path / "traced")
    assert traced == plain


def test_leaving_the_block_restores_every_wrapped_name(tmp_path):
    owners = (engine.Simulation, engine, aoi, cli, mobility.TrajectoryTable)
    before = [dict(vars(o)) for o in owners]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert vars(aoi)["advance"] is not before[2]["advance"]
            raise RuntimeError("interrupted run")
    with Tracer():
        run_and_emit(small_config(tmp_path, replay=False), tmp_path / "out")
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        changed = [k for k in snapshot if now.get(k) is not snapshot[k]]
        assert changed == []


def test_self_time_excludes_child_spans(tmp_path):
    tracer, metrics, _, _ = traced_run(small_config(tmp_path, False),
                                       tmp_path / "out")
    spans = tracer.span_arrays()
    names = tracer.names
    # advance runs both on its own and nested inside apply_reception
    parent_names = {names[spans["name_id"][p]] if p >= 0 else None
                    for i, p in enumerate(spans["parent"])
                    if names[spans["name_id"][i]] == "aoi.advance"}
    assert "aoi.apply_reception" in parent_names
    # self times partition the traced wall time: they sum to the roots'
    dur = spans["end"] - spans["start"]
    roots = dur[spans["parent"] < 0].sum()
    total_self = sum(s for _, s in tracer.boundary_stats().values())
    assert total_self == pytest.approx(roots, rel=1e-9)
    apply_total = dur[spans["name_id"] == names.index("aoi.apply_reception")]
    assert metrics["aoi.apply_reception.self_s"][0] < apply_total.sum()


def test_uncalled_boundaries_are_absent_not_zero(tmp_path):
    tracer, metrics, _, _ = traced_run(small_config(tmp_path, False),
                                       tmp_path / "out")
    stats = tracer.boundary_stats()
    for name in ("mobility.state_at", "mobility.load_trace",
                 "rate_control.fixed_rate", "rate_control.aoi_rate_update"):
        assert name in tracer.names
        assert name not in stats
        assert not [m for m in metrics if m.startswith(name + ".")]


@pytest.mark.parametrize("replay", [False, True], ids=["krauss", "replay"])
def test_every_per_layer_metric_is_measured(tmp_path, replay):
    _, metrics, _, _ = traced_run(small_config(tmp_path, replay),
                                  tmp_path / "out")
    metrics["trace.overhead_ratio"] = (1.0, "ratio")
    for m in SPEC["per_layer"]:
        assert m["name"] in metrics
        assert metrics[m["name"]][1] == m["unit"]


def test_benchmark_names_the_defined_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_report_checks_flag_each_broken_invariant(tmp_path):
    report, _ = run_and_emit(small_config(tmp_path, False), tmp_path / "out")
    assert report_problems(report) == []
    counts, first_bin = report["counts"], report["pdr_bins"][0]
    breaks = {
        "conservation": ("counts", {**counts, "sent": counts["sent"] + 1}),
        "taoi above aoi": ("system_taoi_s", 2 * report["system_aoi_s"]),
        "negative taoi": ("system_taoi_s", -1e-9),
        "pdr above one": ("overall_pdr", 1.5),
        "pdr undefined": ("overall_pdr", None),
        "bin": ("pdr_bins", [first_bin[:2] + [first_bin[3] + 1,
                                              first_bin[3]]]),
        "gap": ("negative_gap_events", 1),
    }
    for what, (key, value) in breaks.items():
        broken = copy.deepcopy(report)
        broken[key] = value
        assert len(report_problems(broken)) == 1, what


def test_runs_end_to_end_and_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "light_n60_taoi", "--seed", "2", "--seconds", "0.01",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "light_n60_taoi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
