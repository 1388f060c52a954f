"""Command-line surface: config parsing, artifact layout, subcommands."""

import csv
import json

import pytest

from taoi_sim.cli import emit_reports, main, parse_config, run_dir_name
from taoi_sim.engine import SimConfig, run_simulation
from taoi_sim.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


class TestParseConfig:
    def test_empty_object_yields_documented_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.vehicle_count == 150
        assert cfg.protocol == "taoi"
        assert cfg.channel.tx_power_dbm == 20.0
        assert cfg.channel.path_loss_exponent == 3.0
        assert cfg.safety.te_threshold == 0.5
        assert cfg.t_mi_s == 1.0
        assert cfg.beta == 1.1
        assert cfg.duration_s == 100.0

    def test_flat_keys_route_to_nested_configs(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, road_lanes=2, max_accel=2.0, rx_sensitivity_dbm=-95.0,
            te_threshold=0.8, vehicle_count=12))
        assert cfg.road.lanes == 2
        assert cfg.krauss.max_accel == 2.0
        assert cfg.channel.rx_sensitivity_dbm == -95.0
        assert cfg.safety.te_threshold == 0.8
        assert cfg.vehicle_count == 12

    def test_unknown_key_suggests_the_nearest_field(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, vehicle_cout=10))
        assert "vehicle_cout" in str(err.value)
        assert "vehicle_count" in str(err.value)

    def test_single_vehicle_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, vehicle_count=1))

    def test_nakagami_bins_coerced_to_tuples(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, nakagami_bins=[[50.0, 3.0], [150.0, 1.5]]))
        assert cfg.channel.nakagami_bins == ((50.0, 3.0), (150.0, 1.5))

    def test_forced_schedule_requires_the_idealized_channel(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, forced_schedule=[[0], [1]]))
        cfg = parse_config(write_config(
            tmp_path, vehicle_count=2, channel_mode="idealized_slotted",
            forced_schedule=[[0], [1]]))
        assert cfg.forced_schedule == ((0,), (1,))

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(str(arr))
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "missing.json"))

    def test_wrongly_typed_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, vehicle_count="many"))


@pytest.fixture(scope="module")
def small_report():
    return run_simulation(SimConfig(vehicle_count=6, duration_s=2.0,
                                    protocol="taoi", seed=5))


class TestEmitReports:
    EXPECTED = {"report.json", "summary.csv", "timeseries.csv",
                "pdr_bins.csv", "te_pairs.csv"}

    def test_single_report_layout(self, tmp_path, small_report):
        emit_reports([small_report], out_dir=str(tmp_path))
        assert {p.name for p in tmp_path.iterdir()} == self.EXPECTED

    def test_artifact_headers(self, tmp_path, small_report):
        emit_reports([small_report], out_dir=str(tmp_path))
        heads = {
            "timeseries.csv": "t,vehicle_id,delta_ms,flag,aoi_v,taoi_v",
            "pdr_bins.csv": "bin_lo_m,bin_hi_m,pdr",
            "te_pairs.csv": "receiver_id,sender_id,mean_te_m,samples",
        }
        for name, head in heads.items():
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first == head

    def test_summary_round_trips_the_report(self, tmp_path, small_report):
        emit_reports([small_report], out_dir=str(tmp_path))
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["protocol"] == "taoi"
        assert int(row["seed"]) == 5
        assert float(row["system_aoi_s"]) == small_report.system_aoi_s
        assert float(row["mean_interval_ms"]) == small_report.mean_interval_ms

    def test_multiple_reports_get_subdirectories(self, tmp_path):
        reports = [run_simulation(SimConfig(vehicle_count=4, duration_s=1.0,
                                            protocol=p, seed=1))
                   for p in ("aoi", "taoi")]
        emit_reports(reports, out_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"summary.csv", run_dir_name(reports[0]),
                         run_dir_name(reports[1])}
        with open(tmp_path / "summary.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_no_reports_writes_nothing(self, tmp_path):
        assert emit_reports([], out_dir=str(tmp_path)) == []
        assert list(tmp_path.iterdir()) == []

    def test_report_json_is_sorted_and_newline_terminated(self, tmp_path,
                                                          small_report):
        emit_reports([small_report], out_dir=str(tmp_path))
        raw = (tmp_path / "report.json").read_text()
        assert raw.endswith("\n")
        parsed = json.loads(raw)
        assert list(parsed.keys()) == sorted(parsed.keys())
        assert parsed["protocol"] == "taoi"


class TestRunCommand:
    def test_run_writes_artifacts_and_prints_a_summary(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path, vehicle_count=6, duration_s=2.0, seed=3)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        printed = capsys.readouterr().out
        assert "system_aoi=" in printed
        assert "artifacts in" in printed

    def test_seed_flag_overrides_the_config(self, tmp_path):
        cfg = write_config(tmp_path, vehicle_count=6, duration_s=2.0, seed=3)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--seed", "9", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 9

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()

    def test_config_is_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code != 0
        capsys.readouterr()


class TestSweepCommand:
    def test_matrix_cardinality_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, vehicle_count=6, duration_s=2.0)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--protocols", "aoi,taoi",
                   "--densities", "6", "--seeds", "1,2",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert not (out / "comparison.csv").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {(r["protocol"], r["seed"]) for r in rows} == \
            {("aoi", "1"), ("aoi", "2"), ("taoi", "1"), ("taoi", "2")}
        with open(out / "aggregates.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        assert (out / "aggregate_pdr_bins.csv").exists()
        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 4

    def test_unknown_protocol_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, vehicle_count=6, duration_s=1.0)
        rc = main(["sweep", "--config", cfg, "--protocols", "psychic",
                   "--out", str(tmp_path / "s")])
        assert rc == 2
        capsys.readouterr()


class TestOracleCommand:
    def test_prints_the_optimum(self, capsys):
        assert main(["oracle", "--slots", "4"]) == 0
        out = capsys.readouterr().out
        assert "optimum" in out
        assert "system_aoi" in out

    def test_objective_selector(self, capsys):
        assert main(["oracle", "--slots", "4", "--objective", "sum_te"]) == 0
        assert "sum_te" in capsys.readouterr().out


class TestReproduceTables:
    def test_reports_pass_for_both_references(self, capsys):
        assert main(["reproduce-tables"]) == 0
        out = capsys.readouterr().out
        assert "PASS alternating: all cells match" in out
        assert "PASS single_shot: all cells match" in out
