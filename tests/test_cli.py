"""Command-line surface: config parsing, artifact layout, subcommands."""

import csv
import hashlib
import json
import math
import re

import pytest

from taoi_sim import cli
from taoi_sim.cli import emit_reports, main, parse_config, run_dir_name
from taoi_sim.engine import SimConfig, run_simulation
from taoi_sim.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


# nakagami_bins that are no (bound, m) pairs of finite numbers, which
# validate judges alone; JSON writes 10**400 out in full, and it once
# raised a raw OverflowError
BAD_BINS = [{"nakagami_bins": [["80", 3]]}, {"nakagami_bins": [[True, 3]]},
            {"nakagami_bins": [[80, 3, 5]]}, {"nakagami_bins": None},
            {"nakagami_bins": [[80, 10 ** 400]]},
            {"nakagami_bins": [[10 ** 400, 3]]}]
BAD_BIN_IDS = ["string_bin_bound", "bool_bin_bound", "bin_triple",
               "null_nakagami_bins", "bin_m_beyond_float",
               "bin_bound_beyond_float"]


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

    @pytest.mark.parametrize("kw", [{"cw": 0}, {"road_lanes": 0},
                                    {"vehicle_count": 1},
                                    {"forced_schedule": [0, 1]},
                                    {"nakagami_bins": [1, 2]},
                                    {"nakagami_bins": "ab"},
                                    *BAD_BINS,
                                    {"road_length": "100"},
                                    {"road_width": "100"},
                                    {"road_lanes": 1.5},
                                    {"road_lane_width": -1}],
                             ids=["section_check", "road_check", "validate",
                                  "flat_forced_schedule", "flat_nakagami_bins",
                                  "string_nakagami_bins", *BAD_BIN_IDS,
                                  "string_road_length", "string_road_width",
                                  "fractional_road_lanes",
                                  "negative_road_lane_width"])
    def test_a_rejected_value_names_the_file(self, tmp_path, kw):
        # then the value, by the flat key the file writes
        path = write_config(tmp_path, **kw)
        with pytest.raises(ConfigError, match=(
                f"^config {re.escape(path)}: {next(iter(kw))} ")):
            parse_config(path)

    def test_single_vehicle_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, vehicle_count=1))

    def test_nakagami_bins_coerced_to_tuples(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, nakagami_bins=[[50.0, 3.0], [150.0, 1.5]]))
        assert cfg.channel.nakagami_bins == ((50.0, 3.0), (150.0, 1.5))
        # the builder turns lists into tuples and nothing else: integers
        # stay as written, as every float key's do
        cfg = parse_config(write_config(tmp_path, nakagami_bins=[[50, 3]]))
        assert cfg.channel.nakagami_bins == ((50, 3),)
        assert type(cfg.channel.nakagami_bins[0][0]) is int

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


class TestGoldenArtifacts:
    """The sha256 of every artifact ``emit_reports`` writes for a few small
    runs: one per protocol, two self-clocked idealized runs and a replay
    of the Krauss run's own trace. The config echo carries the trace path
    into the digest, so the replay reads it by a relative path from its
    working directory.

    Only a declared contract change may update a digest here, in the
    change that declares it: a new draw order such as ROADMAP item 2's
    keyed fading, another float reduction order, the Krauss arc
    bookkeeping (arcs carried by the states instead of re-derived from
    their poses, which moved the last bits of ``te_pairs.csv`` in the
    idealized and replay rows), or a config key added to or removed from
    the echo. Never update one just to get a pass."""

    RUNS = {
        "fixed10hz": (dict(protocol="fixed10hz"), {
            "pdr_bins.csv": "699fcbb0ebc180b66a1c929b87727abc2e02ddbd95e6fe60cee63589e8164106",
            "report.json": "66407ded2f4bd4dbe69f3433914f2207371bc4a8c93b7993252c29e9a5de097d",
            "summary.csv": "1a18d12bfd9c54fdcc3b9f2b333922e7e3d65964c8d4c21024d925a1c75c4f32",
            "te_pairs.csv": "36c14fc400cc415afe66dab7ca8750b21946bcf46335c4e3fd1a0566b93521b0",
            "timeseries.csv": "13a83e22bdc09791491286888d167a24fd2e769897ca8585867934528adcd771",
        }),
        "aoi": (dict(protocol="aoi"), {
            "pdr_bins.csv": "1145c0607412bff5cd046b60c23b3decde52211bc2a6640f2c962389117535f4",
            "report.json": "7ec7e536fbdc5aca67e1c10c8adc2520f34db62a33ffaa0cb0ce5d8bc9a77340",
            "summary.csv": "7ce01a60a9ffeef722bb625fe4ab46076907ed35f47fbc954cfbd9fcede0ba9a",
            "te_pairs.csv": "7a92e30aa6fc4694c546e69023337bd52cd0dbcf303cf4a8b5c0dbc823f30499",
            "timeseries.csv": "2bc54f6ead5286aff0cefcd652be3701c15dd369614c3262db0f835f08d67f7e",
        }),
        "taoi": (dict(protocol="taoi"), {
            "pdr_bins.csv": "699fcbb0ebc180b66a1c929b87727abc2e02ddbd95e6fe60cee63589e8164106",
            "report.json": "329489347f8da7392543241686b06c5de491725e32f50d04ba12d71190440496",
            "summary.csv": "b8df306c795ba6c60cc7b02e7f77fe18e1a45278d5a2e253240777a39d7e491e",
            "te_pairs.csv": "36c14fc400cc415afe66dab7ca8750b21946bcf46335c4e3fd1a0566b93521b0",
            "timeseries.csv": "776a38ec72320ab778cb5e3883ef23f698bf00066a372059633051db585e5a33",
        }),
        "idealized": (dict(vehicle_count=4, protocol="taoi",
                           channel_mode="idealized_slotted"), {
            "pdr_bins.csv": "3ea8acfdf2055f39c3655d16a7779a4a0cf375945b59da652209ff28f7ba68dd",
            "report.json": "e38466d727e2632878fa4c9e86edfd90a92db7c1b051facf78fa6ecadc158d20",
            "summary.csv": "0866a6699730cdc46c282f6b2a9487c5901f14495cfca4a6e23f17afa70542b2",
            "te_pairs.csv": "300982020058bb0574ef60422a7d1366c3adee0a402827c0ddafe373a14e86db",
            "timeseries.csv": "6a13e8d001f64ef553b9d3ec282bd36852cf5c17e1d70ea8ac9182c50ea455a9",
        }),
        # each slot boundary falls 1-3 ns after a tick, so the slot's
        # payload is posed along its lane with dt != 0
        "slotted_between_ticks": (dict(vehicle_count=4, protocol="taoi",
                                       channel_mode="idealized_slotted",
                                       mobility_tick_s=1 / 3, slot_s=1.0), {
            "pdr_bins.csv": "3ea8acfdf2055f39c3655d16a7779a4a0cf375945b59da652209ff28f7ba68dd",
            "report.json": "208c28da976488650020b8958008027527e6aa752ae0a06857b06815051610e0",
            "summary.csv": "74e9b22b5359b2b2344c155f1954ebfdec354bda5eabecee132d9b552f711261",
            "te_pairs.csv": "76fa7f7a43f43ee27b983889a3784e579dc80c0d815b8c02558788bdfd9c660b",
            "timeseries.csv": "bcf3a5cd203d72dcc2d4f15194bd0b8c02931aef25d38aef846a399640d62c6a",
        }),
        # payloads are posed from trace queries, not along their lanes
        "replay": (dict(protocol="aoi", trace_path="krauss.csv"), {
            "pdr_bins.csv": "05ed68889536fcb3b8bbc84150a1e68b24ffc1480f02c5d9408b325869cd013c",
            "report.json": "aeac88a3496f0b66493f6cf6b77eb35f7863f1d3701927e8940de1f2dacd03c9",
            "summary.csv": "f565d55fb11fc82e208e5bf21e79e5f0e5238159217edfa1dae2298a828926d4",
            "te_pairs.csv": "2841cc4fee6fc169caa970c56ee482957f54f9cf620b95427b5b1328e8ca96f8",
            "timeseries.csv": "4899096f8f5a3a46a2411a03f9ec8447ef60ea291c26f65f55705a41db0710a4",
        }),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_artifact_digests(self, tmp_path, monkeypatch, name):
        kw, digests = self.RUNS[name]
        base = dict(vehicle_count=12, duration_s=3.0, seed=1)
        if "trace_path" in kw:
            monkeypatch.chdir(tmp_path)
            run_simulation(SimConfig(**base, dump_trace_path=kw["trace_path"]))
        out = tmp_path / "artifacts"
        emit_reports([run_simulation(SimConfig(**{**base, **kw}))],
                     out_dir=str(out))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
        assert got == digests


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

    def test_a_density_that_does_not_fit_the_road_fails_up_front(
            self, tmp_path, capsys, monkeypatch):
        # 200 vehicles put 67 on the outer 244 m ring of a 100 x 30 m road
        cfg = write_config(tmp_path, vehicle_count=30, duration_s=1.0,
                           road_length=100.0, road_width=30.0)
        self._assert_no_run(tmp_path, capsys, monkeypatch, [
            "--config", cfg, "--protocols", "fixed10hz,taoi",
            "--densities", "30,200", "--seeds", "1"])

    def test_a_density_the_trace_does_not_hold_fails_up_front(
            self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.csv"
        run_simulation(SimConfig(vehicle_count=4, duration_s=1.0, seed=1,
                                 dump_trace_path=str(trace)))
        cfg = write_config(tmp_path, vehicle_count=4, duration_s=1.0,
                           trace_path=str(trace))
        self._assert_no_run(tmp_path, capsys, monkeypatch, [
            "--config", cfg, "--protocols", "aoi", "--densities", "4,5",
            "--seeds", "1,2"])

    def test_a_trace_dump_for_two_runs_fails_up_front(self, tmp_path,
                                                      capsys, monkeypatch):
        # each run would overwrite the last one's dump
        cfg = write_config(tmp_path, vehicle_count=4, duration_s=1.0,
                           dump_trace_path=str(tmp_path / "dump.csv"))
        self._assert_no_run(tmp_path, capsys, monkeypatch, [
            "--config", cfg, "--protocols", "taoi", "--densities", "4,6",
            "--seeds", "1"])
        assert not (tmp_path / "dump.csv").exists()

    @staticmethod
    def _assert_no_run(tmp_path, capsys, monkeypatch, sweep_args):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return run_simulation(cfg)

        monkeypatch.setattr(cli, "run_simulation", counted)
        out = tmp_path / "sweep"
        rc = main(["sweep", *sweep_args, "--out", str(out)])
        assert "error:" in capsys.readouterr().err
        assert (rc, len(calls)) == (2, 0)
        assert not out.exists()


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SMALL = {"vehicle_count": 6, "duration_s": 1.0}


class TestBadInput:
    @pytest.mark.parametrize("config,sweep_args", [
        ({"duration_s": math.nan}, None),
        ({"vehicle_count": 4.5}, None),
        ({"range_m": 400}, None),
        ({"nakagami_bins": [[200, 1.5], [80, 3.0]]}, None),
        ({"queue": "replace"}, None),
        ({}, ["--densities", "3,x"]),
        ({}, ["--seeds", "1,,2"]),
        ({}, ["--densities", "6,1"]),
        ({"trace_path": 5}, None),
        ({"delta_min_s": 1e-10, "delta_init_s": 1e-10}, None),
        ({"aifs_us": -1.0}, None),
        ({"preamble_us": -2000.0}, None),
        ({"slot_time_us": -13}, None),
        ({"max_reception_range_m": -1, "range_m": -5}, None),
        ({"forced_schedule": [0, 1]}, None),
        ({"nakagami_bins": [1, 2]}, None),
        ({"nakagami_bins": "ab"}, None),
        ({}, ["--seeds", "1,1"]),
        ({}, ["--densities", "4,04"]),
        ({}, ["--protocols", "taoi,aoi,taoi"]),
        ({"nakagami_m_far": 0.003}, None),
        ({"bsm_size_bytes": 1, "data_rate_mbps": 1e12, "preamble_us": 0},
         None),
        ({}, ["--jobs", "0"]),
        *((bins, None) for bins in BAD_BINS),
        # a raw OverflowError in validate, and a ValueError from the
        # backoff draw mid-run
        ({"vehicle_count": 10 ** 30}, None),
        ({"vehicle_count": 20, "duration_s": 2.0, "cw": 10 ** 30}, None),
    ], ids=["nan_duration", "fractional_vehicle_count", "range_beyond_cutoff",
            "descending_nakagami_bins", "removed_queue_key",
            "bad_density_list", "bad_seed_list", "density_below_two",
            "non_string_trace_path", "interval_below_airtime",
            "negative_aifs", "negative_preamble", "negative_slot",
            "negative_ranges", "flat_forced_schedule", "flat_nakagami_bins",
            "string_nakagami_bins", "repeated_seed", "repeated_density",
            "repeated_protocol", "nakagami_below_half",
            "airtime_below_a_nanosecond", "no_jobs", *BAD_BIN_IDS,
            "vehicle_count_beyond_64_bits", "cw_beyond_64_bits"])
    def test_exits_2_with_a_message_and_no_traceback(self, tmp_path, capsys,
                                                      config, sweep_args):
        self._assert_rejected_up_front(tmp_path, capsys, config, sweep_args)

    @pytest.mark.parametrize("key", ["trace_path", "dump_trace_path"])
    def test_trace_path_in_a_missing_directory(self, tmp_path, capsys, key):
        # both fail before the run starts, although the dump is written
        # only after it
        self._assert_rejected_up_front(
            tmp_path, capsys, {key: str(tmp_path / "missing" / "t.csv")})

    def test_dump_trace_path_naming_a_directory(self, tmp_path, capsys):
        self._assert_rejected_up_front(tmp_path, capsys,
                                       {"dump_trace_path": str(tmp_path)})

    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    def test_out_naming_an_existing_file(self, tmp_path, capsys, monkeypatch,
                                         cmd):
        # the artifacts are written after every run: the file in their
        # way must stop the command before the first
        monkeypatch.setattr(cli, "run_simulation", None)
        out = tmp_path / "taken"
        out.write_text("mine")
        rc = _exit_code([cmd, "--config", write_config(tmp_path, **SMALL),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err
        assert out.read_text() == "mine"

    @pytest.mark.parametrize("first,last", [(5e-10, 1.0), (0.0, 1.0 - 5e-10)],
                             ids=["starts_after_zero", "ends_before_the_end"])
    def test_trace_span_short_of_the_run_by_a_hair(self, tmp_path, capsys,
                                                   first, last):
        times = [first] + [k * 0.1 for k in range(1, 10)] + [last]
        path = tmp_path / "short.csv"
        path.write_text("t,vehicle_id,x,y,speed,heading,lane\n" + "".join(
            f"{t!r},{vid},{10.0 * vid + t!r},2.0,1.0,0.0,0\n"
            for t in times for vid in range(SMALL["vehicle_count"])))
        self._assert_rejected_up_front(tmp_path, capsys,
                                       {"trace_path": str(path)})

    @staticmethod
    def _assert_rejected_up_front(tmp_path, capsys, config, sweep_args=None):
        # small, so that a value the checks let through fails fast
        path = write_config(tmp_path, **{**SMALL, **config})
        out = tmp_path / "out"
        argv = (["sweep", "--config", path, *sweep_args] if sweep_args
                else ["run", "--config", path])
        rc = _exit_code([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err
        # rejected before the first run starts
        assert not out.exists()

    @pytest.mark.parametrize("slots", ["0", "-1", "13", "six"])
    def test_oracle_slot_count_out_of_bounds(self, capsys, slots):
        rc = _exit_code(["oracle", "--slots", slots])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err


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
