"""Command line interface: subcommands, exit codes, deterministic output."""

import hashlib
import json

import pytest

from sushilab.cli import main
from sushilab.dynamics import RankOneMachine, chacon3_recipe, orbit


def spec_file(tmp_path, **overrides):
    d = {
        "name": "cli-spec",
        "transformation": "translation",
        "intensity": "1",
        "window": "[0,4)",
        "construction": "poisson",
        "battery": [{"test": "intensity"}],
        "replicates": 400,
        "seed": 7,
    }
    d.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    return path


class TestPresetsCommand:
    def test_lists_transformations_and_batteries(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("translation", "chacon3", "splitting-independence",
                     "thinning-counterexample", "sushi-identities",
                     "moment-decomposition", "id-identities"):
            assert name in out


class TestOrbitCommand:
    def test_translation_rows_exact(self, capsys):
        assert main(["orbit", "translation", "1/3", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,x_k"
        assert lines[1:] == ["0,1/3", "1,4/3", "2,7/3", "3,10/3"]

    def test_negative_power(self, capsys):
        main(["orbit", "translation", "0", "-2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "-2,-2"

    def test_unresolvable_orbit_exits_two(self, capsys):
        # 0 is the base of the chacon3 tower: T^-1 is undefined at every stage
        assert main(["orbit", "chacon3", "0", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: T^-1 undefined at 0")
        assert captured.out == ""

    def test_chacon3_matches_library(self, capsys):
        assert main(["orbit", "chacon3", "97/200", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        T = RankOneMachine(chacon3_recipe(), label="chacon3")
        expected = [f"{j},{y}" for j, y in orbit(T, "97/200", 6)]
        assert lines == expected


class TestRunCommand:
    def test_spec_file_exit_zero(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spec_hash:" in out
        assert "exit_status: 0" in out

    def test_failing_spec_propagates_exit(self, tmp_path):
        path = spec_file(
            tmp_path, battery=[{"test": "intensity", "target": "5"}])
        assert main(["run", str(path)]) == 1

    def test_preset_name_accepted(self, tmp_path, capsys, monkeypatch):
        # shrink a preset clone so the smoke run stays fast
        from sushilab import experiment

        small = dict(experiment.BATTERY_PRESETS["sushi-identities"])
        small = json.loads(json.dumps(small))
        small["replicates"] = 300
        small["battery"] = [{"test": "intensity"}]
        monkeypatch.setitem(experiment.BATTERY_PRESETS, "tiny", small)
        assert main(["run", "tiny"]) == 0

    def test_spec_missing_battery_param_errors(self, tmp_path, capsys):
        path = spec_file(
            tmp_path, battery=[{"test": "covariance", "A": "[0,1)"}])
        assert main(["run", str(path)]) == 2
        assert "battery[0].B" in capsys.readouterr().err

    @pytest.mark.parametrize("item,field", [
        ({"test": "intensity", "component": "0"}, "battery[0].component"),
        ({"test": "variance", "component": 5}, "battery[0].component"),
        ({"test": "intensity", "component": 0, "window": "0..1"},
         "battery[0].window"),
        ({"test": "intensity", "component": 0, "window": 3},
         "battery[0].window"),
    ])
    def test_split_item_errors_exit_two(self, tmp_path, capsys, item, field):
        path = spec_file(tmp_path, construction="split",
                         params={"probs": ["1/2", "1/2"]}, battery=[item])
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("construction,params,battery,line", [
        ("poisson", {}, [{"test": "intensity"},
                         {"test": "diagonal_weight", "depth": 13}],
         "error: battery[1].depth: must be an integer in 0..12"),
        ("split", {"probs": ["1/2", "1/2"]},
         [{"test": "cross_correlation", "pair": "ab"}], "error: battery[0].pair"),
        ("split", {"probs": ["1/2", "1/2"]}, [{"test": "round_trip"}],
         "error: battery[0].test: round_trip needs the"),
    ])
    def test_item_refused_at_load_exits_two(self, tmp_path, capsys, construction,
                                            params, battery, line):
        path = spec_file(tmp_path, construction=construction, params=params,
                         battery=battery)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(line) and not captured.out

    @pytest.mark.parametrize("overrides", [
        {"intensity": None},
        {"construction": "sushi", "params": {"law": [{"prob": "1", "weights": [1]}]}},
    ])
    def test_wrongly_typed_spec_value_exits_two(self, tmp_path, capsys, overrides):
        assert main(["run", str(spec_file(tmp_path, **overrides))]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert len(captured.err.splitlines()) == 1

    def test_unknown_spec_errors(self, capsys):
        assert main(["run", "no-such-spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_dir_artifacts(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert list((out / "reports").glob("*.json"))
        assert (out / "raw" / "realization.csv").exists()

    def test_threads_flag_keeps_output_identical(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        main(["run", str(path), "--threads", "1"])
        out1 = capsys.readouterr().out
        main(["run", str(path), "--threads", "4"])
        out4 = capsys.readouterr().out
        assert out1 == out4


class TestSummaryCommands:
    def test_split_summary(self, tmp_path, capsys):
        out = tmp_path / "split"
        assert main(["split", "--window", "[0,6)", "--replicates", "300",
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["target_rates"] == [0.5, 0.5]
        assert abs(summary["component_rates"][0] - 0.5) < 0.1
        assert (out / "realization_component0.csv").exists()
        assert (out / "realization_component1.csv").exists()

    def test_split_rejects_bad_probs(self, capsys):
        assert main(["split", "--probs", "1/2,1/3"]) == 2
        assert "probs" in capsys.readouterr().err

    def test_thin_summary(self, tmp_path, capsys):
        out = tmp_path / "thin"
        assert main(["thin-separation", "--window", "[-1,21)",
                     "--replicates", "300", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["core"] == "[0,20)"
        import math
        assert summary["target_rate"] == pytest.approx(math.exp(-2))
        assert (out / "realization.csv").exists()

    def test_thin_rejects_thin_window(self, capsys):
        assert main(["thin-separation", "--window", "[0,1)"]) == 2

    def test_mark_summary(self, capsys):
        assert main(["mark", "--window", "[0,6)", "--replicates", "300",
                     "--probs", "1/4,3/4"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["target_rates"] == [0.25, 0.75]
        assert len(summary["mark_rates"]) == 2

    def test_sushi_summary(self, tmp_path, capsys):
        out = tmp_path / "sushi"
        assert main(["sushi", "--replicates", "300", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["closed_form"]["mean"] == pytest.approx(8.0)
        assert summary["unit_c"] == "1/2"
        assert abs(summary["z_mean"]) < 4
        assert (out / "realization.csv").exists()

    def test_sushi_unit_c(self, capsys):
        assert main(["sushi", "--c", "unit", "--replicates", "300"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["c"] == summary["unit_c"]

    @pytest.mark.parametrize("command", ["split", "thin-separation", "mark", "sushi"])
    def test_summary_refuses_threads(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_summary_reruns_byte_identical(self, capsys):
        main(["mark", "--window", "[0,6)", "--replicates", "200"])
        first = capsys.readouterr().out
        main(["mark", "--window", "[0,6)", "--replicates", "200"])
        assert capsys.readouterr().out == first


# First 12 hex digits of sha256(stdout) for each summary subcommand.
SUMMARY_GOLDEN = [
    (["split", "--window", "[0,6)", "--replicates", "300"], "9a67691c27b5"),
    (["thin-separation", "--window", "[-1,21)", "--replicates", "300"],
     "cb5fe761d578"),
    (["mark", "--window", "[0,6)", "--replicates", "300",
      "--probs", "1/4,3/4"], "d6d5b526cbdc"),
    (["sushi", "--replicates", "300"], "f799460b08c7"),
]


@pytest.mark.parametrize("argv,digest", SUMMARY_GOLDEN,
                         ids=[a[0] for a, _ in SUMMARY_GOLDEN])
def test_summary_golden_stdout(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest
