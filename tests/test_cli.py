"""CLI surface tests: parsing, exit codes, file artifacts, idempotence."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pivotgrasp.cli import (
    CliValidationError,
    build_parser,
    main,
    parse_angle,
    parse_mu,
    parse_schedule,
)
from pivotgrasp.geometry import load_catalog


class TestParsing:
    def test_angle_suffixes(self):
        assert parse_angle("18deg") == pytest.approx(math.radians(18.0))
        assert parse_angle("0.5rad") == 0.5
        assert parse_angle("0.5") == 0.5
        with pytest.raises(CliValidationError):
            parse_angle("ten degrees")

    def test_mu_triple(self):
        fr = parse_mu("0.2,0.4,0.4")
        assert (fr.mu_s, fr.mu_h, fr.mu_g) == (0.2, 0.4, 0.4)
        with pytest.raises(CliValidationError):
            parse_mu("0.2,0.4")

    def test_schedule(self):
        assert parse_schedule("0.9:0.65") == (0.9, 0.65)
        assert parse_schedule("0.28") == (0.28, 0.28)
        with pytest.raises(CliValidationError):
            parse_schedule("a:b")

    def test_non_numeric_mu_exits_2(self, capsys):
        code = main(["beta-ub", "--object", "bushing", "--mu", "a,0,0.4", "--la", "0.9", "--alpha", "18deg"])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot parse friction set 'a,0,0.4'\n"

    def test_non_numeric_la_list_exits_2(self, tmp_path, capsys):
        code = main(["region", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9,x",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot parse l_a list '0.9,x'\n"
        assert list(tmp_path.iterdir()) == []


class TestRegion:
    def test_unknown_object_exits_2_without_files(self, tmp_path, capsys):
        code = main([
            "region", "--object", "flux_capacitor", "--mu", "0,0,0",
            "--la", "0.7", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert "unknown object" in capsys.readouterr().err

    def test_bad_la_exits_2_without_files(self, tmp_path):
        code = main([
            "region", "--object", "bushing", "--mu", "0,0,0",
            "--la", "1.7", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_frictionless_flat_column_empty(self, tmp_path):
        code = main([
            "region", "--object", "bushing", "--mu", "0,0,0", "--la", "0.7",
            "--alpha-step", "5", "--beta-step", "15", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        csv_path = tmp_path / "region_bushing_force_balance_la0.7.csv"
        rows = csv_path.read_text().strip().split("\n")[1:]
        # first data column is beta = 0: all cells 0
        assert all(row.split(",")[1] == "0" for row in rows)
        meta = json.loads((tmp_path / "region_bushing_force_balance_la0.7.json").read_text())
        assert meta["mode"] == "force_balance"

    def test_multiple_la_values_write_pairs(self, tmp_path):
        code = main([
            "region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7,0.9",
            "--alpha-step", "10", "--beta-step", "30", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "region_bushing_force_balance_la0.7.csv",
            "region_bushing_force_balance_la0.7.json",
            "region_bushing_force_balance_la0.9.csv",
            "region_bushing_force_balance_la0.9.json",
        ]

    def test_la_values_that_share_a_file_name_exit_2_without_files(self, tmp_path, capsys):
        for la, other in (("0.7", "0.7000001"), ("0.7", "0.7")):
            code = main([
                "region", "--object", "bushing", "--mu", "0,0,0", "--la", f"0.5,{la},{other}",
                "--alpha-step", "30", "--beta-step", "30", "--out-dir", str(tmp_path),
            ])
            assert code == 2
            assert list(tmp_path.iterdir()) == []
            assert capsys.readouterr().err == (
                f"error: --la values {la} and {other} both name region_bushing_force_balance_la0.7.csv\n"
            )

    def test_idempotent_and_parallel_independent(self, tmp_path):
        args = [
            "region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.8",
            "--alpha-step", "3", "--beta-step", "3",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "a"), "--parallel", "1"]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b"), "--parallel", "1"]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "c"), "--parallel", "2"]) == 0
        ref = (tmp_path / "a" / "region_bushing_force_balance_la0.8.csv").read_bytes()
        assert (tmp_path / "b" / "region_bushing_force_balance_la0.8.csv").read_bytes() == ref
        assert (tmp_path / "c" / "region_bushing_force_balance_la0.8.csv").read_bytes() == ref


class TestBetaUb:
    def test_finite_bound(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        code = main([
            "beta-ub", "--object", "bushing", "--mu", "0,0,0.4",
            "--la", "0.9", "--alpha", "1deg", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["beta_ub_rad"] > math.atan2(34.0, 17.0)
        assert json.loads(capsys.readouterr().out) == doc

    def test_not_finite(self, capsys):
        code = main([
            "beta-ub", "--object", "bushing", "--mu", "0,0,0.4",
            "--la", "0.3", "--alpha", "61deg",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"beta_ub_rad": "none"}

    def test_infeasible_at_start_exits_4(self, capsys):
        code = main([
            "beta-ub", "--object", "bushing", "--mu", "0,0,0.4",
            "--la", "0.4", "--alpha", "10deg",
        ])
        assert code == 4
        assert json.loads(capsys.readouterr().out) == {"error": "infeasible_at_start"}

    def test_delta_outside_half_diameter_exits_2(self, capsys):
        code = main([
            "beta-ub", "--object", "bushing", "--mu", "0,0,0.4",
            "--la", "0.9", "--alpha", "18deg", "--delta", "17",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --delta must lie in (0, D/2) = (0, 17.0)\n"

    def test_every_transition_is_written(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        code = main([
            "beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.4",
            "--alpha", "60deg", "--delta", "7.2", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["transitions_rad"]) == 2
        assert doc["transitions_rad"][0] == doc["beta_ub_rad"]
        assert json.loads(capsys.readouterr().out) == doc


class TestWrench:
    def test_frictionless_pairs_coincide(self, capsys):
        code = main([
            "wrench", "--object", "bushing", "--mu", "0,0,0",
            "--la", "0.9", "--alpha", "18deg", "--beta", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "label,m,fx,fy"
        assert len(lines) == 7
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert rows["S1"] == rows["S2"]
        assert rows["H1"] == rows["H2"]
        assert rows["G1"] == rows["G2"]

    def test_writes_file(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main([
            "wrench", "--object", "bushing", "--mu", "0.2,0.4,0.4",
            "--la", "0.9", "--alpha", "18deg", "--beta", "30deg", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("label,m,fx,fy\n")


class TestTraj:
    def test_plan_file_schema(self, tmp_path):
        out = tmp_path / "plan.json"
        align = tmp_path / "align.json"
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--waypoints", "8", "--out", str(out), "--align-out", str(align),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"p_c", "r", "theta_rad", "waypoints"}
        assert len(doc["waypoints"]) == 8
        assert doc["theta_rad"] == pytest.approx(math.pi / 2, rel=1e-6)
        for w in doc["waypoints"]:
            r = math.hypot(w["x"] - doc["p_c"][0], w["y"] - doc["p_c"][1])
            assert r == pytest.approx(doc["r"], rel=1e-6)
        align_doc = json.loads(align.read_text())
        assert len(align_doc["waypoints"]) == 8

    def test_bad_theta_exits_2(self, tmp_path):
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--theta", "120deg", "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert not (tmp_path / "p.json").exists()

    def test_bad_center_exits_2(self, tmp_path):
        for bad in ("12", "1,2,3", "a,b"):
            code = main([
                "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
                "--center", bad, "--out", str(tmp_path / "p.json"),
            ])
            assert code == 2
        assert not (tmp_path / "p.json").exists()

    def test_explicit_center_shifts_pivot(self, tmp_path):
        out = tmp_path / "p.json"
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--center", "134,17", "--waypoints", "4", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["p_c"] == [100.0, 0.0]

    def test_default_theta_ends_upright(self, tmp_path):
        out = tmp_path / "p.json"
        argv = ["traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", "--beta0", "30deg"]
        assert main([*argv, "--waypoints", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["theta_rad"] == 1.04719755  # 60 deg: 30 deg plus 60 deg ends at 90 deg
        assert doc["waypoints"][-1]["phi"] == pytest.approx(math.radians(18.0 + 90.0))

    @pytest.mark.parametrize("extra", [["--beta0", "30deg", "--theta", "90deg"], ["--beta0", "90deg"]])
    def test_a_plan_past_upright_exits_2(self, tmp_path, extra):
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", *extra,
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta0", ["30deg", "60deg"])
    def test_default_center_keeps_the_ground_corner_at_the_origin(self, tmp_path, beta0):
        out = tmp_path / "p.json"
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--beta0", beta0, "--waypoints", "4", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["p_c"] == [0.0, 0.0]

    def test_clamp_without_mu_exits_2(self, tmp_path, capsys):
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--clamp-beta-ub", "--out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --clamp-beta-ub requires --mu\n"
        assert list(tmp_path.iterdir()) == []

    def test_clamp_infeasible_at_start_exits_4_without_files(self, tmp_path, capsys):
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", "--mu", "0,0,0",
            "--clamp-beta-ub", "--out", str(tmp_path / "p.json"), "--align-out", str(tmp_path / "a.json"),
        ])
        assert code == 4
        assert json.loads(capsys.readouterr().out) == {"error": "infeasible_at_start"}
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg",
            "--out", str(blocker / "p.json"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error: ")


class TestSimulate:
    def test_emits_trajectory_and_overlay_map(self, tmp_path):
        code = main([
            "simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4",
            "--alpha", "18deg", "--la-schedule", "0.9:0.65",
            "--beta-step", "5", "--la-step", "0.1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        traj = (tmp_path / "trajectory_bushing.csv").read_text().strip().split("\n")
        assert traj[0] == "beta_deg,l_a,stable"
        assert len(traj) == 1 + 19
        first = traj[1].split(",")
        assert first[:2] == ["0", "0.9"]
        last = traj[-1].split(",")
        assert last[:2] == ["90", "0.65"]
        plane = (tmp_path / "grasp_plane_bushing.csv").read_text().strip().split("\n")
        assert plane[0].startswith("l_a/beta_deg,0,5,")
        meta = json.loads((tmp_path / "grasp_plane_bushing.json").read_text())
        assert meta["alpha_rad"] == pytest.approx(math.radians(18.0), rel=1e-6)


    def test_parallel_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as stop:
            main([
                "simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg",
                "--la-schedule", "0.9:0.65", "--out-dir", str(tmp_path), "--parallel", "2",
            ])
        assert stop.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _floats(doc) -> list[float]:
    """Every float in a parsed JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [v for item in doc for v in _floats(item)]
    return [doc] if isinstance(doc, float) else []


def test_every_json_float_keeps_9_significant_digits(tmp_path, capsys):
    """Every JSON file and printed JSON text rounds each float, echoed inputs included."""
    catalog = tmp_path / "objects.json"
    catalog.write_text(json.dumps([{"name": "tube", "a_mm": 34.0000000001, "D_mm": 34.0, "d_mm": 28.0,
                                    "gripper": {"w_mm": 20.0}}]))
    out = tmp_path / "out"
    obj = ["--object", "tube", "--objects", str(catalog)]
    grid = ["--la", "0.7", "--alpha-step", "10", "--beta-step", "10", "--out-dir", str(out)]
    ub = ["beta-ub", *obj, "--mu", "0,0,0.4"]
    calls = [
        (["region", *obj, "--mu", "0.2,0.4,0.4", *grid], 0),
        (["region", *obj, "--mu", "0.2,0.4,0.4", *grid, "--mode", "form-closure"], 0),
        (["simulate", *obj, "--mu", "0.2,0.4,0.4", "--alpha", "18deg", "--la-schedule", "0.9:0.65",
          "--beta-step", "10", "--la-step", "0.3", "--out-dir", str(out)], 0),
        ([*ub, "--la", "0.9", "--alpha", "18deg", "--out", str(out / "finite.json")], 0),
        ([*ub, "--la", "0.4", "--alpha", "60deg", "--delta", "7.2", "--out", str(out / "two.json")], 0),
        ([*ub, "--la", "0.4", "--alpha", "10deg", "--out", str(out / "start.json")], 4),
        (["traj", *obj, "--la", "0.9", "--alpha", "18deg", "--beta0", "30deg", "--waypoints", "8",
          "--out", str(out / "plan.json"), "--align-out", str(out / "align.json")], 0),
    ]
    printed = []
    for argv, want in calls:
        assert main(argv) == want
        stdout = capsys.readouterr().out
        if argv[0] == "beta-ub":
            printed.append(json.loads(stdout))
    assert len(printed[1]["transitions_rad"]) == 2
    docs = printed + [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    assert len(docs) == 3 + 8
    values = [v for doc in docs for v in _floats(doc)]
    assert [v for v in values if v != float(f"{v:.9g}")] == []
    assert 0.9 in values and 34.0 in values


class TestCi:
    def test_experiment_table(self, capsys):
        code = main([
            "ci", "10/10", "9/10", "8/10", "10/10", "10/10", "3/10", "0/10",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 2 + 7
        row = out[2].split()
        assert row[-2] == "72.25%" and row[-1] == "100.00%"

    def test_csv_output_and_names(self, tmp_path):
        out = tmp_path / "ci.csv"
        code = main([
            "ci", "9/10", "3/10", "--names", "good,poor", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "name,successes,trials,rate_pct,ci_lower_pct,ci_upper_pct"
        assert lines[1].startswith("good,9,10,90,59.5843615,")
        assert lines[2].startswith("poor,3,10,30,10.7789287,")

    def test_infile(self, tmp_path, capsys):
        f = tmp_path / "trials.csv"
        f.write_text("alpha,10,10\nbeta,0,10\n")
        assert main(["ci", "--infile", str(f)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out

    def test_bad_pair_exits_2(self):
        assert main(["ci", "ten-of-ten"]) == 2

    def test_no_records_exits_2(self):
        assert main(["ci"]) == 2


class TestParser:
    # Command lines whose output comes from argparse itself: help, usage
    # errors, unknown or missing subcommands and arguments.
    LINES = [[], ["--help"], ["-h", "ci"], ["bogus"], ["--foo", "ci"], ["ci", "--bad"],
             ["region"], ["region", "--objec", "bushing"], ["wrench", "--help", "extra"]] + [
        [name, flag] for name in ("region", "beta-ub", "traj", "simulate", "wrench", "ci")
        for flag in ("--help", "--object")
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        return stop.value.code, capsys.readouterr()

    def test_main_reads_like_a_new_parser_before_and_after_other_calls(self, tmp_path, capsys):
        for _ in range(2):
            for argv in self.LINES:
                new = self.outcome(build_parser().parse_args, argv, capsys)
                assert self.outcome(main, argv, capsys) == new, argv
                assert new[1].out or new[1].err
            assert main(["ci", "9/10"]) == 0
            assert main(["beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9",
                         "--alpha", "18deg", "--out", str(tmp_path / "bound.json")]) == 0
            capsys.readouterr()

    def test_three_calls_share_one_parser(self, monkeypatch, capsys):
        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording_parse_args(self, *args, **kwargs):
            used.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
        for _ in range(3):
            assert main(["ci", "9/10"]) == 0
        assert len(used) == 3 and used[0] is used[1] is used[2]


class TestReuse:
    """Calling `main` again in one process gives the same results."""

    SCRIPT_A = [
        ["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7",
         "--alpha-step", "10", "--beta-step", "10", "--out-dir", "{d}"],
        ["simulate", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--alpha", "18deg",
         "--la-schedule", "0.9:0.65", "--beta-step", "5", "--la-step", "0.1", "--out-dir", "{d}"],
        ["beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9", "--alpha", "18deg",
         "--out", "{d}/bound.json"],
        ["traj", "--object", "bushing", "--la", "0.9", "--alpha", "18deg", "--mu", "0,0,0.4",
         "--clamp-beta-ub", "--waypoints", "8", "--out", "{d}/plan.json"],
        ["wrench", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.9", "--alpha", "18deg",
         "--beta", "30deg", "--out", "{d}/wrench.csv"],
        ["ci", "9/10", "3/10", "--csv", "{d}/ci.csv"],
    ]
    # The same subcommands with every object option set, on another catalog.
    SCRIPT_B = [
        ["region", "--object", "tube", "--objects", "{cat}", "--width", "6", "--delta", "4",
         "--mu", "0,0,0.4", "--la", "0.6", "--alpha-step", "15", "--beta-step", "15",
         "--mode", "form-closure", "--out-dir", "{d}"],
        ["simulate", "--object", "tube", "--objects", "{cat}", "--delta", "4", "--mu", "0,0,0.4",
         "--alpha", "30deg", "--la-schedule", "0.8", "--beta-step", "15", "--la-step", "0.5", "--out-dir", "{d}"],
        ["beta-ub", "--object", "tube", "--objects", "{cat}", "--width", "6", "--mu", "0,0,0.4",
         "--la", "0.7", "--alpha", "40deg", "--out", "{d}/bound.json"],
        ["traj", "--object", "tube", "--objects", "{cat}", "--width", "6", "--la", "0.7",
         "--alpha", "40deg", "--out", "{d}/plan.json"],
        ["wrench", "--object", "tube", "--objects", "{cat}", "--delta", "4", "--mu", "0,0,0",
         "--la", "0.5", "--alpha", "40deg", "--beta", "0"],
        ["ci", "1/2", "--z", "2.5"],
    ]

    def run_script(self, script, out, **fmt):
        for argv in script:
            assert main([a.format(d=out, **fmt) for a in argv]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_a_rerun_after_other_calls_writes_the_same_bytes(self, tmp_path, capsys):
        catalog = tmp_path / "objects.json"
        catalog.write_text(json.dumps([{"name": "tube", "a_mm": 50, "D_mm": 30, "d_mm": 24,
                                        "gripper": {"w_mm": 10, "stroke_mm": 80}}]))
        first = self.run_script(self.SCRIPT_A, tmp_path / "a1")
        mutated = load_catalog()
        mutated.clear()
        mutated["bushing"] = load_catalog(catalog)["tube"]
        other = self.run_script(self.SCRIPT_B, tmp_path / "b", cat=catalog)
        with pytest.raises(SystemExit) as stop:
            main(["ci", "--bad"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --bad" in capsys.readouterr().err
        again = self.run_script(self.SCRIPT_A, tmp_path / "a2")
        assert len(first) == 9 and again == first
        assert other.keys() == {"region_tube_form_closure_la0.6.csv", "region_tube_form_closure_la0.6.json",
                                "trajectory_tube.csv", "grasp_plane_tube.csv", "grasp_plane_tube.json",
                                "bound.json", "plan.json"}
        assert load_catalog()["bushing"][0].D == 34.0


class TestEntryPoint:
    """`python -m pivotgrasp.cli` run from another working directory writes what `main` writes.

    With `PYTHONPATH` set to `src` the package, and so `data/objects.json`, still comes from the
    source tree: this checks the module entry point and that no path depends on the working
    directory, not that an installed package ships its data files (CI's "Installed entry point"
    step checks that).
    """

    CALLS = [
        ["region", "--object", "bushing", "--mu", "0.2,0.4,0.4", "--la", "0.7", "--alpha-step", "10",
         "--beta-step", "10", "--out-dir", "out"],
        ["beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9", "--alpha", "18deg",
         "--out", "out/beta_ub.json"],
    ]

    def test_a_module_run_writes_what_an_in_process_run_writes(self, tmp_path, monkeypatch, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outputs = {}
        for side in ("module", "in_process"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            for argv in self.CALLS:
                if side == "module":
                    done = subprocess.run([sys.executable, "-m", "pivotgrasp.cli", *argv], env=env,
                                          capture_output=True, text=True, timeout=120)
                    code, out, err = done.returncode, done.stdout, done.stderr
                else:
                    code = main(argv)
                    out, err = capsys.readouterr()
                assert code == 0, err
                outputs.setdefault(side, []).append(out)
            outputs[side].append({p.name: p.read_bytes() for p in Path("out").iterdir()})
        assert len(outputs["module"][-1]) == 3
        assert outputs["module"] == outputs["in_process"]
