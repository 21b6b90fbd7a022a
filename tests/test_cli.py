"""CLI surface tests: parsing, exit codes, file artifacts, idempotence."""

import json
import math

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
    def outcome(parser, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            parser.parse_args(argv)
        return stop.value.code, capsys.readouterr()

    def test_parser_of_the_named_commands_reads_like_the_full_one(self, capsys):
        for argv in self.LINES:
            full = self.outcome(build_parser(), argv, capsys)
            assert self.outcome(build_parser(set(argv)), argv, capsys) == full, argv
            assert full[1].out or full[1].err

    def test_only_the_named_commands_get_arguments(self, capsys):
        argv = ["beta-ub", "--object", "bushing", "--mu", "0,0,0.4", "--la", "0.9", "--alpha", "18deg"]
        assert build_parser(set(argv)).parse_args(argv) == build_parser().parse_args(argv)
        code, out = self.outcome(build_parser({"ci"}), argv, capsys)
        assert code == 2 and "unrecognized arguments: --object" in out.err


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
        again = self.run_script(self.SCRIPT_A, tmp_path / "a2")
        assert len(first) == 9 and again == first
        assert other.keys() == {"region_tube_form_closure_la0.6.csv", "region_tube_form_closure_la0.6.json",
                                "trajectory_tube.csv", "grasp_plane_tube.csv", "grasp_plane_tube.json",
                                "bound.json", "plan.json"}
        assert load_catalog()["bushing"][0].D == 34.0
