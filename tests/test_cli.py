"""Command-line interface tests, run in-process through ``cli.main``."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from nestrod import cli
from nestrod.errors import NoConvergence
from nestrod.scenario import (canonical_json, parse_text, preset,
                              preset_scenario)
from nestrod.shooting import shoot

_STALLING = """\
name stall_case
tube {
  length_mm 200
  elastic_modulus_GPa 60
  shear_modulus_GPa 23
  outer_diameter_mm 1.0
  inner_diameter_mm 0.8
}
tendon {
  tension_N 100
  routing {
    kind straight
    offset_mm [3, 0]
  }
}
solver {
  steps_per_segment 8
}
"""


_UNCOVERED_ROUTING = """\
name uncovered_routing
tube {
  length_mm 100
  elastic_modulus_GPa 60
  shear_modulus_GPa 23
  outer_diameter_mm 1.0
  inner_diameter_mm 0.8
}
tendon {
  tension_N 1
  routing {
    kind piecewise
    stations_mm [0, 50]
    angles_deg [0, 30]
    radii_mm [3, 3]
  }
}
"""

# The termination lies within the station tolerance of the tube tip, so the
# solver anchors the tendon at the tip, past the routing's last knot.
_SNAPPED_TERMINATION = """\
name snapped_termination
tube {
  length_mm 100
  elastic_modulus_GPa 60
  shear_modulus_GPa 23
  outer_diameter_mm 1.0
  inner_diameter_mm 0.8
}
tendon {
  tension_N 1
  termination_mm 99.9995
  routing {
    kind piecewise
    stations_mm [0, 99.9995]
    angles_deg [0, 30]
    radii_mm [3, 3]
  }
}
"""


# A well-posed tube whose solver block the settings tests fill in.
_SOLVER_SETTING = """\
name solver_setting
tube {{
  length_mm 100
  elastic_modulus_GPa 60
  shear_modulus_GPa 23
  outer_diameter_mm 1.0
  inner_diameter_mm 0.8
}}
tendon {{
  tension_N 1
  routing {{
    kind straight
    offset_mm [3, 0]
  }}
}}
solver {{
  {setting}
}}
"""


# Names that are not plain file names: each would put an output outside
# --out, or name the directory itself.
_UNSAFE_NAMES = ["", ".", "..", "../escaped", "sub/escaped", "sub\\escaped"]


def _named_scenario(tmp_path, name):
    """The settings scenario renamed ``name``, written as JSON."""
    tree = parse_text(_SOLVER_SETTING.format(setting="steps_per_segment 10"))
    tree["name"] = name
    path = tmp_path / "named.json"
    path.write_text(canonical_json(tree))
    return path


def _payload_text(segment=None, **edits):
    """A well-formed two-tube solution payload of one two-station segment,
    as JSON text, with ``edits`` to its top level and ``segment`` edits to
    its segment."""
    eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    seg = {"start": 0.0, "end": 0.1, "tubes": [0, 1], "stations": [0.0, 0.1],
           "p": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.1]], "R": [eye, eye],
           "u1": [[0.0] * 3] * 2, "v1": [[0.0, 0.0, 1.0]] * 2,
           "theta": [[0.0]] * 2, "u_d3": [[0.0]] * 2, "beta": [[1.0]] * 2}
    seg.update(segment or {})
    payload = {"format": "nestrod-solution", "version": 1, "tubes": 2,
               "total_length": 0.1, "segments": [seg]}
    payload.update(edits)
    return json.dumps(payload)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestPresetCommand:
    def test_list(self, capsys):
        assert cli.main(["preset"]) == 0
        out = capsys.readouterr().out
        assert "ctr_theta_0" in out
        assert "two_tube_helical" in out
        assert "placeholders]" in out       # some presets carry stand-ins
        assert "complete]" in out           # and some are fully documented

    def test_print_canonical(self, capsys):
        assert cli.main(["preset", "ctr_theta_0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("name ctr_theta_0")
        assert "digest sha256:" in captured.err

    def test_print_json_twin(self, capsys):
        assert cli.main(["preset", "ctr_theta_0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "ctr_theta_0"
        assert len(doc["tube"]) == 2

    def test_unknown_preset(self, capsys):
        assert cli.main(["preset", "never_heard_of_it"]) == 1
        assert "available" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_writes_all_formats(self, tmp_path, capsys):
        rc = cli.main(["solve", "ctr_theta_90", "--csv", "--svg",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "tip [m]:" in out
        payload = json.loads((tmp_path / "ctr_theta_90.json").read_text())
        # The summary's count is every Newton solve on both grids, the
        # polish included, not a count of tension steps.
        solves = payload["report"]["continuation_steps"]
        assert f"({solves} Newton solves)" in out
        assert payload["format"] == "nestrod-solution"
        assert payload["scenario"] == "ctr_theta_90"
        assert payload["report"]["converged"] is True
        assert len(payload["digest"]) == 64
        csv_text = (tmp_path / "ctr_theta_90.csv").read_text()
        assert csv_text.count("\n") > 100
        svg_text = (tmp_path / "ctr_theta_90.svg").read_text()
        assert svg_text.startswith("<svg")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "ctr_theta_0", "--out", str(a)]) == 0
        assert cli.main(["solve", "ctr_theta_0", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "ctr_theta_0.json").read_bytes() == \
            (b / "ctr_theta_0.json").read_bytes()

    def test_out_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NESTROD_OUT_DIR", str(tmp_path / "envdir"))
        assert cli.main(["solve", "ctr_theta_0"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envdir" / "ctr_theta_0.json").exists()

    def test_placeholders_need_opt_in(self, tmp_path, capsys):
        rc = cli.main(["solve", "two_tube_0", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "explicit opt-in" in err
        assert "hint: pass --placeholders" in err
        assert not (tmp_path / "two_tube_0.json").exists()

    def test_no_placeholder_hint_for_other_problems(self, tmp_path, capsys):
        # A problem that merely mentions the word is no opt-in error, and
        # --placeholders cannot help with it.
        path = tmp_path / "note.scn"
        path.write_text(_STALLING + "placeholder_note 1\n", encoding="utf-8")
        rc = cli.main(["solve", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "placeholder_note" in err
        assert "hint:" not in err

    def test_steps_flag(self, tmp_path, capsys):
        rc = cli.main(["solve", "ctr_theta_0", "--out", str(tmp_path),
                       "--steps", "60"])
        assert rc == 0
        payload = json.loads((tmp_path / "ctr_theta_0.json").read_text())
        assert len(payload["segments"][0]["stations"]) == 61
        capsys.readouterr()

    def test_steps_is_the_solver_override(self, tmp_path, capsys):
        # --steps N is short for --set solver.steps_per_segment=N, given
        # after every --set: the same bytes, and the count enters the digest.
        runs = {}
        for tag, flags in [
                ("steps20", ["--steps", "20"]),
                ("set20", ["--set", "solver.steps_per_segment=20"]),
                ("set30steps20", ["--set", "solver.steps_per_segment=30",
                                  "--steps", "20"]),
                ("steps30", ["--steps", "30"])]:
            rc = cli.main(["solve", "two_tube_0", "--placeholders", *flags,
                           "--out", str(tmp_path / tag)])
            assert rc == 0
            runs[tag] = (tmp_path / tag / "two_tube_0.json").read_bytes()
        capsys.readouterr()
        assert runs["set20"] == runs["steps20"] == runs["set30steps20"]
        digests = [json.loads(runs[tag])["digest"]
                   for tag in ("steps20", "steps30")]
        assert digests[0] != digests[1]

    def test_misspelt_override_block_exits_1(self, tmp_path, capsys):
        rc = cli.main(["solve", "two_tube_0", "--placeholders",
                       "--set", "nosuch.key=2", "--out", str(tmp_path)])
        assert rc == 1
        assert "no such block 'nosuch'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_strategy_flag(self, tmp_path, capsys):
        # strategy_ab_demo's spiralling tendons press on whichever tube the
        # strategy picks, and its curved middle tube splits the tips wide.
        runs = []
        for strategy in ("outermost", "terminating"):
            rc = cli.main(["solve", "strategy_ab_demo", "--strategy", strategy,
                           "--steps", "20", "--out", str(tmp_path / strategy)])
            assert rc == 0
            runs.append(json.loads(
                (tmp_path / strategy / "strategy_ab_demo.json").read_text()))
        capsys.readouterr()
        a, b = runs
        assert a["digest"] != b["digest"]
        gap = math.dist(a["tip_position"], b["tip_position"])
        assert gap > 0.05 * a["total_length"]

    def test_set_override(self, tmp_path, capsys):
        # twisting the overridden scenario's inner tube by 45 degrees must
        # reproduce the dedicated 45-degree preset
        rc = cli.main(["solve", "ctr_theta_0", "--out", str(tmp_path),
                       "--set", "tube.1.base_twist_deg=45"])
        assert rc == 0
        capsys.readouterr()
        moved = json.loads((tmp_path / "ctr_theta_0.json").read_text())
        rc = cli.main(["solve", "ctr_theta_45", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        target = json.loads((tmp_path / "ctr_theta_45.json").read_text())
        for a, b in zip(moved["tip_position"], target["tip_position"]):
            assert a == pytest.approx(b, abs=1e-9)

    def test_nonconvergence_exits_2_with_report(self, tmp_path, capsys):
        scn = tmp_path / "stall_case.scn"
        scn.write_text(_STALLING)
        rc = cli.main(["solve", str(scn), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "did not converge" in err
        failed = json.loads((tmp_path / "stall_case_failed.json").read_text())
        assert failed["format"] == "nestrod-failure"
        assert failed["report"]["converged"] is False
        assert failed["report"]["iterations"] >= 1

    def test_uncovered_routing_exits_1_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        from nestrod import shooting

        def never(*args, **kwargs):
            raise AssertionError("integrated an invalid assembly")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        scn = tmp_path / "uncovered_routing.scn"
        scn.write_text(_UNCOVERED_ROUTING)
        assert cli.main(["solve", str(scn), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "routing knots span [0.0, 0.05] m" in err
        assert not list(tmp_path.glob("*.json"))

    def test_snapped_termination_exits_1_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        from nestrod import shooting

        def never(*args, **kwargs):
            raise AssertionError("integrated an invalid assembly")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        scn = tmp_path / "snapped_termination.scn"
        scn.write_text(_SNAPPED_TERMINATION)
        assert cli.main(["solve", str(scn), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "tendon runs over [0.0, 0.1] m" in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("setting, flags, message", [
        ("steps_per_segment 0", [], "steps_per_segment must be a positive"),
        ("steps_per_segment -3", [], "steps_per_segment must be a positive"),
        ("steps_per_segment 2.5", [], "positive integer, got 2.5"),
        ("steps_per_segment 20", ["--steps", "0"], "positive integer, got 0"),
        ("steps_per_segment 20", ["--steps", "-5"],
         "positive integer, got -5"),
        ("moment_tol_Nm 0", [], "moment_tol must be positive and finite"),
        ("force_tol_N -1", [], "force_tol must be positive and finite"),
    ])
    def test_invalid_solver_setting_exits_1_before_integrating(
            self, tmp_path, capsys, monkeypatch, setting, flags, message):
        from nestrod import shooting

        def never(*args, **kwargs):
            raise AssertionError("integrated with invalid solver settings")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        scn = tmp_path / "solver_setting.scn"
        scn.write_text(_SOLVER_SETTING.format(setting=setting))
        rc = cli.main(["solve", str(scn), "--out", str(tmp_path), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver: ")
        assert message in err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("name", _UNSAFE_NAMES)
    def test_name_must_be_a_plain_file_name(self, tmp_path, capsys,
                                            monkeypatch, name):
        # Outputs are named after the scenario, so its name is checked
        # before any solve or write.
        def never(*args, **kwargs):
            raise AssertionError("solved a scenario with an unsafe name")

        monkeypatch.setattr(cli, "shoot", never)
        scn = _named_scenario(tmp_path, name)
        rc = cli.main(["solve", str(scn), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not a plain file name" in err
        assert list(tmp_path.rglob("*")) == [scn]

    def test_frame_drift_exits_2_with_report(self, tmp_path, capsys):
        # Ten RK4 steps cannot follow the helix backbone: the integrated
        # frame drifts off the rotation group, which ends the solve as a
        # non-convergence instead of escaping as bad input.
        rc = cli.main(["solve", "single_tube_helical_backbone",
                       "--placeholders", "--steps", "10",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err
        # Strict JSON: a non-finite figure is written as null.
        failed = json.loads(
            (tmp_path / "single_tube_helical_backbone_failed.json").read_text(),
            parse_constant=_reject_constant)
        report = failed["report"]
        assert report["converged"] is False
        assert "rotation group" in report["message"]
        # The rest state already drifts without tension, so the ramp stops
        # at its first step, and no residual was ever evaluated.
        assert report["continuation_steps"] == 1
        assert report["residual_norm"] is None
        assert report["scaled_residual"] is None


class TestExportCommand:
    def test_re_export_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert cli.main(["solve", "ctr_theta_0", "--out", str(first)]) == 0
        second = tmp_path / "second"
        rc = cli.main(["export", str(first / "ctr_theta_0.json"),
                       "--csv", "--out", str(second)])
        assert rc == 0
        capsys.readouterr()
        assert (first / "ctr_theta_0.json").read_bytes() == \
            (second / "ctr_theta_0.json").read_bytes()
        assert (second / "ctr_theta_0.csv").exists()

    def test_rejects_foreign_json(self, tmp_path, capsys):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        assert cli.main(["export", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("text, message", [
        ("not json at all", "not JSON"),
        ("[1, 2]", "(not a JSON object)"),
        ('{"format": "nestrod-solution"}',
         "lacks version, tubes, total_length, a list of segments"),
        ('{"format": "nestrod-solution", "version": 1, "tubes": 1, '
         '"total_length": 0.1, "segments": []}', "lacks a list of segments"),
        ('{"format": "nestrod-solution", "version": 1, "tubes": 1, '
         '"total_length": 0.1, "segments": [{"p": [[0, 0, 0]]}]}',
         "lacks segments[0].tubes, segments[0].stations, segments[0].R"),
        (_payload_text(version="1"), "version must be 1, got '1'"),
        (_payload_text(tubes="2"), "tubes must be a positive integer"),
        (_payload_text(tubes=True), "tubes must be a positive integer"),
        (_payload_text(total_length="x"), "total_length must be a number"),
        (_payload_text(total_length=math.nan),
         "not JSON (NaN is not strict JSON)"),
        (_payload_text(segment={"stations": "abc"}),
         "segments[0].stations must be a non-empty list of numbers"),
        (_payload_text(segment={"p": [[0.0]]}),
         "segments[0].p must be 2 rows of width 3"),
        (_payload_text(segment={"R": [[1.0] * 9]}),
         "segments[0].R must be 2 rows of width 9"),
        (_payload_text(segment={"theta": [[0.0, 0.0]] * 2}),
         "segments[0].theta must be 2 rows of width 1"),
        (_payload_text(segment={"beta": [["1"]] * 2}),
         "segments[0].beta must be 2 rows of width 1"),
        (_payload_text(segment={"tubes": [0, 7]}),
         "segments[0].tubes must be distinct tube indices"),
        (_payload_text(segment={"tubes": [1, 1]}),
         "segments[0].tubes must be distinct tube indices"),
        (_payload_text(segment={"tubes": []}),
         "segments[0].tubes must be distinct tube indices"),
    ], ids=["text", "list", "format-only", "no-segments", "segment-keys",
            "version", "tubes-word", "tubes-bool", "total-length-word",
            "total-length-nan",
            "stations-word", "p-width", "R-rows", "theta-width",
            "beta-word", "tube-out-of-range", "tube-twice", "no-tubes"])
    def test_malformed_payload_exits_1(self, tmp_path, capsys, text,
                                       message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["export", str(bad), "--csv", "--svg",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not out.exists()

    def test_well_formed_payload_exports(self, tmp_path, capsys):
        # The payload that the malformed cases above each break in one way.
        good = tmp_path / "good.json"
        good.write_text(_payload_text())
        out = tmp_path / "out"
        assert cli.main(["export", str(good), "--csv", "--svg",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == \
            ["good.csv", "good.json", "good.svg"]

    @pytest.mark.parametrize("name", _UNSAFE_NAMES)
    def test_scenario_must_be_a_plain_file_name(self, tmp_path, capsys,
                                                name):
        bad = tmp_path / "named.json"
        bad.write_text(_payload_text(scenario=name))
        assert cli.main(["export", str(bad), "--csv",
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not a plain file name" in err
        assert list(tmp_path.rglob("*")) == [bad]


class TestSweepCommand:
    def test_twist_sweep(self, tmp_path, capsys):
        rc = cli.main(["sweep", "ctr_theta_0", "--axis", "twist:1",
                       "--from", "0", "--to", "90", "--num", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("twist[1]") == 3
        lines = (tmp_path / "ctr_theta_0_sweep.csv").read_text().splitlines()
        assert lines[1] == ("value,converged,iterations,tip_x,tip_y,tip_z,"
                            "scaled_residual")
        assert len(lines) == 5
        assert all(row.split(",")[1] == "1" for row in lines[2:])

    @pytest.mark.parametrize("source, axis, stop, values, flags", [
        ("two_tube_0", "tension:0", "1", [0.0, 0.5, 1.0], ["--placeholders"]),
        ("ctr_theta_0", "twist:1", "90", [0.0, 45.0, 90.0], []),
    ])
    def test_csv_matches_a_warm_started_shoot_loop(
            self, tmp_path, capsys, source, axis, stop, values, flags):
        # Each point is an override; setting the same values on one
        # assembly by hand and warm-starting shoot gives the same rows.
        rc = cli.main(["sweep", source, *flags, "--axis", axis, "--to", stop,
                       "--num", "3", "--steps", "20", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rows = (tmp_path / f"{source}_sweep.csv").read_text().splitlines()
        kind, index = axis.split(":")
        asm, opts = preset(source, allow_placeholders=True)
        opts = replace(opts, steps_per_segment=20)
        warm = None
        for row, value in zip(rows[2:], values, strict=True):
            if kind == "tension":
                asm.tendons[int(index)].tension = value
            else:
                asm.base_twists[int(index)] = math.radians(value)
            solution = shoot(asm, opts, initial_guess=warm)
            warm = solution.guess
            expected = [value, 1, solution.report.iterations,
                        *solution.tip_position,
                        solution.report.scaled_residual]
            assert row == ",".join(f"{v:.17g}" if isinstance(v, float)
                                   else str(v) for v in expected)
        assert not list(tmp_path.glob("*_failed.json"))

    def test_failed_point_keeps_its_report(self, tmp_path, capsys,
                                           monkeypatch):
        # A point that does not converge writes a NaN row and its report
        # to <name>_sweep_failed.json; the other points still solve.
        def failing(assembly, options, initial_guess=None):
            solution = shoot(assembly, options, initial_guess=initial_guess)
            if assembly.tendons[0].tension == 0.5:
                report = replace(solution.report, converged=False,
                                 message="stub stall")
                raise NoConvergence("stub stall", report=report)
            return solution

        monkeypatch.setattr(cli, "shoot", failing)
        rc = cli.main(["sweep", "two_tube_0", "--placeholders", "--axis",
                       "tension:0", "--to", "1", "--num", "3", "--steps", "20",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "failure report:" in capsys.readouterr().err
        rows = (tmp_path / "two_tube_0_sweep.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[2:]] == ["1", "0", "1"]
        failed = json.loads(
            (tmp_path / "two_tube_0_sweep_failed.json").read_text())
        assert failed["format"] == "nestrod-sweep-failure"
        assert failed["scenario"] == "two_tube_0"
        assert failed["axis"] == "tension:0"
        [point] = failed["points"]
        assert point["value"] == 0.5
        assert point["report"]["converged"] is False
        assert point["report"]["message"] == "stub stall"
        assert point["digest"] == preset_scenario(
            "two_tube_0", True, ["solver.steps_per_segment=20",
                                 "tendon.0.tension_N=0.5"]).digest

    def test_axis_bounds_checked(self, capsys):
        assert cli.main(["sweep", "ctr_theta_0", "--axis", "tension:0",
                         "--to", "1"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_axis_syntax_checked(self, capsys):
        assert cli.main(["sweep", "ctr_theta_0", "--axis", "bend:x",
                         "--to", "1"]) == 1
        assert "tension:J or twist:I" in capsys.readouterr().err

    def test_invalid_steps_exit_1_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        from nestrod import shooting

        def never(*args, **kwargs):
            raise AssertionError("integrated with invalid solver settings")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        rc = cli.main(["sweep", "two_tube_0", "--placeholders", "--axis",
                       "tension:0", "--to", "1", "--num", "2", "--steps", "-5",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "integer, got -5" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_sweep.csv"))

    @pytest.mark.parametrize("name", _UNSAFE_NAMES)
    def test_name_must_be_a_plain_file_name(self, tmp_path, capsys,
                                            monkeypatch, name):
        def never(*args, **kwargs):
            raise AssertionError("solved a scenario with an unsafe name")

        monkeypatch.setattr(cli, "shoot", never)
        scn = _named_scenario(tmp_path, name)
        rc = cli.main(["sweep", str(scn), "--axis", "tension:0", "--to", "1",
                       "--num", "2", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not a plain file name" in err
        assert list(tmp_path.rglob("*")) == [scn]

    @pytest.mark.parametrize("axis, start, message", [
        ("tension:0", "-1", "tension must be >= 0"),
        ("twist:0", "10", "its base twist must be 0"),
    ])
    def test_invalid_point_exits_1_before_solving(
            self, tmp_path, capsys, monkeypatch, axis, start, message):
        # A swept value that fails validate() is bad input, as for solve:
        # exit 1 before any point is solved, and no sweep file.
        def never(*args, **kwargs):
            raise AssertionError("solved a sweep with an invalid point")

        monkeypatch.setattr(cli, "shoot", never)
        rc = cli.main(["sweep", "two_tube_0", "--placeholders", "--axis", axis,
                       "--from", start, "--to", "0", "--num", "2",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*_sweep.csv"))


class TestValidateCommand:
    class _FakeReport:
        def __init__(self, passed):
            self._passed = passed

        @property
        def passed(self):
            return self._passed

        def lines(self):
            return ["PASS  stub" if self._passed else "FAIL  stub"]

    def test_exit_codes_follow_the_report(self, capsys, monkeypatch):
        calls = {}

        def fake(mutation, include_scenarios):
            calls["mutation"] = mutation
            calls["scenarios"] = include_scenarios
            return self._FakeReport(mutation == 1.0)

        monkeypatch.setattr(cli, "run_validate", fake)
        assert cli.main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert calls == {"mutation": 1.0, "scenarios": False}
        assert cli.main(["validate", "--mutation", "1.01"]) == 1
        assert "FAIL" in capsys.readouterr().out
