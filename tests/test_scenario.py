"""Scenario file format tests: parsing, units, canonical form and digests,
the JSON twin, overrides, placeholder policy, and the bundled presets."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestrod import cli, shooting
from nestrod.assembly import ArcRest, HelicalRouting, Strategy
from nestrod.errors import ParseError, UnitError, UnknownPreset, ValidationError
from nestrod.scenario import (
    apply_overrides,
    build_scenario,
    canonical_json,
    canonical_text,
    load_scenario,
    parse_json_text,
    parse_text,
    preset,
    preset_names,
    preset_scenario,
    scenario_digest,
)
from nestrod.shooting import build_problem

_SAMPLE = """\
# two telescoped tubes, one tendon on the inner
name unit_sample
strategy terminating
tube {
  length_mm 140
  elastic_modulus_GPa 45
  shear_modulus_GPa 16.91
  outer_diameter_mm 1.10
  inner_diameter_mm 0.90
}
tube {
  length_mm 180
  elastic_modulus_GPa 215
  shear_modulus_GPa 80
  outer_diameter_mm 0.80
  inner_diameter_mm 0.40
  base_twist_deg 90
  rest {
    kind arc
    curvature_per_m 5
    plane_angle_deg 0
  }
}
tendon {
  tube 1
  tension_N 2
  routing {
    kind helical
    radius_mm 6.5
    period_mm 720
    phase_deg 310
  }
}
solver {
  steps_per_segment 50
  force_tol_N 2e-8
}
"""

_EXPECTED_PRESETS = [
    "ctr_theta_0", "ctr_theta_135", "ctr_theta_180", "ctr_theta_45",
    "ctr_theta_90", "single_tube_helical_backbone", "strategy_ab_demo",
    "three_tube_a", "three_tube_b", "three_tube_c", "two_tube_0",
    "two_tube_180", "two_tube_90", "two_tube_helical",
]


class TestParsing:
    def test_units_convert_to_si(self):
        sc = build_scenario(parse_text(_SAMPLE))
        assert sc.name == "unit_sample"
        asm = sc.assembly
        assert asm.strategy is Strategy.TERMINATING_TUBE
        assert asm.tubes[0].length == pytest.approx(0.140)
        assert asm.tubes[0].elastic_modulus == pytest.approx(45e9)
        assert asm.tubes[1].outer_diameter == pytest.approx(0.80e-3)
        assert asm.base_twists[1] == pytest.approx(math.pi / 2.0)
        assert isinstance(asm.tubes[1].rest_shape, ArcRest)
        assert asm.tubes[1].rest_shape.kappa == pytest.approx(5.0)
        assert asm.tendons[0].tension == pytest.approx(2.0)
        assert isinstance(asm.tendons[0].routing, HelicalRouting)
        assert asm.tendons[0].routing.period == pytest.approx(0.720)
        assert asm.tendons[0].routing.phase == pytest.approx(
            math.radians(310.0))
        assert sc.options.steps_per_segment == 50
        assert sc.options.force_tol == pytest.approx(2e-8)

    def test_parse_errors_are_aggregated_with_line_numbers(self):
        bad = "name x\nlonely\ntube {\n  length_mm\n"
        with pytest.raises(ParseError) as err:
            parse_text(bad)
        text = str(err.value)
        assert "line 2" in text        # bare word without a value
        assert "line 4" in text        # key without a value
        assert "unclosed block" in text

    def test_duplicate_and_unmatched(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_text("name a\nname b\n")
        with pytest.raises(ParseError, match="unmatched"):
            parse_text("name a\n}\n")

    @pytest.mark.parametrize("doc", [
        '{"tube": [{}, 5]}',
        '{"tube": [{}, [1, 2]]}',
        '{"tube": [{}, {"required": 1, "reason": "stand-in"}]}',
    ])
    def test_json_block_list_holds_only_blocks(self, doc):
        # A JSON list that opens with a block is a list of blocks: any other
        # entry is a parse problem, not a tree that canonical_json trips on.
        with pytest.raises(ParseError, match=r"\$\.tube: entries must be "
                                             "blocks"):
            parse_json_text(doc)

    def test_comment_stripping_respects_parentheses(self):
        text = ("name c\n"
                "tube {\n"
                "  length_mm 100  # trailing comment\n"
                "  outer_diameter_mm REQUIRED(1.0 ; source used #4 gauge)\n"
                "}\n")
        tree = parse_text(text)
        block = tree["tube"][0]
        assert block["length_mm"] == 100.0
        assert block["outer_diameter_mm"][2] == "source used #4 gauge"

    def test_wrong_dimension_raises_unit_error(self):
        text = "name u\ntube {\n  length_N 3\n}\n"
        with pytest.raises(UnitError, match="dimension"):
            build_scenario(parse_text(text))

    def test_unknown_keys_are_flagged(self):
        text = _SAMPLE.replace("  length_mm 140", "  length_mm 140\n  wall_mm 1")
        with pytest.raises(ValidationError, match="unknown keys"):
            build_scenario(parse_text(text))

    def test_retired_continuation_step_is_an_unknown_key(self):
        # The tension ramp sizes its own steps; the old knob is bad input.
        text = _SAMPLE.replace("  steps_per_segment 50",
                               "  steps_per_segment 50\n  continuation_step_N 0.5")
        with pytest.raises(ValidationError,
                           match=r"solver: unknown keys \['continuation_step_N'\]"):
            build_scenario(parse_text(text))

    def test_retired_max_iterations_is_an_unknown_key(self, tmp_path, capsys):
        # Every Newton solve has the same iteration budget; the old knob is
        # bad input, and the CLI says which key it does not know.
        scn = tmp_path / "unit_sample.scn"
        scn.write_text(_SAMPLE.replace(
            "  steps_per_segment 50", "  steps_per_segment 50\n  max_iterations 30"))
        assert cli.main(["solve", str(scn), "--out", str(tmp_path)]) == 1
        assert "solver: unknown keys ['max_iterations']" in \
            capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))


class TestCanonicalForm:
    def test_fixed_point(self):
        tree = parse_text(_SAMPLE)
        canon = canonical_text(tree)
        again = canonical_text(parse_text(canon))
        assert again == canon
        assert canon.endswith("\n")

    def test_digest_is_sha256_of_canonical(self):
        tree = parse_text(_SAMPLE)
        expect = hashlib.sha256(canonical_text(tree).encode()).hexdigest()
        assert scenario_digest(tree) == expect

    def test_digest_ignores_spelling(self):
        a = parse_text("name d\ntube {\n  length_mm 140\n}\n")
        b = parse_text("name d\ntube {\n  length_m 0.14\n}\n")
        assert scenario_digest(a) == scenario_digest(b)
        c = parse_text("name d\ntube {\n  length_m 0.15\n}\n")
        assert scenario_digest(a) != scenario_digest(c)

    def test_json_twin_round_trip(self):
        tree = parse_text(_SAMPLE)
        twin = canonical_json(tree)
        back = parse_json_text(twin)
        assert canonical_text(back) == canonical_text(tree)
        # the twin itself is deterministic
        assert canonical_json(back) == twin


def _json_sample(edit) -> str:
    """The JSON twin of ``_SAMPLE`` after ``edit`` changed its document."""
    doc = json.loads(canonical_json(parse_text(_SAMPLE)))
    edit(doc)
    return json.dumps(doc)


def _straight_offset(text: str) -> str:
    """``_SAMPLE`` with its tendon routed straight at offset ``text``."""
    helical = ("    kind helical\n    radius_mm 6.5\n    period_mm 720\n"
               "    phase_deg 310\n")
    return _SAMPLE.replace(helical, f"    kind straight\n    offset_mm {text}\n")


# Malformed scenarios, text and JSON: each must end as bad input (a
# ValidationError, CLI exit 1), never as another exception or a solve.
_MALFORMED = {
    "scn-word-for-number": (".scn", _SAMPLE.replace("tension_N 2",
                                                    "tension_N abc")),
    "scn-list-for-number": (".scn", _SAMPLE.replace("length_mm 140",
                                                    "length_mm [140, 1]")),
    "scn-word-for-list": (".scn", _straight_offset("abc")),
    "scn-number-for-list": (".scn", _straight_offset("3")),
    "scn-solver-scalar": (".scn", _SAMPLE.replace(
        "solver {\n  steps_per_segment 50\n  force_tol_N 2e-8\n}\n",
        "solver 5\n")),
    "scn-rest-scalar": (".scn", _SAMPLE.replace(
        "  rest {\n    kind arc\n    curvature_per_m 5\n"
        "    plane_angle_deg 0\n  }\n", "  rest 5\n")),
    "scn-stiffness-scalar": (".scn", _SAMPLE.replace(
        "  length_mm 140\n", "  length_mm 140\n  stiffness 5\n")),
    "scn-routing-scalar": (".scn", _SAMPLE.replace(
        "  routing {\n    kind helical\n    radius_mm 6.5\n"
        "    period_mm 720\n    phase_deg 310\n  }\n", "  routing 5\n")),
    "scn-tube-nan": (".scn", _SAMPLE.replace("  tube 1\n", "  tube nan\n")),
    "scn-tube-half": (".scn", _SAMPLE.replace("  tube 1\n", "  tube 0.5\n")),
    "scn-name-number": (".scn", _SAMPLE.replace("name unit_sample",
                                                "name 5")),
    "json-string-value": (".json", _json_sample(
        lambda d: d["tendon"][0].update(tension_N="abc"))),
    "json-string-placeholder": (".json", _json_sample(
        lambda d: d["tube"][0].update(
            length_m={"required": "abc", "reason": "not published"}))),
    "json-null": (".json", _json_sample(
        lambda d: d["tendon"][0].update(tension_N=None))),
    "json-boolean-in-list": (".json", _json_sample(
        lambda d: d["tube"][1]["rest"].update(curvature_per_m=[True]))),
    "json-not-json": (".json", "{not json"),
    "json-tube-word": (".json", _json_sample(
        lambda d: d.update(tube="nope"))),
    "json-unknown-strategy": (".json", _json_sample(
        lambda d: d.update(strategy="sideways"))),
}


class TestMalformedInput:
    @pytest.mark.parametrize("suffix, text", _MALFORMED.values(),
                             ids=list(_MALFORMED))
    def test_is_bad_input_before_integrating(self, tmp_path, capsys,
                                             monkeypatch, suffix, text):
        parse = parse_json_text if suffix == ".json" else parse_text
        with pytest.raises(ValidationError):
            build_scenario(parse(text))

        def never(*args, **kwargs):
            raise AssertionError("integrated malformed input")

        monkeypatch.setattr(shooting, "integrate_segment", never)
        path = tmp_path / f"malformed{suffix}"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err and all(line.startswith("error: ")
                           for line in err.splitlines())
        assert not list(out.glob("*"))

    def test_nameless_json_is_unnamed(self, tmp_path):
        # As in the text form, a scenario without a name is "unnamed".
        path = tmp_path / "nameless.json"
        path.write_text(_json_sample(lambda d: d.pop("name")))
        assert load_scenario(path).name == "unnamed"
        assert build_scenario(parse_text(
            _SAMPLE.replace("name unit_sample\n", ""))).name == "unnamed"


def _sample_spans() -> list[tuple[int, int, str]]:
    """(first line, last line, key) of every value and block of _SAMPLE."""
    lines = _SAMPLE.splitlines()
    spans, opened = [], []
    for i, line in enumerate(lines):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if words[-1] == "{":
            opened.append((i, words[0]))
        elif words == ["}"]:
            start, key = opened.pop()
            spans.append((start, i, key))
        else:
            spans.append((i, i, words[0]))
    return spans


_REPLACEMENTS = ["abc", "[1, 2]", "nan", "inf", "0.5", "5", "{\n}"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_sample_spans()), st.sampled_from(_REPLACEMENTS))
def test_fuzzed_sample_loads_or_is_bad_input(span, replacement):
    # One value or block of the sample swapped for something of another
    # kind: the loader and the compile step either accept it or name it
    # as bad input; no other exception may escape.
    first, last, key = span
    lines = _SAMPLE.splitlines()
    indent = lines[first][:len(lines[first]) - len(lines[first].lstrip())]
    lines[first:last + 1] = [f"{indent}{key} {replacement}"]
    text = "\n".join(lines) + "\n"
    for parse in (parse_text,
                  lambda text: parse_json_text(canonical_json(parse_text(text)))):
        try:
            sc = build_scenario(parse(text))
            build_problem(sc.assembly, sc.options)
        except ValidationError:
            pass


class TestOverrides:
    def test_dotted_paths_reach_block_lists(self):
        tree = parse_text(_SAMPLE)
        out = apply_overrides(tree, ["tube.0.length_mm=150",
                                     "solver.steps_per_segment=10"])
        assert out["tube"][0]["length_mm"] == 150.0
        assert out["solver"]["steps_per_segment"] == 10.0
        # the original is untouched
        assert tree["tube"][0]["length_mm"] == 140.0

    def test_new_unit_spelling_replaces_sibling(self):
        tree = parse_text(_SAMPLE)
        out = apply_overrides(tree, ["tube.0.length_m=0.15"])
        assert "length_mm" not in out["tube"][0]
        assert out["tube"][0]["length_m"] == 0.15

    def test_bad_paths_are_collected(self):
        tree = parse_text(_SAMPLE)
        with pytest.raises(ValidationError) as err:
            apply_overrides(tree, ["tube.7.length_mm=1", "nosuch.key=2",
                                   "justtext", "name.x=1"])
        text = str(err.value)
        assert "bad index" in text
        assert "no such block" in text
        assert "path=value" in text
        assert "'name' is not a block" in text

    def test_defaulted_blocks_open(self):
        # solver and a tube's rest have defaults in the field table, so an
        # override may open them where the scenario leaves them out.
        tree = parse_text(_SAMPLE)
        del tree["solver"]
        sc = build_scenario(tree, overrides=[
            "solver.steps_per_segment=20", "tube.0.rest.kind=arc",
            "tube.0.rest.curvature_per_m=2"])
        assert sc.options.steps_per_segment == 20
        assert sc.assembly.tubes[0].rest_shape == ArcRest(kappa=2.0)
        assert "solver" not in tree and "rest" not in tree["tube"][0]

    def test_misspelt_block_still_fails(self):
        tree = parse_text(_SAMPLE)
        del tree["solver"]
        for item in ("solvr.steps_per_segment=20", "tube.0.rset.kind=arc",
                     "tendon.0.routing.rest.kind=arc"):
            with pytest.raises(ValidationError, match="no such block"):
                apply_overrides(tree, [item])

    def test_indices_must_name_an_entry(self):
        # A negative index is no way to count from the end, and a block
        # list the scenario leaves out has no entries to index.
        tree = parse_text(_SAMPLE)
        del tree["tendon"]
        with pytest.raises(ValidationError) as err:
            apply_overrides(tree, ["tube.-1.length_mm=1", "tube.2.length_mm=1",
                                   "tendon.0.tension_N=1", "tube.x.tube=1"])
        assert err.value.problems == [
            "override 'tube.-1.length_mm=1': bad index '-1': out of range "
            "(have 2)",
            "override 'tube.2.length_mm=1': bad index '2': out of range "
            "(have 2)",
            "override 'tendon.0.tension_N=1': bad index '0': out of range "
            "(have 0)",
            "override 'tube.x.tube=1': bad index 'x': out of range (have 2)"]

    def test_override_through_build_scenario(self):
        sc = build_scenario(parse_text(_SAMPLE),
                            overrides=["strategy=outermost",
                                       "tendon.0.tension_N=1"])
        assert sc.assembly.strategy is Strategy.OUTERMOST_OF_SEGMENT
        assert sc.assembly.tendons[0].tension == pytest.approx(1.0)


class TestPlaceholders:
    _TEXT = ("name p\n"
             "tube {\n"
             "  length_mm 100\n"
             "  elastic_modulus_GPa 60\n"
             "  shear_modulus_GPa 23\n"
             "  outer_diameter_mm REQUIRED(1.0 ; assumed: wall not documented)\n"
             "  inner_diameter_mm 0.8\n"
             "}\n")

    def test_rejected_without_opt_in(self):
        with pytest.raises(ValidationError, match="explicit opt-in") as err:
            build_scenario(parse_text(self._TEXT))
        assert "wall not documented" in str(err.value)

    def test_opt_in_uses_the_stand_in(self):
        sc = build_scenario(parse_text(self._TEXT), allow_placeholders=True)
        assert sc.assembly.tubes[0].outer_diameter == pytest.approx(1.0e-3)
        assert len(sc.placeholders) == 1
        assert "wall not documented" in sc.placeholders[0]
        # the stored tree still carries the marker
        assert "REQUIRED" in sc.canonical


class TestFiles:
    def test_load_scenario_text_and_json(self, tmp_path):
        scn = tmp_path / "sample.scn"
        scn.write_text(_SAMPLE)
        sc = load_scenario(scn)
        assert sc.name == "unit_sample"

        js = tmp_path / "sample.json"
        js.write_text(canonical_json(parse_text(_SAMPLE)))
        sc2 = load_scenario(js)
        assert sc2.digest == sc.digest


class TestPresets:
    def test_expected_names(self):
        assert preset_names() == _EXPECTED_PRESETS

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset, match="available"):
            preset_scenario("no_such_thing")

    @pytest.mark.parametrize("name", _EXPECTED_PRESETS)
    def test_presets_build_and_canonicalize(self, name):
        sc = preset_scenario(name, allow_placeholders=True)
        assert sc.name == name
        sc.assembly.validate()
        canon = sc.canonical
        assert canonical_text(parse_text(canon)) == canon
        assert len(sc.digest) == 64

    @pytest.mark.parametrize("name", _EXPECTED_PRESETS)
    def test_override_opens_the_solver_block(self, name):
        # No preset ships a solver block; an override opens one, and the
        # step count enters the digest.
        sc = preset_scenario(name, True, ["solver.steps_per_segment=20"])
        assert sc.options.steps_per_segment == 20
        assert sc.tree["solver"] == {"steps_per_segment": 20.0}
        assert sc.digest != preset_scenario(name, True).digest

    def test_equal_curvature_presets_build_without_opt_in(self):
        # the fully documented presets carry no placeholders at all
        for name in ("ctr_theta_0", "ctr_theta_180", "strategy_ab_demo"):
            sc = preset_scenario(name)
            assert sc.placeholders == []

    def test_preset_returns_runtime_pair(self):
        asm, opts = preset("ctr_theta_90")
        assert len(asm.tubes) == 2
        assert asm.base_twists[1] == pytest.approx(math.pi / 2.0)
        assert opts.steps_per_segment >= 100
