"""JSON writer tests: ``write_json`` writes exactly the standard library's
strict, key-sorted text with a one-space indent, and writes nothing when
the payload cannot be written."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nestrod import cli
from nestrod.export import solution_payload, write_json
from nestrod.scenario import preset_scenario
from nestrod.shooting import shoot


def _reference(value) -> bytes:
    """The text ``write_json`` must write, from the standard library."""
    return (json.dumps(value, sort_keys=True, indent=1, allow_nan=False)
            + "\n").encode()


def _written(value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "value.json"
        write_json(path, value)
        return path.read_bytes()


_EDGE_NUMBERS = (-0.0, 5e-324, 1e16, 1e-07, 2**64, -(2**100))
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from(_EDGE_NUMBERS))
_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(["a, b", "]", "], [", "[1, 2]", "é, ]"]))
_SCALARS = st.one_of(_NUMBERS, _TEXT, st.booleans(), st.none())


def _nest(flat: list, shape: list[int]):
    """``flat`` as nested lists of ``shape``; a trailing 0 makes the
    innermost lists empty."""
    if len(shape) == 1:
        return flat if shape[0] else []
    step = len(flat) // shape[0] if flat else 0
    return [_nest(flat[i * step:(i + 1) * step], shape[1:])
            for i in range(shape[0])]


@st.composite
def _arrays(draw):
    """Rectangular numeric arrays: shapes such as (S,), (S, 3), (S, 0),
    (S, k, 3) and (S, k, 0)."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    if len(shape) > 1 and draw(st.booleans()):
        shape.append(0)
    size = math.prod(shape)
    return _nest(draw(st.lists(_NUMBERS, min_size=size, max_size=size)),
                 shape)


# Ragged lists, such as [[1e-07], [], []], arrays with bools, None or
# strings among their numbers, and dicts with non-ASCII keys, around
# rectangular arrays.
_TREES = st.recursive(
    st.one_of(_SCALARS, _arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=20)

_EDGES = {
    "ragged": [[1e-07], [], []],
    "strings": ["a, b", "]", [1.0, "], ["]],
    "mixed": [[1.0, True], [None, 2]],
    "edge": list(_EDGE_NUMBERS),
    "empty rows": [[], [], []],
    "tube": [[[0.5, -0.0, 1e16]] * 2] * 3,
    "ünïcödé": {"é": [5e-324], "": {}},
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_TREES)
@example(_EDGES)
def test_writes_the_standard_library_text(tree):
    assert _written(tree) == _reference(tree)


@st.composite
def _with_a_non_finite(draw):
    """A tree with one NaN or infinity at any depth, inside a rectangular
    array or not."""
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    value = bad
    if draw(st.booleans()):
        rows = draw(_arrays())
        row = rows
        while isinstance(row[0], list) and row[0]:
            row = row[0]
        if not isinstance(row[0], list):
            row[0] = bad
            value = rows
    for _ in range(draw(st.integers(0, 3))):
        sibling = draw(_TREES)
        if draw(st.booleans()):
            value = [sibling, value]
        else:
            value = {"a": sibling, "b": value}
    return value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_with_a_non_finite())
def test_non_finite_raises_and_writes_nothing(tree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "value.json"
        with pytest.raises(ValueError):
            write_json(path, tree)
        assert not path.exists()


def test_failed_write_keeps_the_existing_file(tmp_path):
    path = tmp_path / "kept.json"
    write_json(path, {"a": [1.0, 2.0]})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0] * 5000, "b": math.nan})
    assert path.read_bytes() == before


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "new.json"
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0] * 5000, "b": math.nan})
    assert not path.exists()


# One preset of each tube count. The helix backbone does not converge at
# 10 steps (its failure record is pinned below), so it runs at 20.
@pytest.mark.parametrize("name, steps, tubes", [
    ("single_tube_helical_backbone", 20, 1),
    ("two_tube_0", 10, 2),
    ("three_tube_c", 10, 3),
])
def test_preset_payloads_are_the_standard_library_text(name, steps, tubes,
                                                        tmp_path):
    scn = preset_scenario(name, True, [f"solver.steps_per_segment={steps}"])
    payload = solution_payload(shoot(scn.assembly, scn.options))
    assert payload["tubes"] == tubes
    path = tmp_path / f"{name}.json"
    write_json(path, payload)
    assert path.read_bytes() == _reference(payload)


def test_failure_record_is_the_standard_library_text(tmp_path, capsys):
    rc = cli.main(["solve", "single_tube_helical_backbone", "--placeholders",
                   "--steps", "10", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 2
    written = (tmp_path / "single_tube_helical_backbone_failed.json") \
        .read_bytes()
    record = json.loads(written)
    assert record["format"] == "nestrod-failure"
    assert written == _reference(record)
