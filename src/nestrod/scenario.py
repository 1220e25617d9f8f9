"""Scenario files: assemblies and solver settings as plain text or JSON.

The text format is line based. A line is either ``key value``, ``key {``
opening a block, or ``}`` closing one; ``#`` starts a comment. Numeric keys
carry an explicit unit suffix (``length_mm 140``, ``tension_N 2``) and are
converted to SI on load; ``tube`` and ``tendon`` blocks may repeat. A value
of the form ``REQUIRED(0.9 ; wall thickness not published)`` is a
placeholder: loading fails loudly with the recorded reason unless
placeholders are explicitly accepted, in which case the documented stand-in
value is used.

Example::

    name demo
    strategy outermost
    tube {
      length_mm 140
      elastic_modulus_GPa 45
      shear_modulus_GPa 16.91
      outer_diameter_mm 1.10
      inner_diameter_mm 0.90
    }
    tendon {
      tube 0
      tension_N 2
      routing {
        kind straight
        offset_mm [3, 0]
      }
    }

The JSON variant carries the same keys (placeholders become
``{"required": ..., "reason": ...}`` objects). One loader checks both
variants against a table of fields per block: each value must be a number,
a list of numbers, a word or a block as its field says, and carry its
field's unit dimension; a scenario without ``name`` is ``unnamed``. Both
variants canonicalize to the same SI text form, which is what
:func:`scenario_digest` hashes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import resources

from .assembly import (ArcRest, AssemblySpec, HelicalRouting, HelixRest,
                       PiecewiseAngularRouting, StiffnessPair, StraightRest,
                       StraightRouting, Strategy, TendonSpec, TubeSpec)
from .errors import (ParseError, PlaceholderOptIn, UnitError, UnknownPreset,
                     ValidationError)
from .shooting import SolverOptions

# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

# suffix -> (dimension, factor to SI)
_UNITS = {
    "m": ("length", 1.0),
    "mm": ("length", 1e-3),
    "rad": ("angle", 1.0),
    "deg": ("angle", math.pi / 180.0),
    "Pa": ("pressure", 1.0),
    "GPa": ("pressure", 1e9),
    "N": ("force", 1.0),
    "Nm": ("moment", 1.0),
    "Nm2": ("bend_stiffness", 1.0),
    "per_m": ("curvature", 1.0),
}

# dimension -> canonical SI suffix
_CANONICAL = {dim: suffix for suffix, (dim, factor) in _UNITS.items()
              if factor == 1.0}

_BLOCK_LISTS = ("tube", "tendon")


def _split_unit(key: str):
    """Return (base, dimension, factor); dimension None for plain keys."""
    if key.endswith("_per_m"):
        return key[:-6], "curvature", 1.0
    if "_" in key:
        base, suffix = key.rsplit("_", 1)
        if suffix in _UNITS:
            dim, factor = _UNITS[suffix]
            return base, dim, factor
    return key, None, 1.0


# ---------------------------------------------------------------------------
# text parsing
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    depth = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "#" and depth == 0:
            return line[:i]
    return line


def _parse_number_list(text: str, where: str, problems: list[str]):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            problems.append(f"{where}: unterminated list {text!r}")
            return None
        items = [t for t in text[1:-1].split(",") if t.strip()]
        try:
            return tuple(float(t) for t in items)
        except ValueError:
            problems.append(f"{where}: list entries must be numbers: {text!r}")
            return None
    try:
        return float(text)
    except ValueError:
        return text  # bare word


def _parse_value(text: str, where: str, problems: list[str]):
    text = text.strip()
    if text.startswith("REQUIRED(") :
        if not text.endswith(")"):
            problems.append(f"{where}: unterminated REQUIRED(...)")
            return None
        inner = text[len("REQUIRED("):-1]
        if ";" not in inner:
            problems.append(
                f"{where}: REQUIRED needs 'value ; reason', got {inner!r}")
            return None
        value_text, reason = inner.split(";", 1)
        value = _parse_number_list(value_text, where, problems)
        if isinstance(value, str):
            problems.append(f"{where}: REQUIRED value must be numeric")
            return None
        reason = reason.strip()
        if not reason:
            problems.append(f"{where}: REQUIRED reason must not be empty")
            return None
        return ("required", value, reason)
    return _parse_number_list(text, where, problems)


def parse_text(text: str) -> dict:
    """Parse the line format into a raw tree (keys keep their unit suffix).

    Raises :class:`ParseError` listing every malformed line at once.
    """
    root: dict = {}
    stack: list[tuple[str, dict]] = [("scenario", root)]
    problems: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line == "}":
            if len(stack) == 1:
                problems.append(f"{where}: unmatched '}}'")
            else:
                stack.pop()
            continue
        if line.endswith("{"):
            key = line[:-1].strip()
            if not key or " " in key:
                problems.append(f"{where}: block opener must be 'key {{'")
                key = "?"
            block: dict = {}
            parent = stack[-1][1]
            if key in _BLOCK_LISTS:
                slot = parent.get(key)
                if slot is None:
                    parent[key] = [block]
                elif isinstance(slot, list):
                    slot.append(block)
                else:
                    problems.append(f"{where}: {key!r} already used as a value")
            elif key in parent:
                problems.append(f"{where}: duplicate block {key!r}")
            else:
                parent[key] = block
            stack.append((key, block))
            continue
        if " " not in line and "\t" not in line:
            problems.append(f"{where}: expected 'key value', got {line!r}")
            continue
        key, rest = line.split(None, 1)
        value = _parse_value(rest, where, problems)
        if value is None:
            continue
        parent = stack[-1][1]
        if key in parent:
            problems.append(f"{where}: duplicate key {key!r}")
            continue
        parent[key] = value

    if len(stack) > 1:
        problems.append(f"unclosed block {stack[-1][0]!r} at end of input")
    if problems:
        raise ParseError(problems)
    return root


# ---------------------------------------------------------------------------
# JSON variant
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _from_json_node(node, where: str, problems: list[str]):
    if isinstance(node, dict):
        if set(node) == {"required", "reason"}:
            value, reason = node["required"], node["reason"]
            numbers = value if isinstance(value, list) else [value]
            if not (numbers and all(_is_number(v) for v in numbers)
                    and isinstance(reason, str) and reason.strip()):
                problems.append(f"{where}: a REQUIRED value needs a number "
                                "or a list of numbers, and a reason")
                return None
            return ("required", _from_json_node(value, where, problems), reason)
        return {k: _from_json_node(v, f"{where}.{k}", problems)
                for k, v in node.items()}
    if isinstance(node, list):
        if node and isinstance(node[0], dict):
            blocks = [_from_json_node(v, f"{where}[{i}]", problems)
                      for i, v in enumerate(node)]
            if not all(isinstance(block, dict) for block in blocks):
                problems.append(f"{where}: entries must be blocks")
            return blocks
        if all(_is_number(v) for v in node):
            return tuple(float(v) for v in node)
        problems.append(f"{where}: list entries must be numbers")
        return ()
    if _is_number(node):
        return float(node)
    if isinstance(node, str):
        return node
    problems.append(f"{where}: {json.dumps(node)} is not a scenario value")
    return None


def parse_json_text(text: str) -> dict:
    """Parse the JSON twin of the text format into the same raw tree."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([f"invalid JSON: {exc}"]) from exc
    problems: list[str] = []
    tree = _from_json_node(doc, "$", problems)
    if problems:
        raise ParseError(problems)
    return tree


# ---------------------------------------------------------------------------
# canonical SI form
# ---------------------------------------------------------------------------


def _is_placeholder(value) -> bool:
    return isinstance(value, tuple) and bool(value) and value[0] == "required"


def _scale(value, factor: float):
    if _is_placeholder(value):
        return ("required", _scale(value[1], factor), value[2])
    if isinstance(value, tuple):
        return tuple(v * factor for v in value)
    if isinstance(value, float):
        return value * factor
    return value


def _si(node, leaf=lambda value: value):
    """The tree with SI keys and values (placeholders' stand-ins too), each
    scalar passed through ``leaf``."""
    if isinstance(node, list):
        return [_si(block, leaf) for block in node]
    out = {}
    for key, value in node.items():
        base, dim, factor = _split_unit(key)
        if dim is not None:
            key = f"{base}_{_CANONICAL[dim]}"
        out[key] = _si(value, leaf) if isinstance(value, (dict, list)) \
            else leaf(_scale(value, factor))
    return out


def _fmt(v) -> str:
    if _is_placeholder(v):
        return f"REQUIRED({_fmt(v[1])} ; {v[2]})"
    if isinstance(v, tuple):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)  # shortest exact round-trip form
    return str(v)


def _canonical_lines(block: dict, indent: str, out: list[str]) -> None:
    items = sorted(block.items())
    for key, value in items:
        if not isinstance(value, (dict, list)):
            out.append(f"{indent}{key} {_fmt(value)}")
    for kind in (dict, list):
        for key, value in items:
            if isinstance(value, kind):
                for sub in [value] if kind is dict else value:
                    out.append(f"{indent}{key} {{")
                    _canonical_lines(sub, indent + "  ", out)
                    out.append(f"{indent}}}")


def canonical_text(tree: dict) -> str:
    """Deterministic SI rendering of a scenario tree.

    Parsing the result and canonicalizing again reproduces it byte for byte,
    so this is the form :func:`scenario_digest` hashes.
    """
    out: list[str] = []
    _canonical_lines(_si(tree), "", out)
    return "\n".join(out) + "\n"


def _json_value(value):
    if _is_placeholder(value):
        return {"required": _json_value(value[1]), "reason": value[2]}
    return list(value) if isinstance(value, tuple) else value


def canonical_json(tree: dict) -> str:
    """The JSON twin of :func:`canonical_text` (SI keys, sorted, no spaces)."""
    return json.dumps(_si(tree, _json_value), sort_keys=True,
                      separators=(",", ":")) + "\n"


def scenario_digest(tree: dict) -> str:
    return hashlib.sha256(canonical_text(tree).encode()).hexdigest()


# ---------------------------------------------------------------------------
# overrides and placeholder resolution
# ---------------------------------------------------------------------------


def apply_overrides(tree: dict, items) -> dict:
    """Apply ``path=value`` pairs (e.g. ``tube.1.length_mm=180``) to a copy.

    List indices are numeric path components. Setting a key removes any
    sibling spelling the same quantity in a different unit, so an override
    never leaves two values for one field. A block that the field table
    gives a default (``solver``, ``tendon``, a tube's ``rest``) opens empty.
    """
    tree = copy.deepcopy(tree)
    problems: list[str] = []
    for item in items:
        where = f"override {item!r}"
        path, eq, text = item.partition("=")
        if not eq:
            problems.append(f"{where}: expected path=value")
            continue
        *parents, key = path.split(".")
        node, table = tree, _SCENARIO
        try:
            for part in parents:
                vtype, default = _field(table, part)
                if isinstance(node, list):
                    if not part.isdecimal():
                        raise IndexError
                    node, table = node[int(part)], vtype
                    continue
                if isinstance(default, (dict, list)):
                    node.setdefault(part, type(default)())
                node, table = node[part], vtype
        except IndexError:
            problems.append(f"{where}: bad index {part!r}: out of range "
                            f"(have {len(node)})")
            continue
        except (KeyError, TypeError, AttributeError):
            problems.append(f"{where}: no such block {part!r}")
            continue
        if not isinstance(node, dict):
            problems.append(f"{where}: {'.'.join(parents)!r} is not a block")
            continue
        value = _parse_value(text, where, problems)
        if value is None:
            continue
        base, _, _ = _split_unit(key)
        for sibling in [k for k in node
                        if _split_unit(k)[0] == base and k != key]:
            del node[sibling]
        node[key] = value
    if problems:
        raise ValidationError(problems)
    return tree


def resolve_placeholders(tree: dict, allow: bool):
    """Replace REQUIRED markers by their stand-in values.

    Returns (resolved copy, list of placeholder descriptions). When
    ``allow`` is false and any placeholder exists, raises
    :class:`PlaceholderOptIn` naming each one with its recorded reason.
    """
    found: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else k)
                    for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, f"{path}[{i}]") for i, v in enumerate(node)]
        if _is_placeholder(node):
            found.append(f"{path} = {_fmt(node[1])} ({node[2]})")
            return node[1]
        return node

    resolved = walk(tree, "")
    if found and not allow:
        raise PlaceholderOptIn(
            ["placeholder value needs explicit opt-in: " + f for f in found])
    return resolved, found


# ---------------------------------------------------------------------------
# building runtime objects
# ---------------------------------------------------------------------------

_MISSING = object()  # the default of a field that must be given
_BAD = object()      # a value whose problem has been listed


@dataclass(frozen=True)
class _Block:
    """A block's fields, each (key, unit dimension, value type, default), in
    the order ``make`` takes their values. A value type is a key of
    ``_SCALARS``, a dict (a word naming one of its values), a ``_Block``, a
    list of one ``_Block`` (a block that may repeat) or a ``_Kinds``. A field
    left out reads its default as if given in SI; None stays None."""

    make: Callable
    fields: tuple


@dataclass(frozen=True)
class _Kinds:
    """A block whose ``kind`` word (``default`` if left out) picks its
    ``_Block``."""

    noun: str
    blocks: dict
    default: object = _MISSING


def _field(table, key: str):
    """(value type, default) of field ``key`` of a block or a block list."""
    if isinstance(table, list):
        return table[0], None
    for base, _, vtype, default in getattr(table, "fields", ()):
        if base == key:
            return vtype, default
    return None, None


# scalar value type -> (the Python types it accepts, its name in a problem);
# an int field reads a whole number as an int and leaves any other number
# for validate() to reject.
_SCALARS = {float: ((int, float), "a number"), int: ((int, float), "a number"),
            tuple: (tuple, "a list of numbers"), str: (str, "a word")}


def _read(block, label: str, table, problems: list[str]):
    """Check one block against its table and build it, or return _BAD.

    Lists every problem found; a key of the wrong unit dimension raises
    :class:`UnitError` at once.
    """
    if not isinstance(block, dict):
        problems.append(f"{label}: must be a block, got {block!r}")
        return _BAD
    kind = ()
    if isinstance(table, _Kinds):
        word = block.get("kind", table.default)
        if not (isinstance(word, str) and word in table.blocks):
            problems.append(f"{label}: missing kind" if word is _MISSING
                            else f"{label}: unknown {table.noun} kind {word!r}")
            return _BAD
        kind, table = (("kind", None, str, word),), table.blocks[word]
    spellings: dict[str, list[str]] = {}
    for key in block:
        spellings.setdefault(_split_unit(key)[0], []).append(key)
    values = []
    for base, dim, vtype, default in kind + table.fields:
        keys = spellings.pop(base, [])
        if len(keys) > 1:
            problems.append(f"{label}: {base} given more than once ({keys})")
        if not keys and default is _MISSING:
            problems.append(f"{label}: missing {base}")
            values.append(_BAD)
            continue
        value, factor = default, 1.0
        if keys:
            _, key_dim, factor = _split_unit(keys[0])
            if key_dim != dim:
                raise UnitError(
                    [f"{label}: {keys[0]} has unit dimension "
                     f"{key_dim or 'none'}, expected {dim or 'none'}"])
            value = block[keys[0]]
        where = base if label == "scenario" else f"{label}.{base}"
        values.append(_value(value, factor, vtype, where, problems))
    if spellings:
        extra = sorted(k for keys in spellings.values() for k in keys)
        problems.append(f"{label}: unknown keys {extra}")
    if any(v is _BAD for v in values):
        return _BAD
    try:
        return table.make(*values[len(kind):])
    except ValidationError as exc:
        problems.append(f"{label}: {exc}")
        return _BAD


def _value(value, factor: float, vtype, label: str, problems: list[str]):
    """One field's value checked against its type: SI, or built, or _BAD."""
    if value is None:
        return None
    if isinstance(vtype, (_Block, _Kinds)):
        return _read(value, label, vtype, problems)
    if isinstance(vtype, list):
        if not isinstance(value, list):
            problems.append(f"{label}: must be blocks, got {value!r}")
            return _BAD
        built = [_read(sub, f"{label}[{i}]", vtype[0], problems)
                 for i, sub in enumerate(value)]
        return _BAD if any(b is _BAD for b in built) else built
    if isinstance(vtype, dict):
        if isinstance(value, str) and value in vtype:
            return vtype[value]
        problems.append(f"{label}: {value!r} is not one of "
                        + " or ".join(vtype))
        return _BAD
    accepted, noun = _SCALARS[vtype]
    if not isinstance(value, accepted):
        problems.append(f"{label}: must be {noun}, got {value!r}")
        return _BAD
    value = _scale(value, factor)
    if vtype is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _piecewise(stations, angles, radii):
    if not len(stations) == len(angles) == len(radii):
        raise ValidationError("stations/angles/radii lengths differ")
    return PiecewiseAngularRouting(list(zip(stations, angles, radii)))


def _tube(*fields):
    """A tube's spec, base twist and base offset."""
    *spec, twist, offset = fields
    return TubeSpec(*spec), twist, offset


def _scenario(name, strategy, tubes, tendons, options):
    specs, twists, offsets = ([tube[i] for tube in tubes] for i in range(3))
    return name, AssemblySpec(specs, tendons, twists, offsets, strategy), options


_REST = _Kinds("rest", {
    "straight": _Block(StraightRest, ()),
    "arc": _Block(ArcRest, (
        ("curvature", "curvature", float, _MISSING),
        ("plane_angle", "angle", float, 0.0))),
    "helix": _Block(HelixRest, (
        ("radius", "length", float, _MISSING),
        ("pitch", "length", float, _MISSING),
        ("phase", "angle", float, 0.0))),
}, default="straight")

_ROUTING = _Kinds("routing", {
    "straight": _Block(StraightRouting, (
        ("offset", "length", tuple, _MISSING),)),
    "helical": _Block(HelicalRouting, (
        ("radius", "length", float, _MISSING),
        ("period", "length", float, _MISSING),
        ("phase", "angle", float, 0.0))),
    "piecewise": _Block(_piecewise, (
        ("stations", "length", tuple, _MISSING),
        ("angles", "angle", tuple, _MISSING),
        ("radii", "length", tuple, _MISSING))),
})

_STIFFNESS = _Block(StiffnessPair, (
    ("shear_axial", "force", tuple, _MISSING),
    ("bend_twist", "bend_stiffness", tuple, _MISSING)))

_TUBE = _Block(_tube, (
    ("length", "length", float, _MISSING),
    ("elastic_modulus", "pressure", float, None),
    ("shear_modulus", "pressure", float, None),
    ("outer_diameter", "length", float, None),
    ("inner_diameter", "length", float, None),
    ("rest", None, _REST, {}),
    ("stiffness", None, _STIFFNESS, None),
    ("base_twist", "angle", float, 0.0),
    ("base_offset", "length", float, 0.0)))

_TENDON = _Block(TendonSpec, (
    ("routing", None, _ROUTING, _MISSING),
    ("tension", "force", float, _MISSING),
    ("tube", None, int, 0),
    ("termination", "length", float, None)))

# The solver's numbers go to SolverOptions.validate, which names any that
# are unusable.
_SOLVER = _Block(SolverOptions, (
    ("steps_per_segment", None, int, SolverOptions.steps_per_segment),
    ("force_tol", "force", float, SolverOptions.force_tol),
    ("moment_tol", "moment", float, SolverOptions.moment_tol)))

_SCENARIO = _Block(_scenario, (
    ("name", None, str, "unnamed"),
    ("strategy", None, {"outermost": Strategy.OUTERMOST_OF_SEGMENT,
                        "terminating": Strategy.TERMINATING_TUBE},
     "outermost"),
    ("tube", None, [_TUBE], _MISSING),
    ("tendon", None, [_TENDON], []),
    ("solver", None, _SOLVER, {})))


# ---------------------------------------------------------------------------
# top-level entry points
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A loaded scenario: the raw tree plus ready-to-solve runtime objects."""

    name: str
    tree: dict                      # placeholders preserved
    assembly: AssemblySpec
    options: SolverOptions
    placeholders: list[str] = field(default_factory=list)

    @property
    def canonical(self) -> str:
        return canonical_text(self.tree)

    @property
    def digest(self) -> str:
        return scenario_digest(self.tree)


def build_scenario(tree: dict, allow_placeholders: bool = False,
                   overrides=()) -> Scenario:
    """Raw tree -> Scenario, after the overrides and placeholders.

    Aggregates every structural problem into one :class:`ValidationError`;
    unit mismatches surface as :class:`UnitError` immediately.
    """
    if overrides:
        tree = apply_overrides(tree, overrides)
    resolved, found = resolve_placeholders(tree, allow_placeholders)
    problems: list[str] = []
    built = _read(resolved, "scenario", _SCENARIO, problems)
    if problems:
        raise ValidationError(problems)
    name, assembly, options = built
    assembly.validate()
    return Scenario(name=name, tree=tree, assembly=assembly, options=options,
                    placeholders=found)


def load_scenario(path, allow_placeholders: bool = False,
                  overrides=()) -> Scenario:
    """Read a ``.scn`` text file or ``.json`` scenario from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tree = parse_json_text(text) if str(path).endswith(".json") \
        else parse_text(text)
    return build_scenario(tree, allow_placeholders, overrides)


def preset_names() -> list[str]:
    names = []
    for entry in resources.files("nestrod").joinpath("data").iterdir():
        if entry.name.endswith(".scn"):
            names.append(entry.name[:-4])
    return sorted(names)


def preset_scenario(name: str, allow_placeholders: bool = False,
                    overrides=()) -> Scenario:
    entry = resources.files("nestrod").joinpath(f"data/{name}.scn")
    if not entry.is_file():
        raise UnknownPreset(
            f"no bundled scenario {name!r}; available: "
            + ", ".join(preset_names()))
    tree = parse_text(entry.read_text())
    return build_scenario(tree, allow_placeholders, overrides)


def preset(name: str, allow_placeholders: bool = False, overrides=()):
    """Bundled scenario -> (assembly, solver options)."""
    sc = preset_scenario(name, allow_placeholders, overrides)
    return sc.assembly, sc.options
