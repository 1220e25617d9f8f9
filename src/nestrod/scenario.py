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
``{"required": ..., "reason": ...}`` objects) and is validated against the
bundled ``data/scenario.schema.json``. Both variants canonicalize to the
same SI text form, which is what :func:`scenario_digest` hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .assembly import (ArcRest, AssemblySpec, HelicalRouting, HelixRest,
                       PiecewiseAngularRouting, StiffnessPair, StraightRest,
                       StraightRouting, Strategy, TendonSpec, TubeSpec)
from .errors import ParseError, UnitError, UnknownPreset, ValidationError
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
_CANONICAL = {
    "length": "m",
    "angle": "rad",
    "pressure": "Pa",
    "force": "N",
    "moment": "Nm",
    "bend_stiffness": "Nm2",
    "curvature": "per_m",
}

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


def _schema():
    data = resources.files("nestrod").joinpath("data/scenario.schema.json")
    return json.loads(data.read_text())


def _from_json_node(node, where: str, problems: list[str]):
    if isinstance(node, dict):
        if set(node) == {"required", "reason"}:
            value = node["required"]
            value = tuple(float(v) for v in value) if isinstance(value, list) \
                else float(value)
            return ("required", value, str(node["reason"]))
        return {k: _from_json_node(v, f"{where}.{k}", problems)
                for k, v in node.items()}
    if isinstance(node, list):
        if node and isinstance(node[0], dict):
            return [_from_json_node(v, f"{where}[{i}]", problems)
                    for i, v in enumerate(node)]
        try:
            return tuple(float(v) for v in node)
        except (TypeError, ValueError):
            problems.append(f"{where}: list entries must be numbers")
            return ()
    if isinstance(node, bool):
        problems.append(f"{where}: booleans are not scenario values")
        return 0.0
    if isinstance(node, (int, float)):
        return float(node)
    return str(node)


def parse_json_text(text: str) -> dict:
    """Parse and schema-validate the JSON twin of the text format."""
    import jsonschema

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError([f"invalid JSON: {exc}"]) from exc
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        raise ParseError(
            ["/".join(str(p) for p in err.path) + ": " + err.message
             for err in errors])
    problems: list[str] = []
    tree = _from_json_node(doc, "$", problems)
    if problems:
        raise ParseError(problems)
    return tree


# ---------------------------------------------------------------------------
# canonical SI form
# ---------------------------------------------------------------------------


def _si_value(value, factor: float):
    if isinstance(value, tuple):
        return tuple(v * factor for v in value)
    if isinstance(value, float):
        return value * factor
    return value


def _canonical_key_value(key: str, value):
    """SI-convert one entry; returns (canonical key, converted value)."""
    base, dim, factor = _split_unit(key)
    if dim is None:
        return key, value
    ckey = f"{base}_{_CANONICAL[dim]}"
    if isinstance(value, tuple) and value and value[0] == "required":
        return ckey, ("required", _si_value(value[1], factor), value[2])
    return ckey, _si_value(value, factor)


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)  # shortest exact round-trip form
    return str(v)


def _canonical_lines(block: dict, indent: str, out: list[str]) -> None:
    scalars, singles, lists = [], [], []
    for key, value in block.items():
        ckey, cval = _canonical_key_value(key, value)
        if isinstance(value, dict):
            singles.append((ckey, value))
        elif isinstance(value, list):
            lists.append((ckey, value))
        else:
            scalars.append((ckey, cval))
    for ckey, cval in sorted(scalars):
        if isinstance(cval, tuple) and cval and cval[0] == "required":
            out.append(f"{indent}{ckey} REQUIRED({_fmt(cval[1])} ; {cval[2]})")
        else:
            out.append(f"{indent}{ckey} {_fmt(cval)}")
    for ckey, sub in sorted(singles):
        out.append(f"{indent}{ckey} {{")
        _canonical_lines(sub, indent + "  ", out)
        out.append(f"{indent}}}")
    for ckey, blocks in sorted(lists):
        for sub in blocks:
            out.append(f"{indent}{ckey} {{")
            _canonical_lines(sub, indent + "  ", out)
            out.append(f"{indent}}}")


def canonical_text(tree: dict) -> str:
    """Deterministic SI rendering of a scenario tree.

    Parsing the result and canonicalizing again reproduces it byte for byte,
    so this is the form :func:`scenario_digest` hashes.
    """
    out: list[str] = []
    _canonical_lines(tree, "", out)
    return "\n".join(out) + "\n"


def _to_json_node(value):
    if isinstance(value, dict):
        return {k: _to_json_node(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_to_json_node(v) for v in value]
    if isinstance(value, tuple) and value and value[0] == "required":
        req = value[1]
        return {"required": list(req) if isinstance(req, tuple) else req,
                "reason": value[2]}
    if isinstance(value, tuple):
        return list(value)
    return value


def canonical_json(tree: dict) -> str:
    """The JSON twin of :func:`canonical_text` (SI keys, sorted, no spaces)."""
    si: dict = {}
    stack = [(tree, si)]
    while stack:
        src, dst = stack.pop()
        for key, value in src.items():
            ckey, cval = _canonical_key_value(key, value)
            if isinstance(value, dict):
                dst[ckey] = {}
                stack.append((value, dst[ckey]))
            elif isinstance(value, list):
                dst[ckey] = [{} for _ in value]
                for sub, slot in zip(value, dst[ckey]):
                    stack.append((sub, slot))
            else:
                dst[ckey] = _to_json_node(cval)
    return json.dumps(si, sort_keys=True, separators=(",", ":")) + "\n"


def scenario_digest(tree: dict) -> str:
    return hashlib.sha256(canonical_text(tree).encode()).hexdigest()


# ---------------------------------------------------------------------------
# overrides and placeholder resolution
# ---------------------------------------------------------------------------


def apply_overrides(tree: dict, items) -> dict:
    """Apply ``path=value`` pairs (e.g. ``tube.1.length_mm=180``) to a copy.

    List indices are numeric path components. Setting a key removes any
    sibling spelling the same quantity in a different unit, so an override
    never leaves two values for one field.
    """
    import copy

    tree = copy.deepcopy(tree)
    problems: list[str] = []
    for item in items:
        if "=" not in item:
            problems.append(f"override {item!r}: expected path=value")
            continue
        path, _, text = item.partition("=")
        node = tree
        parts = path.split(".")
        ok = True
        for part in parts[:-1]:
            if isinstance(node, list):
                try:
                    node = node[int(part)]
                except (ValueError, IndexError):
                    problems.append(f"override {item!r}: bad index {part!r}")
                    ok = False
                    break
            elif isinstance(node, dict) and part in node:
                node = node[part]
            else:
                problems.append(f"override {item!r}: no such block {part!r}")
                ok = False
                break
        if not ok:
            continue
        key = parts[-1]
        if isinstance(node, list):
            problems.append(f"override {item!r}: path ends on a block list")
            continue
        value = _parse_value(text, f"override {item!r}", problems)
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
    :class:`ValidationError` naming each one with its recorded reason.
    """
    found: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else k)
                    for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, f"{path}[{i}]") for i, v in enumerate(node)]
        if isinstance(node, tuple) and node and node[0] == "required":
            found.append(f"{path} = {_fmt(node[1])} ({node[2]})")
            return node[1]
        return node

    resolved = walk(tree, "")
    if found and not allow:
        raise ValidationError(
            ["placeholder value needs explicit opt-in: " + f for f in found])
    return resolved, found


# ---------------------------------------------------------------------------
# building runtime objects
# ---------------------------------------------------------------------------


class _Fields:
    """Pulls dimension-checked values out of one resolved block."""

    def __init__(self, block: dict, label: str, problems: list[str]):
        self.block = dict(block)
        self.label = label
        self.problems = problems
        self.seen: set = set()

    def take(self, base: str, dim: str | None, default=None, required=False):
        hits = [k for k in self.block if _split_unit(k)[0] == base]
        if len(hits) > 1:
            self.problems.append(
                f"{self.label}: {base} given more than once ({hits})")
        if not hits:
            if required:
                self.problems.append(f"{self.label}: missing {base}")
            return default
        key = hits[0]
        self.seen.add(key)
        _, key_dim, factor = _split_unit(key)
        if key_dim != dim:
            raise UnitError(
                [f"{self.label}: {key} has unit dimension "
                 f"{key_dim or 'none'}, expected {dim or 'none'}"])
        return _si_value(self.block[key], factor)

    def finish(self, blocks=()):
        extra = [k for k in self.block
                 if k not in self.seen and k not in blocks]
        if extra:
            self.problems.append(f"{self.label}: unknown keys {sorted(extra)}")


def _build_rest(block, label, problems):
    if block is None:
        return StraightRest()
    f = _Fields(block, label, problems)
    kind = f.take("kind", None, default="straight")
    if kind == "straight":
        f.finish()
        return StraightRest()
    if kind == "arc":
        kappa = f.take("curvature", "curvature", required=True)
        plane = f.take("plane_angle", "angle", default=0.0)
        f.finish()
        return ArcRest(kappa or 0.0, plane)
    if kind == "helix":
        radius = f.take("radius", "length", required=True)
        pitch = f.take("pitch", "length", required=True)
        phase = f.take("phase", "angle", default=0.0)
        f.finish()
        try:
            if radius is not None and pitch is not None:
                return HelixRest(radius, pitch, phase)
        except ValidationError as exc:
            problems.append(f"{label}: {exc}")
        return StraightRest()
    problems.append(f"{label}: unknown rest kind {kind!r}")
    return StraightRest()


def _build_routing(block, label, problems):
    if block is None:
        problems.append(f"{label}: tendon needs a routing block")
        return None
    f = _Fields(block, label, problems)
    kind = f.take("kind", None, required=True)
    try:
        if kind == "straight":
            offset = f.take("offset", "length", required=True)
            f.finish()
            return StraightRouting(np.asarray(offset)) if offset is not None else None
        if kind == "helical":
            radius = f.take("radius", "length", required=True)
            period = f.take("period", "length", required=True)
            phase = f.take("phase", "angle", default=0.0)
            f.finish()
            if radius is not None and period is not None:
                return HelicalRouting(radius, period, phase)
            return None
        if kind == "piecewise":
            stations = f.take("stations", "length", required=True)
            angles = f.take("angles", "angle", required=True)
            radii = f.take("radii", "length", required=True)
            f.finish()
            if None in (stations, angles, radii):
                return None
            if not (len(stations) == len(angles) == len(radii)):
                problems.append(
                    f"{label}: stations/angles/radii lengths differ")
                return None
            return PiecewiseAngularRouting(list(zip(stations, angles, radii)))
    except ValidationError as exc:
        problems.append(f"{label}: {exc}")
        return None
    problems.append(f"{label}: unknown routing kind {kind!r}")
    return None


def _build_stiffness(block, label, problems):
    if block is None:
        return None
    f = _Fields(block, label, problems)
    kse = f.take("shear_axial", "force", required=True)
    kbt = f.take("bend_twist", "bend_stiffness", required=True)
    f.finish()
    if kse is None or kbt is None:
        return None
    if len(kse) != 3 or len(kbt) != 3:
        problems.append(f"{label}: stiffness lists must have 3 entries")
        return None
    return StiffnessPair(kse_diag=np.asarray(kse), kbt_diag=np.asarray(kbt))


def _maybe(x):
    return None if x is None else float(x)


def build_runtime(tree: dict):
    """Resolved tree -> (name, AssemblySpec, SolverOptions).

    Aggregates every structural problem into one :class:`ValidationError`;
    unit mismatches surface as :class:`UnitError` immediately.
    """
    problems: list[str] = []
    top = _Fields(tree, "scenario", problems)
    name = top.take("name", None, default="unnamed")
    strategy_word = top.take("strategy", None, default="outermost")
    top.finish(blocks=("tube", "tendon", "solver"))
    strategy = {"outermost": Strategy.OUTERMOST_OF_SEGMENT,
                "terminating": Strategy.TERMINATING_TUBE}.get(strategy_word)
    if strategy is None:
        problems.append(f"scenario: unknown strategy {strategy_word!r} "
                        "(outermost or terminating)")
        strategy = Strategy.OUTERMOST_OF_SEGMENT

    tube_blocks = tree.get("tube")
    if tube_blocks is not None and not isinstance(tube_blocks, list):
        problems.append("scenario: 'tube' entries must be blocks")
        tube_blocks = None
    tubes: list[TubeSpec] = []
    base_twists: list[float] = []
    base_offsets: list[float] = []
    for i, block in enumerate(tube_blocks or []):
        label = f"tube[{i}]"
        f = _Fields(block, label, problems)
        length = f.take("length", "length", required=True)
        e_mod = f.take("elastic_modulus", "pressure")
        g_mod = f.take("shear_modulus", "pressure")
        od = f.take("outer_diameter", "length")
        idi = f.take("inner_diameter", "length")
        base_twists.append(f.take("base_twist", "angle", default=0.0))
        base_offsets.append(f.take("base_offset", "length", default=0.0))
        f.finish(blocks=("rest", "stiffness"))
        rest = _build_rest(block.get("rest"), f"{label}.rest", problems)
        stiff = _build_stiffness(block.get("stiffness"), f"{label}.stiffness",
                                 problems)
        tubes.append(TubeSpec(length=length or 0.0,
                              elastic_modulus=_maybe(e_mod),
                              shear_modulus=_maybe(g_mod),
                              outer_diameter=_maybe(od),
                              inner_diameter=_maybe(idi),
                              rest_shape=rest, stiffness=stiff))
    if not tubes:
        problems.append("scenario: needs at least one tube block")

    tendon_blocks = tree.get("tendon")
    if tendon_blocks is not None and not isinstance(tendon_blocks, list):
        problems.append("scenario: 'tendon' entries must be blocks")
        tendon_blocks = None
    tendons: list[TendonSpec] = []
    for i, block in enumerate(tendon_blocks or []):
        label = f"tendon[{i}]"
        f = _Fields(block, label, problems)
        tube_idx = f.take("tube", None, default=0.0)
        tension = f.take("tension", "force", required=True)
        termination = f.take("termination", "length")
        f.finish(blocks=("routing",))
        routing = _build_routing(block.get("routing"), f"{label}.routing",
                                 problems)
        if routing is not None:
            tendons.append(TendonSpec(routing=routing,
                                      tension=tension or 0.0,
                                      tube=int(tube_idx),
                                      termination=_maybe(termination)))

    options = SolverOptions()
    if "solver" in tree:
        f = _Fields(tree["solver"], "solver", problems)
        for key, dim in (("steps_per_segment", None), ("force_tol", "force"),
                         ("moment_tol", "moment")):
            value = f.take(key, dim)
            if value is not None:
                setattr(options, key, value)
        # A whole number reads as an int; anything else is left for
        # SolverOptions.validate to reject.
        steps = options.steps_per_segment
        if isinstance(steps, float) and steps.is_integer():
            options.steps_per_segment = int(steps)
        f.finish()

    if problems:
        raise ValidationError(problems)
    assembly = AssemblySpec(tubes=tubes, tendons=tendons,
                            base_twists=base_twists,
                            base_offsets=base_offsets, strategy=strategy)
    assembly.validate()
    return name, assembly, options


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
    if overrides:
        tree = apply_overrides(tree, overrides)
    resolved, found = resolve_placeholders(tree, allow_placeholders)
    name, assembly, options = build_runtime(resolved)
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
