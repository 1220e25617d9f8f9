"""Serialize solved robot shapes to JSON, CSV, and SVG.

The JSON payload is the full record; CSV and SVG are derived views of it,
so a saved payload can be re-exported later without re-solving. All output
is deterministic: no timestamps, keys sorted, floats in shortest exact form.

A JSON file is exactly the standard library's strict, key-sorted text with
a one-space indent, ``json.dumps(payload, sort_keys=True, indent=1,
allow_nan=False)`` plus a newline: one value per line, floats in shortest
round-trip form. :func:`write_json` builds that text before it opens the
file, so a payload that cannot be written (one holding a NaN or an
infinity) raises ValueError and writes nothing.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .errors import ValidationError

PAYLOAD_FORMAT = "nestrod-solution"
PAYLOAD_VERSION = 1


def solution_payload(solution) -> dict:
    """Flatten a :class:`~nestrod.shooting.Solution` into plain containers."""
    segments = []
    for seg in solution.segments:
        strains = seg.strains()
        segments.append({
            "start": seg.start,
            "end": seg.end,
            "tubes": list(seg.tubes),
            "stations": seg.stations.tolist(),
            "p": seg.p.tolist(),
            "R": seg.R.reshape(len(seg.stations), 9).tolist(),
            "u1": seg.u1.tolist(),
            "v1": seg.v1.tolist(),
            "theta": seg.theta.tolist(),
            "u_d3": seg.u_d3.tolist(),
            "beta": seg.beta.tolist(),
            "tube_u": strains.u.tolist(),
            "tube_v": strains.v.tolist(),
            "tube_n": strains.n.tolist(),
            "tube_m": strains.m.tolist(),
        })
    return {
        "format": PAYLOAD_FORMAT,
        "version": PAYLOAD_VERSION,
        "tubes": len(solution.assembly.tubes),
        "total_length": solution.total_length,
        "tip_position": solution.tip_position.tolist(),
        "report": solution.report.as_dict(),
        "guess": solution.guess.tolist(),
        "segments": segments,
    }


def write_json(path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity in ``payload`` raises ValueError, and
    nothing is written.

    The text is ``json.dumps(payload, sort_keys=True, indent=1,
    allow_nan=False)`` plus a newline, byte for byte. That call runs the
    standard library's pure-Python encoder one token at a time; here each
    rectangular numeric array (a solution's trails) is formatted in one call
    of its C encoder instead.
    """
    text = _indented(payload, 0) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# The reference encoder, and the compact one that formats a whole array in
# C. Both are strict and escape non-ASCII text, as json.dumps does.
_INDENTED = json.JSONEncoder(sort_keys=True, indent=1, allow_nan=False)
_COMPACT = json.JSONEncoder(allow_nan=False)


def _indented(value, level: int) -> str:
    """``value`` as ``_INDENTED`` writes it, with its first line at indent
    ``level``."""
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = [_COMPACT.encode(key) + ": " + _indented(value[key], level + 1)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + close + "}"
    if type(value) is list and value:
        shape = _shape(value)
        if shape is not None:
            return _array(value, shape, level)
        items = [_indented(item, level + 1) for item in value]
        return "[" + inner + ("," + inner).join(items) + close + "]"
    # A scalar, an empty container, or one of another type or with a key
    # that is not a string. The reference writes no newline inside a
    # string, so indenting its text moves its lines and nothing else.
    return _INDENTED.encode(value).replace("\n", close)


def _shape(value: list) -> list[int] | None:
    """The shape of a rectangular numeric array: lists nested to one length
    at every level, with int or float leaves, or with empty lists as the
    innermost level. None for anything else."""
    shape = []
    level = [value]
    while True:
        kinds = set(map(type, level))
        if kinds <= {int, float}:
            return shape
        if kinds != {list}:
            return None
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        if shape[-1] == 0:
            return shape
        level = list(chain.from_iterable(level))


def _array(value: list, shape: list[int], level: int) -> str:
    """A non-empty rectangular numeric array as ``_INDENTED`` writes it at
    indent ``level``: its compact text, with the line breaks and indents of
    each nesting level put in."""
    text = _COMPACT.encode(value)
    empty = shape[-1] == 0
    if empty:
        # No number is written, so a digit can stand in for each innermost
        # "[]": then every ", " separates leaves or sub-arrays, as below.
        text = text.replace("[]", "0")
    depth = len(shape) - empty
    indent = ["\n" + " " * (level + j) for j in range(depth + 1)]

    def opening(r):         # the last r levels' brackets, opened
        return "".join("[" + indent[depth - r + i] for i in range(1, r + 1))

    def closing(r):         # the last r levels' brackets, closed
        return "".join(indent[depth - i] + "]" for i in range(1, r + 1))

    # Sub-arrays of r levels are separated by "]" * r + ", " + "[" * r
    # (r = 0 between leaves); the longest run is replaced first, as it holds
    # the shorter ones.
    for r in range(depth - 1, -1, -1):
        text = text.replace("]" * r + ", " + "[" * r,
                            closing(r) + "," + indent[depth - r] + opening(r))
    text = opening(depth) + text[depth:-depth] + closing(depth)
    return text.replace("0", "[]") if empty else text


# keys the exporters read: of the payload, besides its list of segments,
# and of each segment
_PAYLOAD_KEYS = ("version", "tubes", "total_length")
_SEGMENT_KEYS = ("tubes", "stations", "p", "R", "u1", "v1", "theta", "u_d3",
                 "beta")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_payload(path) -> dict:
    """A saved solution payload; :class:`ValidationError` if the file is
    not JSON, not a solution payload, or lacks a key the exporters read or
    holds one of the wrong type or shape."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:      # not strict JSON, or not UTF-8
            raise ValidationError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{path}: not a {PAYLOAD_FORMAT} file (not a JSON object)")
    if payload.get("format") != PAYLOAD_FORMAT:
        raise ValidationError(
            f"{path}: not a {PAYLOAD_FORMAT} file "
            f"(format = {payload.get('format')!r})")
    missing = [key for key in _PAYLOAD_KEYS if key not in payload]
    segments = payload.get("segments")
    if not (isinstance(segments, list) and segments):
        missing.append("a list of segments")
    else:
        missing += [f"segments[{i}].{key}" for i, seg in enumerate(segments)
                    for key in _SEGMENT_KEYS
                    if not (isinstance(seg, dict) and key in seg)]
    if missing:
        raise ValidationError(f"{path}: payload lacks {', '.join(missing)}")
    problems = _payload_problems(payload)
    if problems:
        raise ValidationError([f"{path}: {p}" for p in problems])
    return payload


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _payload_problems(payload: dict) -> list[str]:
    """Every entry the exporters read that has the wrong type or shape."""
    problems = []
    if not (_is_int(payload["version"])
            and payload["version"] == PAYLOAD_VERSION):
        problems.append(f"version must be {PAYLOAD_VERSION}, "
                        f"got {payload['version']!r}")
    if not _is_number(payload["total_length"]):
        problems.append("total_length must be a number, "
                        f"got {payload['total_length']!r}")
    n = payload["tubes"]
    if not (_is_int(n) and n > 0):
        problems.append(f"tubes must be a positive integer, got {n!r}")
        return problems          # the segments' tube indices need it
    for i, seg in enumerate(payload["segments"]):
        tubes = seg["tubes"]
        if not (isinstance(tubes, list) and tubes
                and all(_is_int(t) and 0 <= t < n for t in tubes)
                and len(set(tubes)) == len(tubes)):
            problems.append(f"segments[{i}].tubes must be distinct tube "
                            f"indices from 0 to {n - 1}, got {tubes!r}")
            continue
        stations = seg["stations"]
        if not (isinstance(stations, list) and stations
                and all(_is_number(x) for x in stations)):
            problems.append(f"segments[{i}].stations must be a non-empty "
                            "list of numbers")
            continue
        k = len(tubes)
        for key, width in (("p", 3), ("R", 9), ("u1", 3), ("v1", 3),
                           ("theta", k - 1), ("u_d3", k - 1),
                           ("beta", k - 1)):
            rows = seg[key]
            if not (isinstance(rows, list) and len(rows) == len(stations)
                    and all(isinstance(row, list) and len(row) == width
                            and all(_is_number(x) for x in row)
                            for row in rows)):
                problems.append(
                    f"segments[{i}].{key} must be {len(stations)} rows "
                    f"of width {width} (one per station), all numbers")
    return problems


def _g(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path, payload: dict) -> None:
    """One row per station, strictly increasing along the backbone.

    Segment boundaries appear once: the row at a boundary belongs to the
    earlier segment, and the following segment starts at its second sample.
    Twist columns exist for every tube; a tube that is inactive (ended) or
    is the segment's own reference writes nan / reference values, and the
    ``ref_tube`` column says which tube the frame follows.
    """
    n = payload["tubes"]
    header = ["station", "ref_tube", "px", "py", "pz"]
    header += [f"r{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    header += ["u1x", "u1y", "u1z", "v1x", "v1y", "v1z"]
    for j in range(n):
        header += [f"theta_{j}", f"u_d3_{j}", f"beta_{j}"]

    lines = [
        f"# {PAYLOAD_FORMAT} v{payload['version']}",
        f"# tubes: {n}  total_length_m: {_g(payload['total_length'])}",
        "# twist columns are relative to the segment's reference tube",
        ",".join(header),
    ]
    for si, seg in enumerate(payload["segments"]):
        tubes = seg["tubes"]
        ref = tubes[0]
        inner = tubes[1:]
        first = 1 if si else 0
        for row in range(first, len(seg["stations"])):
            vals = [_g(seg["stations"][row]), str(ref)]
            vals += [_g(v) for v in seg["p"][row]]
            vals += [_g(v) for v in seg["R"][row]]
            vals += [_g(v) for v in seg["u1"][row]]
            vals += [_g(v) for v in seg["v1"][row]]
            by_tube = {
                t: (seg["theta"][row][c], seg["u_d3"][row][c],
                    seg["beta"][row][c])
                for c, t in enumerate(inner)
            }
            by_tube[ref] = (0.0, seg["u1"][row][2], 1.0)
            for j in range(n):
                triple = by_tube.get(j, (math.nan,) * 3)
                vals += [_g(v) for v in triple]
            lines.append(",".join(vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG: three orthographic views of the backbone
# ---------------------------------------------------------------------------

_VIEWS = (("x", "z", 0, 2), ("y", "z", 1, 2), ("x", "y", 0, 1))
_PANEL = 240.0
_MARGIN = 26.0


def _panel(points, ax, ay, lo, span, x0) -> str:
    scale = (_PANEL - 2 * _MARGIN) / span
    path = []
    for seg_pts in points:
        coords = []
        for p in seg_pts:
            x = x0 + _MARGIN + (p[ax] - lo[ax]) * scale
            y = _PANEL - _MARGIN - (p[ay] - lo[ay]) * scale
            coords.append(f"{x:.2f},{y:.2f}")
        path.append('<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" '
                    f'points="{" ".join(coords)}"/>')
    return "\n".join(path)


def write_svg(path, payload: dict) -> None:
    """Three side-by-side orthographic projections of the solved backbone."""
    points = [seg["p"] for seg in payload["segments"]]
    flat = [p for seg in points for p in seg]
    lo = [min(p[i] for p in flat) for i in range(3)]
    hi = [max(p[i] for p in flat) for i in range(3)]
    span = max(max(h - l for l, h in zip(lo, hi)), 1e-6) * 1.05
    # center each axis inside the shared span so all views share one scale
    lo = [l - (span - (h - l)) / 2 for l, h in zip(lo, hi)]

    width = 3 * _PANEL
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {width:g} {_PANEL:g}" width="{width:g}" '
             f'height="{_PANEL:g}">']
    for i, (nx, ny, ax, ay) in enumerate(_VIEWS):
        x0 = i * _PANEL
        parts.append(f'<rect x="{x0 + 0.5:g}" y="0.5" '
                     f'width="{_PANEL - 1:g}" height="{_PANEL - 1:g}" '
                     'fill="white" stroke="#d0d7de"/>')
        parts.append(_panel(points, ax, ay, lo, span, x0))
        parts.append(f'<text x="{x0 + 8:g}" y="16" font-family="sans-serif" '
                     f'font-size="11" fill="#57606a">{nx}-{ny}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
