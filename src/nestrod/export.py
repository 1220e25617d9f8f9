"""Serialize solved robot shapes to JSON, CSV, and SVG.

The JSON payload is the full record; CSV and SVG are derived views of it,
so a saved payload can be re-exported later without re-solving. All output
is deterministic: no timestamps, keys sorted, floats in shortest exact form.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError

PAYLOAD_FORMAT = "nestrod-solution"
PAYLOAD_VERSION = 1


def solution_payload(solution) -> dict:
    """Flatten a :class:`~nestrod.shooting.Solution` into plain containers."""
    segments = []
    for seg in solution.segments:
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
            "tube_u": seg.tube_u.tolist(),
            "tube_v": seg.tube_v.tolist(),
            "tube_n": seg.tube_n.tolist(),
            "tube_m": seg.tube_m.tolist(),
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
    """Strict JSON: a NaN or infinity in ``payload`` raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


# keys the exporters read: of the payload, besides its list of segments,
# and of each segment
_PAYLOAD_KEYS = ("version", "tubes", "total_length")
_SEGMENT_KEYS = ("tubes", "stations", "p", "R", "u1", "v1", "theta", "u_d3",
                 "beta")


def read_payload(path) -> dict:
    """A saved solution payload; :class:`ValidationError` if the file is
    not JSON, not a solution payload, or lacks a key the exporters read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:      # not JSON, or not UTF-8
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
    return payload


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
