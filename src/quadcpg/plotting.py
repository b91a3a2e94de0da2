"""Dependency-free SVG plots of rollout records.

Renders the three stacked panels of a rollout: base forward velocity,
per-limb commanded frequencies, per-limb oscillator amplitudes, each in
its own <g> group so the structure is machine-checkable.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .oscillator import LIMBS

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")

_WIDTH = 860
_PANEL_H = 200
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 30
_GAP = 45


class RecordFormatError(ValueError):
    """Rollout record is empty, lacks a required column or plots a non-finite value."""


def _column(columns: Sequence[str], rows, name: str) -> List[float]:
    try:
        ix = columns.index(name)
    except ValueError:
        raise RecordFormatError(f"record is missing column {name!r}") from None
    values = [row[ix] for row in rows]
    for k, v in enumerate(values, 1):
        if not math.isfinite(v):
            raise RecordFormatError(f"column {name!r} holds {v!r} in data row {k}")
    return values


def _scale(values, lo_px, hi_px):
    vmin, vmax = min(values), max(values)
    if vmax - vmin < 1e-12:
        vmin -= 0.5
        vmax += 0.5
    span = vmax - vmin

    def to_px(v):
        return lo_px + (hi_px - lo_px) * (v - vmin) / span

    return to_px, vmin, vmax


def _panel(panel_id, title, t, series, labels, y0):
    """One panel: frame, title, y-range labels and one polyline per series."""
    x_lo, x_hi = _MARGIN_L, _WIDTH - _MARGIN_R
    y_top, y_bot = y0, y0 + _PANEL_H
    to_x, _, _ = _scale(t, x_lo, x_hi)
    flat = [v for s in series for v in s]
    to_y, vmin, vmax = _scale(flat, y_bot, y_top)

    parts = [f'<g id="{panel_id}">']
    parts.append(f'<rect x="{x_lo}" y="{y_top}" width="{x_hi - x_lo}" '
                 f'height="{_PANEL_H}" fill="none" stroke="#444"/>')
    parts.append(f'<text x="{x_lo}" y="{y_top - 8}" font-size="14" '
                 f'fill="#000">{title}</text>')
    parts.append(f'<text x="{x_lo - 6}" y="{y_bot}" font-size="11" fill="#555" '
                 f'text-anchor="end">{vmin:.3g}</text>')
    parts.append(f'<text x="{x_lo - 6}" y="{y_top + 10}" font-size="11" fill="#555" '
                 f'text-anchor="end">{vmax:.3g}</text>')
    xs = [f"{to_x(v):.2f}," for v in t]   # each row's x, formatted once
    drawn = []   # (values, points) of each distinct series so far
    for values, color in zip(series, _COLORS):
        # A series == an earlier one draws its points: +0.0 and -0.0 land on
        # one pixel (a nonzero margin plus a term), and _column rejects NaN.
        pts = next((p for seen, p in drawn if seen == values), None)
        if pts is None:
            pts = " ".join([x + f"{to_y(v):.2f}" for x, v in zip(xs, values)])
            drawn.append((values, pts))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{pts}"/>')
    for i, (label, color) in enumerate(zip(labels, _COLORS)):
        parts.append(f'<text x="{x_hi - 40 * (len(labels) - i)}" y="{y_top + 14}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</g>")
    return "\n".join(parts)


def render_rollout_svg(columns: Sequence[str], rows) -> str:
    """Three-panel SVG (velocity, frequencies, amplitudes) as a string."""
    if not rows:
        raise RecordFormatError("record contains no data rows")
    t = _column(columns, rows, "t")
    vx = _column(columns, rows, "vx")
    omegas = [_column(columns, rows, f"omega_{l}") for l in LIMBS]
    rs = [_column(columns, rows, f"r_{l}") for l in LIMBS]

    height = _MARGIN_T + 3 * _PANEL_H + 3 * _GAP
    limb_labels = [l.upper() for l in LIMBS]
    panels = [
        _panel("panel-velocity", "Base forward velocity [m/s]", t, [vx],
               ["vx"], _MARGIN_T),
        _panel("panel-frequency", "Commanded frequencies [Hz]", t, omegas,
               limb_labels, _MARGIN_T + _PANEL_H + _GAP),
        _panel("panel-amplitude", "Oscillator amplitudes", t, rs,
               limb_labels, _MARGIN_T + 2 * (_PANEL_H + _GAP)),
    ]
    body = "\n".join(panels)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{height}" viewBox="0 0 {_WIDTH} {height}">\n'
            f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n")

