"""The rollout SVG, pinned byte for byte against per-point formatting."""

import pytest

from quadcpg import plotting
from quadcpg.controllers import open_loop_trot
from quadcpg.registry import builtin_registry
from quadcpg.rollout import record_columns, run_rollout

REG = builtin_registry()


def per_point_panel(panel_id, title, t, series, labels, y0):
    """`plotting._panel` as it formatted every point of every series on its own."""
    x_lo, x_hi = plotting._MARGIN_L, plotting._WIDTH - plotting._MARGIN_R
    y_top, y_bot = y0, y0 + plotting._PANEL_H
    to_x, _, _ = plotting._scale(t, x_lo, x_hi)
    to_y, vmin, vmax = plotting._scale([v for s in series for v in s], y_bot, y_top)
    parts = [f'<g id="{panel_id}">']
    parts.append(f'<rect x="{x_lo}" y="{y_top}" width="{x_hi - x_lo}" '
                 f'height="{plotting._PANEL_H}" fill="none" stroke="#444"/>')
    parts.append(f'<text x="{x_lo}" y="{y_top - 8}" font-size="14" '
                 f'fill="#000">{title}</text>')
    parts.append(f'<text x="{x_lo - 6}" y="{y_bot}" font-size="11" fill="#555" '
                 f'text-anchor="end">{vmin:.3g}</text>')
    parts.append(f'<text x="{x_lo - 6}" y="{y_top + 10}" font-size="11" fill="#555" '
                 f'text-anchor="end">{vmax:.3g}</text>')
    t_px = [to_x(v) for v in t]
    for values, color in zip(series, plotting._COLORS):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(t_px, map(to_y, values)))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{pts}"/>')
    for i, (label, color) in enumerate(zip(labels, plotting._COLORS)):
        parts.append(f'<text x="{x_hi - 40 * (len(labels) - i)}" y="{y_top + 14}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</g>")
    return "\n".join(parts)


class Varying:
    """A trot whose legs get different commands, step by step."""

    initial_phases = (0.0, 3.0, 3.0, 0.0)

    def __init__(self):
        self.k = 0

    def __call__(self, obs):
        self.k += 1
        return [1.0 + 0.3 * (self.k % 3), 1.0, 2.0, 1.0 - 0.2 * (self.k % 2),
                2.0, 2.0 + 0.1 * (self.k % 5), 0.0, 2.0]


def signed_zero_rows():
    """Equal series whose zeros differ in sign, at the bottom of the range."""
    columns = record_columns()
    rows = []
    for k in range(6):
        row = [0.0] * len(columns)
        row[columns.index("t")] = 0.01 * (k + 1)
        for i, limb in enumerate(("fr", "fl", "rr", "rl")):
            zero = -0.0 if (i + k) % 2 else 0.0
            row[columns.index(f"omega_{limb}")] = zero if k < 3 else 2.5
            row[columns.index(f"r_{limb}")] = zero
        row[columns.index("vx")] = -0.0
        rows.append(row)
    return columns, rows


def trot(name, mu, omega, duration):
    def record():
        rec = run_rollout(REG.get(name), open_loop_trot(mu, omega), duration)
        return rec.columns, rec.rows
    return record


def varying():
    rec = run_rollout(REG.get("A1"), Varying(), 0.5)
    return rec.columns, rec.rows


CASES = {"a1-10s": trot("A1", 1.0, 2.5, 10.0), "dog3-corner": trot("Dog3", 4.0, 5.0, 0.5),
         "little-dog-still": trot("Little Dog", 0.5, 0.0, 0.3), "varying": varying,
         "signed-zeros": signed_zero_rows}


@pytest.mark.parametrize("case", CASES)
def test_svg_equals_per_point_formatting(case, monkeypatch):
    columns, rows = CASES[case]()
    svg = plotting.render_rollout_svg(columns, rows)
    monkeypatch.setattr(plotting, "_panel", per_point_panel)
    assert svg == plotting.render_rollout_svg(columns, rows)
