"""Hand-emitted SVG line plots for quick-look artifacts (no plotting deps)."""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT = 640, 420  # px; a text panel's height follows its line count
TICKS = 5  # at most this many ticks per axis


def _ticks(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / (TICKS - 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= TICKS:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out or [lo]


def line_plot(path, series, title="", xlabel="", ylabel="", markers=None):
    """Write an SVG with polyline series = [(label, x array, y array), ...].

    markers: optional [(x, y, label)] crosses highlighting special points.
    """
    ml, mr, mt, mb = 64, 16, 30, 44
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xs = [float(v) for _, x, _ in series for v in x]
    ys = [float(v) for _, _, y in series for v in y]
    if markers:
        xs += [m[0] for m in markers]
        ys += [m[1] for m in markers]
    xs = [v for v in xs if math.isfinite(v)]
    ys = [v for v in ys if math.isfinite(v)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y0, y1 = y0 - 0.05 * (y1 - y0), y1 + 0.05 * (y1 - y0)

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(x0, x1):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 16}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y0, y1):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 6}" y="{py + 3:.1f}" text-anchor="end">{ty:g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
            for a, b in zip(x, y)
            if math.isfinite(float(a)) and math.isfinite(float(b))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = mt + 14 + 14 * idx
            parts.append(f'<line x1="{ml + pw - 90}" y1="{ly - 4}" x2="{ml + pw - 70}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{ml + pw - 66}" y="{ly}">{label}</text>')
    for m in markers or []:
        px, py = sx(m[0]), sy(m[1])
        parts.append(f'<path d="M {px - 4:.1f} {py:.1f} H {px + 4:.1f} M {px:.1f} {py - 4:.1f} V {py + 4:.1f}" stroke="#000" stroke-width="1.2"/>')
        if len(m) > 2 and m[2]:
            parts.append(f'<text x="{px + 6:.1f}" y="{py - 6:.1f}">{m[2]}</text>')
    parts.append("</svg>")
    data = "\n".join(parts)
    with open(path, "w") as fh:
        fh.write(data)
    return path


def text_panel(path, title, lines):
    """A plain text panel (used for the report index)."""
    height = 60 + 16 * len(lines)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white" stroke="#333"/>',
        f'<text x="16" y="26" font-size="14">{title}</text>',
    ]
    for i, line in enumerate(lines):
        parts.append(f'<text x="16" y="{48 + 16 * i}">{line}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return path
