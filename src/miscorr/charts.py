"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 40, 50
SERIES_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def line_chart(series: dict[str, list[tuple[float, float]]], title: str, y_label: str) -> str:
    """Render named (x, y) series over n as an SVG document string."""
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        raise ValueError("no data to chart")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_l, plot_r = MARGIN_L, WIDTH - MARGIN_R
    plot_t, plot_b = MARGIN_T, HEIGHT - MARGIN_B

    def px(x):
        return _scale(x, x_lo, x_hi, plot_l, plot_r)

    def py(y):
        return _scale(y, y_lo, y_hi, plot_b, plot_t)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
        'stroke="black"/>',
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" '
        'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{plot_b + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{plot_l - 8}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(plot_l + plot_r) / 2:.1f}" y="{HEIGHT - 10}" '
        'text-anchor="middle" font-size="12" font-family="sans-serif">n</text>'
    )
    parts.append(
        f'<text x="16" y="{(plot_t + plot_b) / 2:.1f}" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 '
        f'{(plot_t + plot_b) / 2:.1f})" text-anchor="middle">{y_label}</text>'
    )
    for idx, (name, pts) in enumerate(series.items()):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        ly = plot_t + 16 + 18 * idx
        parts.append(
            f'<line x1="{plot_r + 12}" y1="{ly}" x2="{plot_r + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{plot_r + 40}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
