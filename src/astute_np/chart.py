"""Static SVG line chart of a convergence sweep, emitted by hand for
byte-deterministic output.

Two series of (x, mean, std) with error bars: accuracy drawn in green and
astuteness in purple.  Coordinates are formatted with fixed precision so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import math

ACCURACY_COLOR = "#2e7d32"
ASTUTENESS_COLOR = "#6a1b9a"

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 40, 48
X_LABEL, Y_LABEL = "training size", "fraction"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def sweep_chart(sizes, acc_mean, acc_std, ast_mean, ast_std, out_path,
                title: str = "") -> str:
    """Write the accuracy / astuteness chart of a sweep to ``out_path``.

    Returns the SVG text.  The x axis turns logarithmic when the sizes span
    a factor of 50 or more.
    """
    series = (("accuracy", ACCURACY_COLOR, acc_mean, acc_std),
              ("astuteness", ASTUTENESS_COLOR, ast_mean, ast_std))
    for label, _, mean, std in series:
        if not (len(sizes) == len(mean) == len(std)):
            raise ValueError(f"series {label!r} has inconsistent lengths")
    if len(sizes) == 0:
        raise ValueError("chart needs at least one size")

    xs = [float(v) for v in sizes]
    x_min, x_max = min(xs), max(xs)
    log_x = x_min > 0 and (x_max / x_min) >= 50
    if log_x:
        x_min_t, x_max_t = math.log10(x_min), math.log10(x_max)
    else:
        x_min_t, x_max_t = x_min, x_max
    if x_max_t == x_min_t:
        x_min_t, x_max_t = x_min_t - 0.5, x_max_t + 0.5

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        t = math.log10(v) if log_x else v
        return MARGIN_L + plot_w * (t - x_min_t) / (x_max_t - x_min_t)

    def py(v: float) -> float:
        v = min(max(v, 0.0), 1.0)
        return MARGIN_T + plot_h * (1.0 - v)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    # frame and y grid (fractions 0 .. 1 in steps of 0.25)
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#444" stroke-width="1"/>')
    for k in range(5):
        v = k / 4
        y = py(v)
        out.append(f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{MARGIN_L + plot_w}" '
                   f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{v:g}</text>')

    # x ticks at the distinct sizes
    for v in sorted(set(xs)):
        x = px(v)
        out.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(x)}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{v:g}</text>')

    out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{X_LABEL}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + plot_h // 2})">{Y_LABEL}</text>')

    for _, color, mean, std in series:
        pts = [(px(x), py(float(m))) for x, m in zip(xs, mean)]
        # error bars first so the line draws over them
        for x, m, sd in zip(xs, mean, std):
            if sd <= 0:
                continue
            cx = px(x)
            y_lo, y_hi = py(float(m) - float(sd)), py(float(m) + float(sd))
            out.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y_lo)}" x2="{_fmt(cx)}" '
                       f'y2="{_fmt(y_hi)}" stroke="{color}" stroke-width="1"/>')
            for yy in (y_lo, y_hi):
                out.append(f'<line x1="{_fmt(cx - 3)}" y1="{_fmt(yy)}" x2="{_fmt(cx + 3)}" '
                           f'y2="{_fmt(yy)}" stroke="{color}" stroke-width="1"/>')
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')

    # legend, top-right inside the frame
    lx = MARGIN_L + plot_w - 150
    ly = MARGIN_T + 12
    for idx, (label, color, _, _) in enumerate(series):
        y = ly + idx * 18
        out.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{y + 4}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')

    out.append("</svg>")
    svg = "\n".join(out) + "\n"
    with open(out_path, "w") as fh:
        fh.write(svg)
    return svg
