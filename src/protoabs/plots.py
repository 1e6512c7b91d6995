"""Self-contained SVG emitters: confusion heatmaps and sweep line plots.

No plotting dependency; output is deterministic for identical inputs.
"""

import numpy as np


def _fmt(x):
    return "%g" % round(float(x), 6)


def match_rows_to_columns(counts):
    """Greedy max-intersection row ordering so strong matches render on the
    diagonal.  Returns the row permutation; purely cosmetic."""
    counts = np.asarray(counts)
    k, j = counts.shape
    order = [None] * min(k, j)
    used_rows, used_cols = set(), set()
    # the largest count first, ties in (row, column) order
    cells = sorted((-int(v), r, c) for r, row in enumerate(counts.tolist())
                   for c, v in enumerate(row))
    for _, r, c in cells:
        if r in used_rows or c in used_cols or c >= len(order):
            continue
        order[c] = r
        used_rows.add(r)
        used_cols.add(c)
        if len(used_rows) == len(order):
            break
    leftovers = [r for r in range(k) if r not in used_rows]
    return [r for r in order if r is not None] + leftovers


def svg_heatmap(counts, row_ids, col_ids, title=""):
    counts = np.asarray(counts)
    order = match_rows_to_columns(counts)
    counts = counts[order]
    row_ids = [row_ids[r] for r in order]
    k, j = counts.shape
    cell, margin, top = 22, 60, 40
    width = margin + j * cell + 20
    height = top + k * cell + 20
    peak = max(1, int(counts.max()))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height),
        '<text x="%d" y="20" font-family="sans-serif" font-size="13">%s</text>'
        % (margin, title),
    ]
    for r, row in enumerate(counts.tolist()):
        y = top + r * cell
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="9" '
            'text-anchor="end">%s</text>' % (margin - 4, y + cell - 7, row_ids[r])
        )
        for c, v in enumerate(map(int, row)):
            shade = 255 - int(round(205 * v / peak)) if v else 255
            x = margin + c * cell
            parts.append(
                '<rect x="%d" y="%d" width="%d" height="%d" '
                'fill="rgb(%d,%d,255)" stroke="#ccc"/>' % (x, y, cell, cell, shade, shade)
            )
            if v:
                parts.append(
                    '<text x="%d" y="%d" font-family="sans-serif" font-size="8" '
                    'text-anchor="middle">%d</text>' % (x + cell // 2, y + cell - 8, v)
                )
    for c in range(j):
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="9" '
            'text-anchor="middle">%s</text>'
            % (margin + c * cell + cell // 2, top - 6, col_ids[c])
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_lineplot(xs, series, title="", x_label=""):
    """series: ordered dict-like of name -> list of y values (same length as xs)."""
    width, height = 520, 340
    left, right, top, bottom = 60, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.05             # every series is a purity or an ARI
    span_x = (x_hi - x_lo) or 1
    span_y = y_hi - y_lo

    def px(x):
        return left + plot_w * (x - x_lo) / span_x

    def py(y):
        return top + plot_h * (1 - (y - y_lo) / span_y)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height),
        '<text x="%d" y="20" font-family="sans-serif" font-size="13">%s</text>' % (left, title),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333"/>'
        % (left, top, plot_w, plot_h),
    ]
    for x in xs:
        parts.append(
            '<text x="%s" y="%d" font-family="sans-serif" font-size="9" '
            'text-anchor="middle">%s</text>' % (_fmt(px(x)), height - bottom + 14, x)
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * span_y
        parts.append(
            '<text x="%d" y="%s" font-family="sans-serif" font-size="9" '
            'text-anchor="end">%s</text>' % (left - 4, _fmt(py(y) + 3), _fmt(y))
        )
    for s, (name, ys) in enumerate(series.items()):
        color = colors[s % len(colors)]
        points = " ".join("%s,%s" % (_fmt(px(x)), _fmt(py(y))) for x, y in zip(xs, ys))
        parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
            % (color, points)
        )
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="10" '
            'fill="%s">%s</text>' % (left + 8 + 90 * s, top + 14, color, name)
        )
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="10" '
        'text-anchor="middle">%s</text>'
        % (left + plot_w // 2, height - 14, x_label)
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
