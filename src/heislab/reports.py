"""Deterministic experiment reports: JSON, CSV and SVG writers.

Floats are serialized with repr (17 significant digits), keys are sorted
and no timestamps are embedded, so reruns with the same seed produce
bit-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SVG_SIZE = (640, 480)


@dataclass
class ExperimentReport:
    """Named result bundle: scalar summary values plus tabular series."""

    name: str
    params: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def to_json(self):
        payload = {
            "name": self.name,
            "params": self.params,
            "scalars": self.scalars,
            "series": {k: list(map(float, v)) for k, v in self.series.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def write_json(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def write_csv(self, path):
        keys = sorted(self.series)
        if not keys:
            raise ValueError("report has no series to write")
        n = len(self.series[keys[0]])
        for k in keys:
            if len(self.series[k]) != n:
                raise ValueError("series lengths differ")
        with open(path, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for i in range(n):
                fh.write(",".join(repr(float(self.series[k][i]))
                                  for k in keys) + "\n")

    def write_svg(self, path, x_key):
        """Polyline plot of the other series; hand-rolled, stable bytes."""
        width, height = SVG_SIZE
        y_keys = [k for k in sorted(self.series) if k != x_key]
        if x_key not in self.series:
            raise ValueError("unknown x series %r" % x_key)
        xs = [float(v) for v in self.series[x_key]]
        if not xs or not y_keys:
            raise ValueError("nothing to plot")
        ys_all = [float(v) for k in y_keys for v in self.series[k]]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys_all), max(ys_all)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0
        pad = 40
        colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

        def sx(x):
            return pad + (x - x0) / xr * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - y0) / yr * (height - 2 * pad)

        lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
                 'height="%d">' % (width, height),
                 '<rect width="100%" height="100%" fill="white"/>']
        for i, k in enumerate(y_keys):
            pts = " ".join("%.2f,%.2f" % (sx(x), sy(float(y)))
                           for x, y in zip(xs, self.series[k]))
            lines.append('<polyline fill="none" stroke="%s" stroke-width="1.5"'
                         ' points="%s"/>' % (colors[i % len(colors)], pts))
            lines.append('<text x="%d" y="%d" fill="%s" font-size="12">%s'
                         '</text>' % (pad, 16 + 14 * i,
                                      colors[i % len(colors)], k))
        lines.append('<text x="%d" y="%d" font-size="12">%s</text>'
                     % (width // 2, height - 8, x_key))
        lines.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def write_manifest(path, entries):
    """Constants manifest: 'name value samples seed description' per line."""
    with open(path, "w") as fh:
        for name in sorted(entries):
            e = entries[name]
            fh.write("%s %.17g %d %d %s\n"
                     % (name, e["value"], e["samples"], e["seed"],
                        e["description"]))


def read_manifest(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ", 4)
            if len(parts) < 4:
                continue
            out[parts[0]] = {
                "value": float(parts[1]),
                "samples": int(parts[2]),
                "seed": int(parts[3]),
                "description": parts[4] if len(parts) > 4 else "",
            }
    return out
