"""Point-line duality between horizontal lines and light rays.

Non-vertical horizontal lines are parametrized by (a, b, c):

    ell(a, b, c) = {(a s + b, s, (b / 2) s + c) : s in R},

and every point p = (x, y, t) has a dual light ray

    ell*(p) = (0, x, t - x y / 2) + L_y,   L_y(s) = (s, -s y, s y^2 / 2),

whose direction part L_y lies on the cone {z2^2 = 2 z1 z3}.  The duality
is the exact biconditional

    p lies on ell(a, b, c)   <=>   (a, b, c) lies on ell*(p),

both sides reducing to { a y + b = x,  (b / 2) y + c = t }.  The residual
vectors of the two predicates are related by an invertible triangular
transform, so the equivalence is exact, not approximate.

The X-ray transform integrates a density over a line against arclength,
with constant speed sqrt(1 + a^2 + b^2 / 4).

The incidence predicates compare both residuals with 0, so they are
exact on Fraction/int inputs; lines, rays and the residuals run on
columns of arrays too, one line per entry, as in
line_residuals(pts.T, HorizontalLine(*abc.T)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import window_blocks


@dataclass(frozen=True)
class HorizontalLine:
    """Non-vertical horizontal line with parameters (a, b, c)."""

    a: object
    b: object
    c: object

    def point_at(self, s):
        return (self.a * s + self.b, s, self.b * s / 2 + self.c)

    def speed(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        return np.sqrt(1.0 + a * a + b * b / 4.0)


@dataclass(frozen=True)
class LightRay:
    """Dual ray (0, u, v) + L_y with L_y(s) = (s, -s y, s y^2 / 2)."""

    u: object
    v: object
    y: object

    def point_at(self, s):
        return (s, self.u - s * self.y, self.v + s * (self.y * self.y) / 2)


def dual_ray(p):
    """The light ray dual to the point p = (x, y, t)."""
    x, y, t = p
    return LightRay(x, t - x * y / 2, y)


def line_residuals(p, line):
    """Residuals of { a y + b = x, (b/2) y + c = t }; exact on Fractions."""
    x, y, t = p
    return (x - (line.a * y + line.b), t - (line.b * y / 2 + line.c))


def ray_residuals(pstar, ray):
    """Residuals of pstar = (0, u, v) + L_y(a); exact on Fractions."""
    a, b, c = pstar
    return (b - (ray.u - a * ray.y), c - (ray.v + a * (ray.y * ray.y) / 2))


def incident_point_line(p, line):
    return line_residuals(p, line) == (0, 0)


def incident_point_ray(pstar, ray):
    return ray_residuals(pstar, ray) == (0, 0)


def _grid_index(p, origin, spacing, n):
    """Cell index floor((p - origin) / spacing), and whether it is in [0, n)."""
    i = np.floor((p - origin) / spacing)
    return i, (i >= 0) & (i < n)


def _sample_span(slope, scale, offset, origin, spacing, n, s, step):
    """Per line, the samples [first, stop) of s that can meet one axis.

    The line's coordinate on the axis is slope * scale * s + offset, the
    grid holds [origin, origin + spacing * n) of it, and the samples lie
    step apart.  A zero slope is flat: every sample meets the axis or
    none does.  Otherwise the closed-form interval of s is widened by one
    sample at each end.  Rounding in the coordinate, in the cell index
    and in the interval's ends moves a crossing by a few ulps of mag /
    |slope * scale|, where mag = |slope * scale| max|s| + |offset| +
    |origin| + |top|; where that could reach 2^-40 of a step, as at
    slopes near 1e-300, the span is every sample.
    """
    top = origin + spacing * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = slope * scale
        mag = (np.abs(alpha) * float(np.abs(s).max(initial=0.0))
               + np.abs(offset) + abs(origin) + abs(top))
        steep = np.abs(alpha) * step > 2.0 ** -40 * mag
        ends = (np.array([[origin], [top]]) - offset) / alpha
    first = np.searchsorted(s, ends.min(axis=0), side="left") - 1
    stop = np.searchsorted(s, ends.max(axis=0), side="right") + 1
    empty = (slope == 0) & ~_grid_index(offset, origin, spacing, n)[1]
    first = np.where(steep, np.clip(first, 0, len(s)),
                     np.where(empty, len(s), 0))
    stop = np.where(steep, np.clip(stop, 0, len(s)), len(s))
    return first, stop


def xray_transform(density, line):
    """Arclength integrals of a gridded density over horizontal lines.

    density must expose origin (3,), spacing (3,), values (nx, ny, nz);
    lookup is nearest-cell.  One integral per line, in the broadcast
    shape of line's fields.  Every line is sampled at the same
    y-parameters, half the smallest spacing apart, but only over the span
    of them that can meet the grid in x and in t (_sample_span), in
    blocks of about core.PAIR_BLOCK (line, sample) entries.  The cell
    test decides every sample formed, and a line's samples sum in order
    in one block, so the span changes no bit of the result.
    """
    origin = np.asarray(density.origin, dtype=float)
    spacing = np.asarray(density.spacing, dtype=float)
    values = density.values
    fields = np.broadcast_arrays(line.a, line.b, line.c)
    a, b, c = (np.asarray(f, dtype=float).ravel() for f in fields)
    step = float(spacing.min()) / 2.0
    y1 = origin[1] + spacing[1] * values.shape[1]
    s = np.arange(origin[1] + step / 2.0, y1, step)
    first, stop = np.zeros(len(a), dtype=np.int64), np.full(len(a), len(s))
    for slope, scale, offset, ax in ((a, 1.0, b, 0), (b, 0.5, c, 2)):
        f, e = _sample_span(slope, scale, offset, origin[ax], spacing[ax],
                            values.shape[ax], s, step)
        first, stop = np.maximum(first, f), np.minimum(stop, e)
    total = np.zeros(len(a))
    for w, k in window_blocks(first, np.maximum(stop - first, 0)):
        idx, ok = zip(*map(_grid_index,
                           HorizontalLine(a[w], b[w], c[w]).point_at(s[k]),
                           origin, spacing, values.shape))
        ok = np.logical_and.reduce(ok)
        hits = values[tuple(i[ok].astype(np.int64) for i in idx)]
        total[w[0]:w[-1] + 1] = np.bincount(w[ok] - w[0], weights=hits,
                                            minlength=w[-1] + 1 - w[0])
    speed = HorizontalLine(a, b, c).speed()
    return (total * speed * step).reshape(fields[0].shape)
