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

All predicates run exactly on Fraction/int inputs (tol=0) and to a
tolerance on floats; dual_ray, line_of and the residuals run on columns
of arrays too, as in line_residuals(pts.T, line_of(abc.T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HorizontalLine:
    """Non-vertical horizontal line with parameters (a, b, c)."""

    a: object
    b: object
    c: object

    def point_at(self, s):
        return (self.a * s + self.b, s, self.b * s / 2 + self.c)

    def speed(self):
        a, b = float(self.a), float(self.b)
        return math.sqrt(1.0 + a * a + b * b / 4.0)


@dataclass(frozen=True)
class LightRay:
    """Dual ray (0, u, v) + L_y with L_y(s) = (s, -s y, s y^2 / 2)."""

    u: object
    v: object
    y: object

    def point_at(self, s):
        return (s, self.u - s * self.y, self.v + s * self.y ** 2 / 2)


def line_of(pstar):
    """The line whose parameter point is pstar = (a, b, c)."""
    a, b, c = pstar
    return HorizontalLine(a, b, c)


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
    return (b - (ray.u - a * ray.y), c - (ray.v + a * ray.y ** 2 / 2))


def incident_point_line(p, line, tol=1e-10):
    r1, r2 = line_residuals(p, line)
    return abs(r1) <= tol and abs(r2) <= tol


def incident_point_ray(pstar, ray, tol=1e-10):
    r1, r2 = ray_residuals(pstar, ray)
    return abs(r1) <= tol and abs(r2) <= tol


def xray_transform(density, line):
    """Arclength integral of a gridded density over a horizontal line.

    density must expose origin (3,), spacing (3,), values (nx, ny, nz);
    lookup is nearest-cell.  The quadrature step along the y-parameter
    is half the smallest spacing.
    """
    origin = np.asarray(density.origin, dtype=float)
    spacing = np.asarray(density.spacing, dtype=float)
    values = density.values
    line = HorizontalLine(float(line.a), float(line.b), float(line.c))
    step = float(spacing.min()) / 2.0
    y0 = origin[1]
    y1 = origin[1] + spacing[1] * values.shape[1]
    s = np.arange(y0 + step / 2.0, y1, step)
    pts = np.stack(line.point_at(s), axis=1)
    idx = np.floor((pts - origin) / spacing).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < np.array(values.shape)), axis=1)
    total = float(values[idx[ok, 0], idx[ok, 1], idx[ok, 2]].sum())
    return total * line.speed() * step
