"""Deterministic sampling helpers: Philox RNG, uniform ball points, ball volumes."""

from __future__ import annotations

import numpy as np
# at module level, so that the first make_rng call does not pay for it
from numpy.random import Generator, Philox

from .core import dilate

_BOX_LO = np.array([-1.0, -1.0, -0.25])
_BOX_SCALE = np.array([2.0, 2.0, 0.5])


def make_rng(seed):
    """Counter-based generator; reproducible independent of thread count."""
    return Generator(Philox(seed))


def _in_unit_ball(p):
    return (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2 + 16.0 * p[:, 2] ** 2 <= 1.0


def _draw_rows(n):
    """Box points uniform_ball_points draws at once while n are missing."""
    return int(n / 0.55) + 16


def uniform_ball_points(n, rng, radius=1.0):
    """Uniform random points in the gauge ball B(0, radius) by rejection."""
    out = np.empty((0, 3))
    while len(out) < n:
        raw = rng.random((_draw_rows(n - len(out)), 3)) * _BOX_SCALE + _BOX_LO
        out = np.concatenate([out, raw[_in_unit_ball(raw)]])
    return dilate(radius, out[:n])


# uniforms of the first draw of uniform_ball_points(1, rng)
ONE_POINT_DRAW = 3 * _draw_rows(1)


def first_ball_points(raw):
    """The point uniform_ball_points(1, rng) keeps from each first draw.

    raw has shape (..., ONE_POINT_DRAW): uniforms as that call's first
    rng.random draws them.  Returns the first of their box points in the
    unit ball, shape (..., 3), and whether there was one; without one
    (about 8e-8 a draw) uniform_ball_points draws again.
    """
    box = raw.reshape(raw.shape[:-1] + (-1, 3)) * _BOX_SCALE + _BOX_LO
    inside = _in_unit_ball(box.reshape(-1, 3)).reshape(box.shape[:-1])
    first = np.argmax(inside, axis=-1)[..., None, None]
    return (np.take_along_axis(box, first, axis=-2)[..., 0, :],
            inside.any(axis=-1))


def monte_carlo_ball_volume(n, seed=0):
    """Rejection estimate of the unit ball volume; oracle for UNIT_BALL_VOLUME."""
    rng = make_rng(seed)
    box_vol = float(np.prod(_BOX_SCALE))
    hits = 0
    done = 0
    while done < n:
        m = min(n - done, 1 << 18)
        raw = rng.random((m, 3)) * _BOX_SCALE + _BOX_LO
        hits += int(np.count_nonzero(_in_unit_ball(raw)))
        done += m
    return box_vol * hits / n


def quadrature_ball_volume():
    """Cylindrical-coordinate quadrature of the unit ball volume.

    The t-extent at cylinder radius rho is sqrt(1 - rho^4) / 4, so the
    volume is int_0^1 pi rho sqrt(1 - rho^4) drho, evaluated with the
    midpoint rule on 20000 cells (the closed form is pi^2 / 8).
    """
    n = 20000
    rho = (np.arange(n) + 0.5) / n
    return float(np.pi * np.sum(rho * np.sqrt(1.0 - rho ** 4)) / n)
