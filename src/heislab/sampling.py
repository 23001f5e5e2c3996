"""Deterministic sampling: Philox RNG, uniform ball points, MC ball volume."""

from __future__ import annotations

import numpy as np
# at module level, so that the first make_rng call does not pay for it
from numpy.random import Generator, Philox

from .core import blocks, dilate

_BOX_LO = np.array([-1.0, -1.0, -0.25])
_BOX_SCALE = np.array([2.0, 2.0, 0.5])


def make_rng(seed):
    """Counter-based generator; reproducible independent of thread count."""
    return Generator(Philox(seed))


def _in_unit_ball(p):
    return (p[:, 0] ** 2 + p[:, 1] ** 2) ** 2 + 16.0 * p[:, 2] ** 2 <= 1.0


def _rejection_points(n, rng, lo, scale, inside, rate):
    """n points uniform in {inside} from box points rng.random * scale + lo.

    While m points are missing, it draws m / rate + 16 box points at once.
    """
    out = np.empty((0, 3))
    while len(out) < n:
        raw = rng.random((int((n - len(out)) / rate) + 16, 3)) * scale + lo
        out = np.concatenate([out, raw[inside(raw)]])
    return out[:n]


def uniform_ball_points(n, rng, radius=1.0):
    """Uniform random points in the gauge ball B(0, radius) by rejection."""
    return dilate(radius, _rejection_points(n, rng, _BOX_LO, _BOX_SCALE,
                                            _in_unit_ball, 0.55))


def uniform_euclidean_ball(n, rng, radius):
    """Uniform random points in the euclidean ball of the given radius."""
    return _rejection_points(n, rng, -1.0, 2.0, lambda p: np.einsum(
        "ij,ij->i", p, p) <= 1.0, 0.5) * radius


def monte_carlo_ball_volume(n, seed=0):
    """Rejection estimate of the unit ball volume; oracle for UNIT_BALL_VOLUME."""
    rng = make_rng(seed)
    box_vol = float(np.prod(_BOX_SCALE))
    hits = 0
    # about PAIR_BLOCK coordinates a draw; the stream is contiguous, so
    # the block size changes no bit
    for sl in blocks(n, 3):
        raw = rng.random((sl.stop - sl.start, 3)) * _BOX_SCALE + _BOX_LO
        hits += int(np.count_nonzero(_in_unit_ball(raw)))
    return box_vol * hits / n
