import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heislab.core
from heislab.core import group_mul
from heislab.duality import (HorizontalLine, LightRay, dual_ray,
                             incident_point_line, incident_point_ray,
                             line_residuals, ray_residuals, xray_transform)
from heislab.measures import GridDensity
from heislab.sampling import make_rng

frac = st.fractions(min_value=-10, max_value=10,
                    max_denominator=100)


def _on_cone(v, tol=0.0):
    """Membership of v in the cone {z2^2 = 2 z1 z3}."""
    z1, z2, z3 = v
    return abs(z2 * z2 - 2 * z1 * z3) <= tol


def _ray_direction(ray, s=1):
    """L_y(s) = (s, -s y, s y^2 / 2), the direction part of a LightRay."""
    return (s, -s * ray.y, s * ray.y ** 2 / 2)


def _line_tangent(line):
    """Unnormalized tangent (a, 1, b/2) of a HorizontalLine."""
    return (line.a, 1, line.b / 2)


def xray_transform_per_line(density, line):
    """Arclength integral over one line with float fields; the oracle."""
    origin = np.asarray(density.origin, dtype=float)
    spacing = np.asarray(density.spacing, dtype=float)
    values = density.values
    a, b, c = float(line.a), float(line.b), float(line.c)
    step = float(spacing.min()) / 2.0
    y0 = origin[1]
    y1 = origin[1] + spacing[1] * values.shape[1]
    s = np.arange(y0 + step / 2.0, y1, step)
    pts = np.stack(HorizontalLine(a, b, c).point_at(s), axis=1)
    idx = np.floor((pts - origin) / spacing).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < np.array(values.shape)), axis=1)
    total = float(values[idx[ok, 0], idx[ok, 1], idx[ok, 2]].sum())
    return total * math.sqrt(1.0 + a * a + b * b / 4.0) * step


def _line_grid(rng, shape):
    """Lines with |a| <= 1.2 and |b|, |c| <= 1.8, some missing the grid."""
    return HorizontalLine(*(rng.random((3,) + shape)
                            * np.array([2.4, 3.6, 3.6])[:, None, None]
                            - np.array([1.2, 1.8, 1.8])[:, None, None]))


def _random_grid(rng, integer):
    shape = (23, 31, 40)
    values = (rng.integers(0, 50, shape).astype(float) if integer
              else rng.random(shape) * 3.0)
    values[rng.random(shape) < 0.3] = 0.0
    return GridDensity(origin=[-0.6, -1.1, -1.8],
                       spacing=[0.05, 0.07, 0.09], values=values)


def test_line_is_horizontal():
    # segments of the line have gauge length comparable to the step,
    # i.e. no quadratic-scale vertical component in the group sense
    line = HorizontalLine(0.7, -0.3, 1.2)
    s = np.linspace(-2, 2, 101)
    pts = np.array([line.point_at(si) for si in s])
    steps = group_mul(-pts[:-1], pts[1:])
    # third coordinate of each group increment vanishes for horizontal lines
    assert float(np.max(np.abs(steps[:, 2]))) < 1e-12


def test_dual_ray_direction_on_cone():
    ray = dual_ray((0.4, -1.3, 2.0))
    assert _on_cone(_ray_direction(ray), tol=1e-15)
    assert _on_cone(_ray_direction(ray, -2.5), tol=1e-14)


@given(frac, frac, frac, frac)
@settings(max_examples=200, deadline=None)
def test_tangent_is_horizontal_exactly(a, b, c, s):
    # at (x, y, t) = point_at(s) the tangent (x', y', t') = (a, 1, b/2)
    # satisfies t' = (x y' - y x') / 2 and is the step of point_at
    line = HorizontalLine(a, b, c)
    x, y, t = line.point_at(s)
    dx, dy, dt = _line_tangent(line)
    assert dt == (x * dy - y * dx) / 2
    assert tuple(q - p for p, q in zip(line.point_at(s),
                                       line.point_at(s + 1))) == (dx, dy, dt)


@given(frac, frac, frac, frac, frac)
@settings(max_examples=200, deadline=None)
def test_exact_biconditional(a, b, c, y, jitter):
    line = HorizontalLine(a, b, c)
    p = line.point_at(y)  # point on the line, exact arithmetic
    assert incident_point_line(p, line)
    assert incident_point_ray((a, b, c), dual_ray(p))
    if jitter != 0:
        q = (p[0] + jitter, p[1], p[2])
        assert incident_point_line(q, line) == \
            incident_point_ray((a, b, c), dual_ray(q))


@given(frac, frac, frac, frac, frac, frac)
@settings(max_examples=200, deadline=None)
def test_residual_triangular_relation(a, b, c, x, y, t):
    line = HorizontalLine(a, b, c)
    p = (x, y, t)
    r1, r2 = line_residuals(p, line)
    s1, s2 = ray_residuals((a, b, c), dual_ray(p))
    assert s1 == -r1
    assert s2 == -r2 + Fraction(y) / 2 * r1


def test_incident_points_have_tiny_residuals_in_float():
    rng = make_rng(6)
    abc = rng.random((10000, 3)) * 2 - 1
    s = rng.random(10000) * 2 - 1
    x = abc[:, 0] * s + abc[:, 1]
    t = abc[:, 1] * s / 2 + abc[:, 2]
    pts = np.stack([x, s, t], axis=1)
    # the residuals run on columns of arrays as they do on Fractions
    R = line_residuals(pts.T, HorizontalLine(*abc.T))
    S = ray_residuals(abc.T, dual_ray(pts.T))
    assert float(np.max(np.abs(R))) <= 1e-14
    assert float(np.max(np.abs(S))) <= 1e-14


def test_speed_matches_arclength():
    line = HorizontalLine(0.8, -0.6, 0.2)
    s = np.linspace(0, 1, 100001)
    pts = np.array([line.point_at(si) for si in s])
    length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    assert length == pytest.approx(line.speed(), rel=1e-10)


def test_ray_point_form():
    ray = LightRay(0.3, -0.7, 1.1)
    p = ray.point_at(2.0)
    base = np.array(ray.point_at(0.0))
    assert p == (2.0, 0.3 - 2.0 * 1.1, -0.7 + 2.0 * 1.1 ** 2 / 2)
    assert np.allclose(base, [0.0, 0.3, -0.7])


def test_ray_points_and_residuals_one_at_a_time_match_arrays():
    # y ** 2 on one point is libm pow, which rounds apart from the array
    # square; y * y is the same product on both
    p = make_rng(25).random((20000, 3)) * 2 - 1
    ray = dual_ray(p.T)
    points = np.stack(np.broadcast_arrays(*ray.point_at(0.7)), axis=-1)
    pstar = (points + [0.0, 1e-3, -1e-3]).T
    residuals = np.stack(ray_residuals(pstar, ray), axis=-1)
    for i in range(len(p)):
        one = dual_ray(tuple(p[i].tolist()))
        assert one.point_at(0.7) == tuple(points[i].tolist())
        assert ray_residuals(tuple(pstar[:, i].tolist()), one) \
            == tuple(residuals[i].tolist())


def test_speed_on_arrays_matches_scalar_formula():
    a, b = make_rng(4).random((2, 50)) * 6 - 3
    got = HorizontalLine(a, b, 0.0).speed()
    assert got.shape == (50,)
    assert got.tolist() == [math.sqrt(1.0 + x * x + y * y / 4.0)
                            for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("integer", [True, False])
def test_xray_transform_matches_per_line_oracle(integer):
    # integer-valued sums are exact in any order, so those lines agree
    # bit for bit; float sums group their terms differently
    rng = make_rng(21 if integer else 22)
    g = _random_grid(rng, integer)
    lines = _line_grid(rng, (6, 40))
    got = xray_transform(g, lines)
    assert got.shape == (6, 40)
    want = np.array([[xray_transform_per_line(g, HorizontalLine(a, b, c))
                      for a, b, c in zip(*(f[i] for f in
                                           (lines.a, lines.b, lines.c)))]
                     for i in range(6)])
    assert np.count_nonzero(want) > 100 and np.any(want == 0)
    if integer:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_xray_transform_broadcasts_line_fields():
    rng = make_rng(23)
    g = _random_grid(rng, False)
    one = xray_transform(g, HorizontalLine(0.2, -0.3, 0.1))
    assert one.shape == ()
    assert float(one) == pytest.approx(
        xray_transform_per_line(g, HorizontalLine(0.2, -0.3, 0.1)),
        rel=1e-12)
    bc = np.linspace(-1.5, 1.5, 21)
    lines = HorizontalLine(*np.meshgrid(np.linspace(-1, 1, 9), bc, bc,
                                        indexing="ij"))
    grid_of_lines = xray_transform(g, lines)
    assert grid_of_lines.shape == (9, 21, 21)
    # fields of different shapes broadcast against each other
    row = xray_transform(g, HorizontalLine(0.2, bc, 0.1))
    assert row.shape == (21,)
    assert row[7] == xray_transform(g, HorizontalLine(0.2, bc[7], 0.1))
    # t = c stays above the grid's t-range [-1.8, 1.8)
    assert xray_transform(g, HorizontalLine(0.0, 0.0, 5.0)) == 0.0
    assert xray_transform(g, HorizontalLine(np.zeros(3), 0.0, 5.0)).tolist() \
        == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("block", [1, 31, 500, 10 ** 4])
def test_xray_transform_blocks_do_not_change_the_result(monkeypatch, block):
    # one sample row per line block or less, a few lines, a whole block
    rng = make_rng(24)
    g = _random_grid(rng, False)
    lines = _line_grid(rng, (7, 30))
    want = xray_transform(g, lines)
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", block)
    assert xray_transform(g, lines).tobytes() == want.tobytes()


def _edge_lines(g):
    """Lines at the edges of a line's in-grid span, as (a, b, c) arrays.

    Returns the lines and two masks: the lines that meet the grid in
    exactly one sample, and the lines that never meet it.
    """
    origin = np.asarray(g.origin, dtype=float)
    top = origin + np.asarray(g.spacing) * np.array(g.values.shape)
    step = float(np.min(g.spacing)) / 2.0
    s = np.arange(origin[1] + step / 2.0, top[1], step)
    lines, kind = [], []

    def add(tag, a, b, c):
        lines.append((a, b, c))
        kind.append(tag)

    for k in (0, 1, len(s) // 3, len(s) - 2, len(s) - 1):
        for x in (origin[0], top[0]):
            for t in (origin[2], top[2]):
                # through a corner of the grid at a sample
                for a in np.linspace(-3.0, 3.0, 25):
                    b = x - a * s[k]
                    add("corner", a, b, t - b * s[k] / 2)
        # one sample: x moves 5 a sample, the grid is 1.15 wide in x
        for a in (200.0, -200.0):
            b = origin[0] + 0.5 - a * s[k]
            add("one", a, b, -b * s[k] / 2)
        # none: x jumps over the whole grid between s[k] and s[k + 1]
        a = -(top[0] - origin[0] + 0.2) / step
        add("none", a, top[0] + 0.1 - a * s[k], 0.0)
    for slope in (0.0, -0.0, 1e-300, -1e-300):
        for x in (origin[0], top[0], 0.1):
            # along a face in x, with t = x s / 2 inside the grid
            add("face", slope, x, 0.0)
        for t in (origin[2], top[2], 0.1):
            # along a face in t
            add("face", 0.7, slope, t)
    add("none", 0.0, 0.1, top[2] + 1.0)
    add("none", 0.3, 0.0, origin[2] - 1.0)
    fields = tuple(np.array(f) for f in zip(*lines))
    kind = np.array(kind)
    return HorizontalLine(*fields), kind == "one", kind == "none"


@pytest.mark.parametrize("block", [1, 31, None])
def test_xray_transform_span_misses_no_sample(monkeypatch, block):
    # every value is positive, so a line's integral is 0 exactly when no
    # sample of it meets the grid, and integers sum alike in any order
    rng = make_rng(25)
    g = GridDensity(origin=[-0.6, -1.1, -1.8], spacing=[0.05, 0.07, 0.09],
                    values=rng.integers(1, 50, (23, 31, 40)).astype(float))
    lines, one, none = _edge_lines(g)
    if block is not None:
        monkeypatch.setattr(heislab.core, "PAIR_BLOCK", block)
    got = xray_transform(g, lines)
    want = np.array([xray_transform_per_line(g, HorizontalLine(*abc))
                     for abc in zip(lines.a, lines.b, lines.c)])
    assert got.tobytes() == want.tobytes()
    speed = lines.speed()
    step = float(np.min(g.spacing)) / 2.0
    # one cell value per line: the integral is value * speed * step
    hit = want[one] / (speed[one] * step)
    np.testing.assert_allclose(hit, np.clip(np.round(hit), 1, 49), rtol=1e-12)
    assert np.all(want[none] == 0)
    assert np.count_nonzero(want) > len(want) // 3


def test_xray_transform_constant_density():
    # unit density on a box; integral over a line segment inside the box
    # is speed * (parameter length inside)
    spacing = np.array([0.02, 0.02, 0.02])
    origin = np.array([-1.0, -1.0, -1.0])
    values = np.ones((100, 100, 100))
    g = GridDensity(origin=origin, spacing=spacing, values=values)
    line = HorizontalLine(0.3, 0.1, 0.0)
    got = xray_transform(g, line)
    # parameter range where all three coordinates stay in [-1, 1)
    s = np.arange(-1 + 0.005, 1, 0.01)
    pts = np.stack([0.3 * s + 0.1, s, 0.05 * s], axis=1)
    inside = np.all((pts >= -1) & (pts < 1), axis=1)
    expected = line.speed() * inside.mean() * 2.0
    assert got == pytest.approx(expected, rel=0.02)


def test_dual_ray_base_uses_plane_chart():
    # base point of the dual ray is the (x, t - xy/2) chart of p
    p = (0.4, -1.3, 2.0)
    ray = dual_ray(p)
    assert ray.u == 0.4
    assert ray.v == 2.0 - 0.4 * (-1.3) / 2
    assert ray.y == -1.3
