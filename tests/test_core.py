import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heislab.core
from heislab.core import (UNIT_BALL_VOLUME, ball_volume, blocks, dilate,
                          gauge_norm, gauge_pairs, group_mul, heis_dist,
                          heis_dist_trunc, window_blocks, window_join)
from heislab.delta_sets import (covering_number, gen_heis_lattice,
                                gen_horizontal_line, gen_lattice_slab,
                                gen_random3, gen_t_axis)
from heislab.sampling import (make_rng, monte_carlo_ball_volume,
                              uniform_ball_points, uniform_euclidean_ball)

EPS = np.finfo(float).eps

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord).map(np.array)


def test_group_law_example():
    p = np.array([1.0, 2.0, 3.0])
    q = np.array([-0.5, 1.0, 0.25])
    out = group_mul(p, q)
    # t + t' + (x y' - y x') / 2 = 3 + 0.25 + (1*1 - 2*(-0.5))/2
    assert np.allclose(out, [0.5, 3.0, 4.25], atol=1e-15)


def test_group_non_commutative():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    assert not np.allclose(group_mul(p, q), group_mul(q, p))
    # commutator sits on the vertical axis
    comm = group_mul(group_mul(p, q), -group_mul(q, p))
    assert np.allclose(comm[:2], 0.0)
    assert comm[2] == pytest.approx(1.0)


@given(point, point, point)
@settings(max_examples=200, deadline=None)
def test_associativity(p, q, r):
    lhs = group_mul(group_mul(p, q), r)
    rhs = group_mul(p, group_mul(q, r))
    assert np.allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(lhs).max()))


@given(point)
@settings(max_examples=200, deadline=None)
def test_inverse(p):
    assert np.allclose(group_mul(p, -p), 0.0, atol=1e-12)
    assert np.allclose(group_mul(-p, p), 0.0, atol=1e-12)


@given(point, point, st.floats(0.01, 10))
@settings(max_examples=200, deadline=None)
def test_dilation_automorphism(p, q, lam):
    lhs = dilate(lam, group_mul(p, q))
    rhs = group_mul(dilate(lam, p), dilate(lam, q))
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_norm_examples():
    assert gauge_norm(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert gauge_norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0)
    assert gauge_norm(np.zeros(3)) == 0.0


@given(point, st.floats(0.01, 10))
@settings(max_examples=200, deadline=None)
def test_norm_homogeneous_and_symmetric(p, lam):
    n = gauge_norm(p)
    assert gauge_norm(dilate(lam, p)) == pytest.approx(lam * n, rel=1e-10)
    assert gauge_norm(-p) == pytest.approx(n, rel=1e-12)


@given(point, point, point)
@example(p=(0, 0, 0), q=(0, 0, 1e-15), r=(0, 0, 1))
@settings(max_examples=200, deadline=None)
def test_left_invariance_and_triangle(p, q, r):
    # Near the vertical axis d = 2 sqrt(|tau|), so compare d^2, about
    # 4 |tau| there.  With coordinates up to m, tau sums products of
    # translated coordinates up to (2 m)^2, and a few roundings of those
    # move d^2 by up to about 32 eps (1 + m)^2.  That is below 1e-12 for
    # m <= 10, so wherever d >= 1e-3 the check is no looser than
    # |d' - d| <= max(1e-8 d, 1e-9).
    d = heis_dist(p, q)
    m = max(float(np.max(np.abs(v))) for v in (p, q, r))
    moved = heis_dist(group_mul(r, p), group_mul(r, q))
    assert moved * moved == pytest.approx(
        d * d, rel=1e-8, abs=32 * EPS * (1 + m) ** 2)
    assert d <= heis_dist(p, r) + heis_dist(r, q) + 1e-9


@st.composite
def row_blockings(draw):
    """Points (some on the axis, some tiny or huge) and cut positions."""
    wide = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0])
    pts = draw(st.lists(st.tuples(wide, wide, wide), min_size=1,
                        max_size=40))
    cuts = draw(st.lists(st.integers(0, len(pts)), max_size=6))
    return np.array(pts), sorted(set(cuts) | {0, len(pts)})


@given(row_blockings(), row_blockings())
@settings(max_examples=200, deadline=None)
def test_distances_and_norms_do_not_depend_on_blocking(a, b):
    # numpy's x ** 0.25 rounds arrays and single points apart; the
    # nested square roots do not, so every blocking gives the same bits
    (p, cuts), (q, _) = a, b
    q = np.resize(q, p.shape)
    whole_d, whole_n = heis_dist(p, q), gauge_norm(p)
    blocked_d = np.concatenate([heis_dist(p[i:j], q[i:j])
                                for i, j in zip(cuts, cuts[1:])])
    blocked_n = np.concatenate([gauge_norm(p[i:j])
                                for i, j in zip(cuts, cuts[1:])])
    one_d = np.array([heis_dist(x, y) for x, y in zip(p, q)])
    one_n = np.array([gauge_norm(x) for x in p])
    for got in (blocked_d, one_d):
        assert got.tobytes() == whole_d.tobytes()
    for got in (blocked_n, one_n):
        assert got.tobytes() == whole_n.tobytes()


edge = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
     0.1, -1 / 3])


@given(st.tuples(edge, edge, edge), st.tuples(edge, edge, edge))
@settings(max_examples=500, deadline=None)
def test_heis_dist_is_symmetric_to_the_bit(p, q):
    # dx, dy and tau change sign exactly when p and q swap, so the
    # squares agree; dyadic_ball_counts takes each pair once on this
    p, q = np.array(p), np.array(q)
    with np.errstate(over="ignore", invalid="ignore"):
        assert heis_dist(p, q).tobytes() == heis_dist(q, p).tobytes()


def test_truncated_metric():
    p = np.zeros(3)
    q = np.array([0.1, 0.0, 0.0])
    assert heis_dist_trunc(p, q, 0.5) == 0.5
    assert heis_dist_trunc(p, q, 0.01) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        heis_dist_trunc(p, q, -1.0)
    with pytest.raises(ValueError):
        heis_dist_trunc(p, q, np.nan)


def test_ball_volume_closed_form_vs_quadrature():
    # the t-extent at cylinder radius rho is sqrt(1 - rho^4) / 4: the
    # midpoint rule on 20000 cells of int_0^1 pi rho sqrt(1 - rho^4)
    assert UNIT_BALL_VOLUME == pytest.approx(math.pi ** 2 / 8)
    rho = (np.arange(20000) + 0.5) / 20000
    quadrature = float(np.pi * np.sum(rho * np.sqrt(1.0 - rho ** 4)) / 20000)
    assert quadrature == pytest.approx(UNIT_BALL_VOLUME, rel=1e-6)


def test_ball_volume_monte_carlo():
    est = monte_carlo_ball_volume(400000, seed=3)
    assert est == pytest.approx(UNIT_BALL_VOLUME, rel=0.01)


def test_ball_volume_scaling():
    assert ball_volume(2.0) == pytest.approx(16 * UNIT_BALL_VOLUME)
    assert ball_volume(0.0) == 0.0
    with pytest.raises(ValueError):
        ball_volume(-1.0)
    with pytest.raises(ValueError):
        ball_volume(np.nan)


def test_ball_contains_and_volume():
    # a ball is a (center, radius) pair: membership comes from heis_dist
    # and volume from ball_volume
    center, radius = (0.2, -0.1, 0.05), 0.3
    assert heis_dist(center, center) <= radius
    assert heis_dist([2.0, 2.0, 2.0], center) > radius
    assert ball_volume(radius) == pytest.approx(UNIT_BALL_VOLUME * 0.3 ** 4)


def test_ball_points_inside_ball():
    c = np.array([0.3, -0.2, 0.1])
    pts = group_mul(c, dilate(0.25, uniform_ball_points(500, make_rng(3))))
    assert float(heis_dist(pts, c).max()) <= 0.25 + 1e-12


def test_uniform_ball_points_deterministic():
    a = uniform_ball_points(50, make_rng(9))
    b = uniform_ball_points(50, make_rng(9))
    assert np.array_equal(a, b)
    assert np.all(gauge_norm(a) <= 1.0)


def euclidean_ball_loop(n, rng, radius):
    """Oracle for uniform_euclidean_ball: its rejection loop, written out."""
    out = np.empty((0, 3))
    while len(out) < n:
        raw = rng.random((int((n - len(out)) / 0.5) + 16, 3)) * 2.0 - 1.0
        out = np.concatenate([out, raw[np.einsum("ij,ij->i", raw, raw) <= 1.0]])
    return out[:n] * radius


def gauge_ball_loop(n, rng, radius):
    """Oracle for uniform_ball_points: its rejection loop, written out."""
    out = np.empty((0, 3))
    while len(out) < n:
        raw = rng.random((int((n - len(out)) / 0.55) + 16, 3)) \
            * [2.0, 2.0, 0.5] - [1.0, 1.0, 0.25]
        keep = (raw[:, 0] ** 2 + raw[:, 1] ** 2) ** 2 + 16.0 * raw[:, 2] ** 2
        out = np.concatenate([out, raw[keep <= 1.0]])
    return dilate(radius, out[:n])


@pytest.mark.parametrize("n", [0, 1, 20000])
@pytest.mark.parametrize("fast, loop, radius", [
    (uniform_euclidean_ball, euclidean_ball_loop, 2.0),
    (uniform_ball_points, gauge_ball_loop, 0.8)])
def test_rejection_samplers_match_their_loops(n, fast, loop, radius):
    # same points and the same next draw: the plate-energy sample and
    # every stream drawn after a ball sample depend on both
    fast_rng, slow_rng = make_rng(n + 3), make_rng(n + 3)
    got = fast(n, fast_rng, radius)
    assert got.tobytes() == loop(n, slow_rng, radius).tobytes()
    assert got.shape == (n, 3)
    assert fast_rng.random() == slow_rng.random()


def dense_pairs(points, r):
    """Oracle for gauge_pairs: every (i, j, d) from the full matrix, in
    order of (i, j)."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    d = heis_dist(p[:, None, :], p[None, :, :])
    i, j = np.nonzero(d <= r)
    return i, j, d[i, j]


def fast_pairs(points, r):
    """gauge_pairs' (i, j, d) in order of (i, j); also checks the block
    layout it promises."""
    n = len(np.reshape(points, (-1, 3)))
    blocks = [b for b in gauge_pairs(points, r) if len(b[0])]
    if not blocks:
        return tuple(np.zeros(0, dtype=t) for t in (np.int64, np.int64, float))
    i, j, d = (np.concatenate(col) for col in zip(*blocks))
    # order of i, and each i's pairs consecutive in one block
    assert np.all(np.diff(i) >= 0)
    assert all(a[0][-1] < b[0][0] for a, b in zip(blocks, blocks[1:]))
    # every point pairs with itself, at d = 0 exactly
    own = i == j
    assert np.array_equal(i[own], np.arange(n)) and np.all(d[own] == 0.0)
    order = np.lexsort((j, i))
    return i[order], j[order], d[order]


def same_pairs(got, want):
    """The same (i, j) in the same order, with d bit for bit."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want))


# points whose |z| is near 1, where the sheared height tilts most
rim = st.tuples(st.floats(0, 2 * math.pi), st.floats(0.9, 1.0),
                st.floats(-0.3, 0.3)).map(
    lambda a: np.array([a[1] * math.cos(a[0]), a[1] * math.sin(a[0]), a[2]]))


@given(st.lists(rim, min_size=1, max_size=40),
       st.lists(rim, min_size=1, max_size=40), st.floats(0, 0.6))
@settings(max_examples=200, deadline=None)
def test_gauge_pairs_near_rim_match_dense(a, b, r):
    # the self-join of the union holds every pair across the two sets
    pts = np.array(a + b)
    assert same_pairs(fast_pairs(pts, r), dense_pairs(pts, r))


@given(st.sampled_from([2.0 ** -3, 0.075, 0.1]),
       st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                          st.integers(-20, 20)), min_size=1, max_size=50),
       st.sampled_from([0.0, 1.0, 2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_gauge_pairs_on_cell_edges_match_dense(delta, ijk, k):
    # lattice points at distance exactly r sit on the edges of the cells
    pts = np.array(ijk, dtype=float) * [delta, delta, delta ** 2]
    r = k * delta
    assert same_pairs(fast_pairs(pts, r), dense_pairs(pts, r))


@given(st.lists(point, min_size=1, max_size=20), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_gauge_pairs_radius_zero_finds_duplicates(pts, copies):
    pts = np.concatenate([np.array(pts)] * copies)
    got = fast_pairs(pts, 0.0)
    assert same_pairs(got, dense_pairs(pts, 0.0))
    assert len(got[0]) >= len(pts)


# maps under which heis_dist, and so every verdict d <= r, is exact:
# the quarter turn and the reflection are isometric automorphisms that
# only swap and negate coordinates, and delta_2 scales every term of the
# distance by a power of 2, doubling d unless a term is subnormal
SYMMETRIES = [
    (lambda p: np.stack([-p[:, 1], p[:, 0], p[:, 2]], axis=1), 1.0),
    (lambda p: p * [1.0, -1.0, -1.0], 1.0),
    (lambda p: p * [2.0, 2.0, 4.0], 2.0),
]


def assert_pairs_symmetric(points, r):
    """gauge_pairs gives the same sorted (i, j) under every map of
    SYMMETRIES, with r and d scaled by its factor exactly."""
    want = fast_pairs(points, r)
    for f, lam in SYMMETRIES:
        i, j, d = fast_pairs(f(points), lam * r)
        assert i.tobytes() == want[0].tobytes()
        assert j.tobytes() == want[1].tobytes()
        assert d.tobytes() == (lam * want[2]).tobytes()


# dyadic coordinates, on which many distances equal the radius, and
# floats at least 2^-60 in size, whose distances' terms stay normal
dyadic = st.integers(-64, 64).map(lambda k: k / 32.0)
normal = st.floats(-4, 4).filter(lambda a: a == 0 or abs(a) >= 2.0 ** -60)


@given(st.lists(st.tuples(*[st.one_of(dyadic, normal)] * 3),
                min_size=1, max_size=40),
       st.one_of(dyadic.map(abs), st.floats(0, 4)))
@settings(max_examples=200, deadline=None)
def test_gauge_pairs_exact_under_symmetries(pts, r):
    assert_pairs_symmetric(np.array(pts, dtype=float), r)


def test_gauge_pairs_exact_under_symmetries_on_random3():
    # the maps need no dense oracle, so they check sizes it cannot reach;
    # here random3 at 2^-4, 3,072 centers
    delta = 2.0 ** -4
    assert_pairs_symmetric(gen_random3(delta, seed=0).centers, 2 * delta)


def pair_stream(points, r):
    """gauge_pairs' blocks concatenated: the (i, j, d) arrays in order."""
    blocks = gauge_pairs(points, r)
    return [np.concatenate(col) for col in zip(*blocks)]


def test_gauge_pairs_lattice_and_small_blocks(monkeypatch):
    pts = gen_heis_lattice(2.0 ** -3).centers
    want = dense_pairs(pts, 2.0 ** -2)
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", 1 << 14)
    assert same_pairs(fast_pairs(pts, 2.0 ** -2), want)
    stream = pair_stream(pts, 2.0 ** -2)
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", 7)
    assert same_pairs(fast_pairs(pts, 2.0 ** -2), want)
    # ball_masses sums in stream order, so blocking must not move a pair
    small = pair_stream(pts, 2.0 ** -2)
    assert [a.tobytes() for a in small] == [a.tobytes() for a in stream]
    # a radius beyond the diameter pairs everything
    i, j, _ = fast_pairs(pts, 3.0)
    n = len(pts)
    assert np.array_equal(i, np.repeat(np.arange(n), n))
    assert np.array_equal(j, np.tile(np.arange(n), n))


def nine_listing_pairs(points, r):
    """gauge_pairs before it trimmed one-cell axes and narrowed its window:
    every point under all 9 cells around its own, and a key window of
    r (r + 2 h) / 4, from |z_a - c| <= h.  The stream oracle."""
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    r = float(r)
    z, lo = p[:, :2], p[:, :2].min(axis=0)
    h = max(r * (1 + 1e-6), 1e-70, float((z.max(axis=0) - lo).max()) / 1024)
    cell = np.floor((z - lo) / h).astype(np.int64) + 1
    width = int(cell[:, 1].max()) + 2
    amax = np.abs(p).max(axis=0)
    zmax = float(amax[:2].max())
    m = 1.0 + float(amax[2]) + (zmax + 2.0 * h) * zmax
    bound = r * (r + 2.0 * h) / 4.0 + 1e-12 * m
    c = lo + (cell - 0.5) * h
    k = p[:, 2] + 0.5 * (c[:, 1] * p[:, 0] - c[:, 0] * p[:, 1])
    ids = cell[:, 0] * width + cell[:, 1]
    nx, ny = np.indices((3, 3)).reshape(2, 9, 1) - 1
    for i, j in window_join(ids + (nx * width + ny),
                            k + 0.5 * h * (ny * p[:, 0] - nx * p[:, 1]),
                            ids, k - bound, k + bound):
        j = j % len(p)
        d = heis_dist(p[i], p[j])
        hit = d <= r
        yield i[hit], j[hit], d[hit]


@pytest.mark.parametrize("family", [
    gen_lattice_slab(2.0 ** -5, 0.0371), gen_t_axis(2.0 ** -6),
    gen_horizontal_line(2.0 ** -6), gen_random3(2.0 ** -4, seed=0),
    gen_heis_lattice(2.0 ** -4)], ids=lambda f: f.kind)
def test_gauge_pairs_stream_matches_nine_listings(family):
    # validate, covering_number and ball_masses read the stream in order
    r = family.delta
    got = pair_stream(family.centers, r)
    want = [np.concatenate(col)
            for col in zip(*nine_listing_pairs(family.centers, r))]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("family, listed", [
    (gen_lattice_slab(2.0 ** -4, 0.0371), 3), (gen_t_axis(2.0 ** -5), 1),
    (gen_horizontal_line(2.0 ** -5), 3), (gen_random3(2.0 ** -4), 9)],
    ids=lambda a: getattr(a, "kind", a))
def test_gauge_pairs_lists_only_along_axes_of_several_cells(
        monkeypatch, family, listed):
    shapes = []

    def join(ids, *args):
        shapes.append(ids.shape)
        return window_join(ids, *args)
    monkeypatch.setattr(heislab.core, "window_join", join)
    list(gauge_pairs(family.centers, family.delta))
    assert shapes == [(listed, len(family))]


def corner_pair(e, m, t, ratio, s, sign, extra=np.zeros((0, 3))):
    """Points (0, 0, 0) and (2^e, 2^e, 0), which make the cells of side
    H = 2^e / 1024, a on the corner (m H, m' H, t) of cell m + 1, a partner
    b = a * (s r u, tau) at d = r = ratio H exactly, and extra * 2^e / 4 +
    2^e / 2.  u lies across a - c, so the cross term s r |a - c| / 2 adds
    to tau in k(a) - k(b); s ~ 0.81 maximises the gap at r = H, s = 1 with
    tau = 0 when r << H.  At ratio 2^-9 and 2^e >= 1 the gap passes
    r (r + 1.4 H) / 4 by more than the rounding margin."""
    big = 2.0 ** e
    a = np.array([m[0] * big / 1024, m[1] * big / 1024, t])
    r = ratio * big / 1024
    u = np.array([1.0, -1.0]) * sign * s * r / math.sqrt(2)
    tau = sign * math.sqrt(max(r ** 4 - (s * r) ** 4, 0.0)) / 4
    b = group_mul(a, [u[0], u[1], tau])
    ends = [[0.0, 0.0, 0.0], [big, big, 0.0]]
    pts = np.concatenate([ends, [a, b], extra * big / 4 + big / 2])
    return pts, float(heis_dist(a, b))


@st.composite
def one_cell_axes(draw):
    """Points whose x or y (or both) take one cell, whose x spans just
    under or just over one cell, or a corner_pair."""
    free = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    n = draw(st.integers(1, 30))
    pts = np.array(draw(st.lists(st.tuples(free, free, free),
                                 min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["x", "y", "xy", "under", "over", "corner"]))
    if kind == "corner":
        return corner_pair(
            draw(st.integers(-6, 6)),
            draw(st.tuples(st.integers(1, 1000), st.integers(1, 1000))),
            draw(st.floats(-1, 1)),
            draw(st.sampled_from([2.0 ** -9, 0.5])
                 | st.floats(2.0 ** -11, 0.9)),
            draw(st.sampled_from([0.81, 1.0])),
            draw(st.sampled_from([-1.0, 1.0])), pts)
    r = draw(st.floats(0, 1) | st.sampled_from([0.0, 0.25, 1.0]))
    h = r * (1 + 1e-6)
    if kind in ("x", "xy"):
        pts[:, 0] = pts[0, 0]
    if kind in ("y", "xy"):
        pts[:, 1] = pts[0, 1]
    if kind in ("under", "over"):
        # y within one cell, x over [x0, x0 + w], ends included, with w
        # just off h
        w = h * (1 - 2.0 ** -30 if kind == "under" else 1 + 2.0 ** -30)
        x0, y0 = pts[0, :2]
        pts[:, :2] = [x0, y0] + (pts[:, :2] + 2) / 4 * [w, h / 2]
        pts = np.concatenate([pts, [[x0, y0, 0.0], [x0 + w, y0, 0.0]]])
    return pts, r


@given(one_cell_axes())
@settings(max_examples=300, deadline=None)
@example(corner_pair(0, (300, 500), 0.3, 2.0 ** -9, 1.0, 1.0))
@example(corner_pair(6, (1000, 1), -1.0, 2.0 ** -9, 1.0, -1.0))
@example(corner_pair(-3, (7, 9), 0.0, 0.9, 0.81, 1.0))
def test_gauge_pairs_on_one_cell_axes_and_corners_match_dense(case):
    pts, r = case
    assert same_pairs(fast_pairs(pts, r), dense_pairs(pts, r))


def test_gauge_pairs_far_from_zero_match_dense():
    # at height 1e4 a cell's offset has ulps far above the window's margin,
    # so it must be added last: added before the shift, it lost 24-49 pairs
    r = 1e-4
    a = make_rng(5).uniform(-1, 1, (400, 3)) * [1, 1, 0] + [0, 0, 1e4]
    turn = make_rng(6).uniform(0, 2 * math.pi, 400)
    side = np.stack([r * np.cos(turn), r * np.sin(turn), 0 * turn], axis=1)
    pts = np.concatenate([a, group_mul(a, [0, 0, r * r / 4]),
                          group_mul(a, side)])
    # just above r, so that rounding in heis_dist keeps every partner
    got = fast_pairs(pts, r * (1 + 1e-6))
    assert same_pairs(got, dense_pairs(pts, r * (1 + 1e-6)))
    assert len(got[0]) == 3 * 400 + 4 * 400


@pytest.mark.parametrize("n, per_item, budget, sizes", [
    (0, 5, 100, []), (1, 10 ** 9, 100, [1]), (7, 0, 3, [3, 3, 1]),
    (10, 4, 10, [2] * 5), (10, 4, 100, [10])])
def test_blocks_cover_range_in_order(monkeypatch, n, per_item, budget, sizes):
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", budget)
    got = blocks(n, per_item)
    assert [sl.stop - sl.start for sl in got] == sizes
    assert [i for sl in got for i in range(n)[sl]] == list(range(n))
    assert all(sl.stop <= n for sl in got)


def test_blocks_read_the_budget_at_call_time(monkeypatch):
    n, per_item = 1 << 12, 1 << 10
    want = -(-n // max(1, heislab.core.PAIR_BLOCK // per_item))
    assert len(blocks(n, per_item)) == want
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", 1 << 11)
    assert len(blocks(n, per_item)) == 1 << 11
    first, lens = np.array([0, 5, 9]), np.array([5, 4, 2])
    got = [w.tolist() for w, _ in window_blocks(first, lens)]
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", 4)
    small = [w.tolist() for w, _ in window_blocks(first, lens)]
    assert got == [[0] * 5 + [1] * 4 + [2] * 2]
    # the first window is longer than the budget: a block of its own
    assert all(small) and sum(small, []) == got[0]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 12)),
                max_size=20),
       st.integers(1, 16))
@settings(max_examples=300, deadline=None)
@example([(3, 0), (0, 5), (0, 0), (2, 4), (7, 2), (1, 0)], 4)
@example([(0, 0), (4, 0)], 1)
def test_window_blocks_partition_the_windows(windows, budget):
    # whole windows in order, no block empty, and at most budget positions
    # a block unless it holds one window
    first = np.array([f for f, _ in windows], dtype=np.int64)
    lens = np.array([n for _, n in windows], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heislab.core, "PAIR_BLOCK", budget)
        got = list(window_blocks(first, lens))
    ids = [w.tolist() for w, _ in got]
    assert all(ids)
    assert sum(ids, []) == np.repeat(np.arange(len(lens)), lens).tolist()
    assert sum((k.tolist() for _, k in got), []) \
        == [f + i for f, n in windows for i in range(n)]
    seen = [set(w) for w in ids]
    assert sum(map(len, seen)) == len(set().union(*seen))
    assert all(len(w) <= budget or len(s) == 1 for w, s in zip(ids, seen))


# keys at zero, near +-2^600 and in between, drawn from a small pool so
# that keys tie and windows end on them
join_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 2.0 ** 600,
                              -2.0 ** 600, np.nextafter(2.0 ** 600, 0),
                              2.0 ** 599]) | st.floats(-4, 4)
join_window = st.tuples(st.integers(-1, 3), join_value, join_value)


@given(st.lists(st.tuples(st.integers(0, 3), join_value), max_size=30),
       st.lists(join_window | join_window.map(
           lambda w: (w[0], w[1], w[1])), max_size=20),
       st.integers(1, 16))
@settings(max_examples=300, deadline=None)
@example([(0, 0.0), (1, 0.0), (0, 0.0)], [(0, 0.0, 0.0), (1, 1.0, 0.0),
                                           (-1, -1.0, 1.0)], 2)
@example([(2, 2.0 ** 600), (2, -2.0 ** 600), (0, 1.0)],
         [(2, -2.0 ** 600, 2.0 ** 600), (0, 1.0, 1.0)], 1)
@example([(0, 0.0), (1, 0.0)], [(1, 0.0, 0.0), (0, -0.0, 0.0)], 4)
@example([(0, 0.5), (0, 0.7)], [(0, 1.0, 0.0), (0, 0.0, 1.0)], 4)
@example([], [(0, 0.0, 1.0)], 4)
def test_window_join_matches_nested_loops(keyed, windows, budget):
    ids = np.array([a for a, _ in keyed], dtype=np.int64)
    key = np.array([k for _, k in keyed])
    qid = np.array([w[0] for w in windows], dtype=np.int64)
    lo = np.array([w[1] for w in windows])
    hi = np.array([w[2] for w in windows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heislab.core, "PAIR_BLOCK", budget)
        got = list(window_join(ids, key, qid, lo, hi))
    # whole windows in order
    seen = [set(w.tolist()) for w, _ in got]
    assert sum(map(len, seen)) == len(set().union(*seen))
    w = np.concatenate([w for w, _ in got]).astype(np.int64) if got \
        else np.zeros(0, dtype=np.int64)
    j = np.concatenate([j for _, j in got]) if got else w
    assert np.all(np.diff(w) >= 0)
    # the rounding of id * spacing may add j of the window's id, and may
    # swap keys closer than it
    m = max([0.0] + [abs(x) for x in np.concatenate([key, lo, hi])])
    for n in range(len(windows)):
        jw = j[w == n]
        slack = 2 * np.spacing((abs(qid[n]) + 1) * (3 * m or 1.0))
        assert np.all(np.diff(key[jw]) >= -slack)
        assert np.all(ids[jw] == qid[n])
        assert np.all((key[jw] >= lo[n] - slack) & (key[jw] <= hi[n] + slack))
        assert len(set(jw.tolist())) == len(jw)
        want = [k for k in range(len(keyed)) if ids[k] == qid[n]
                and lo[n] <= key[k] <= hi[n]]
        assert set(want) <= set(jw.tolist())
    # a qid below every id reads nothing
    assert not np.any(qid[w] == -1)


@pytest.mark.parametrize("s", [1.0, 1e50, 2.0 ** 249])
def test_gauge_pairs_scaled_up_to_the_range_match_dense(s):
    # at s = 2^249 the radius is 2^250, the largest allowed
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1e-3]]) * s
    with np.errstate(over="raise", invalid="raise"):
        got = fast_pairs(pts, 2 * s)
        assert same_pairs(got, dense_pairs(pts, 2 * s))
    assert len(got[0]) == 9


def test_gauge_pairs_at_the_range_corners_match_dense():
    big = 2.0 ** 250
    pts = np.array(list(itertools.product([-big, 0.0, big], repeat=3)))
    pts = np.concatenate([pts, make_rng(3).uniform(-big, big, (30, 3))])
    with np.errstate(over="raise", invalid="raise"):
        for r in (0.0, big / 1e6, big / 2, big):
            assert same_pairs(fast_pairs(pts, r), dense_pairs(pts, r))


@pytest.mark.parametrize("s, r", [
    (1e100, 2e100), (1e160, 2e160), (1.0, 1e160),
    (1.0, np.nextafter(2.0 ** 250, np.inf)),
    (np.nextafter(2.0 ** 250, np.inf), 1.0)])
def test_gauge_pairs_rejects_input_beyond_the_range(s, r):
    # beyond it heis_dist's fourth powers or the keys overflowed, and
    # pairs went missing without an error
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1e-3]]) * s
    with pytest.raises(ValueError, match="2\\^250"):
        list(gauge_pairs(pts, r))
    with pytest.raises(ValueError, match="2\\^250"):
        covering_number(pts, r)


def test_gauge_pairs_empty_and_bad_input():
    pts = np.zeros((3, 3))
    assert list(gauge_pairs(np.zeros((0, 3)), 1.0)) == []
    assert same_pairs(fast_pairs(pts, 0.0), dense_pairs(pts, 0.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            list(gauge_pairs(np.concatenate([pts, [[0.0, bad, 0.0]]]), 1.0))
    for r in (-1.0, np.nan):
        with pytest.raises(ValueError):
            list(gauge_pairs(pts, r))
