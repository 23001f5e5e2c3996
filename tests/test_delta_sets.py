import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import core, delta_sets
from heislab.core import gauge_norm, group_mul, heis_dist
from heislab.delta_sets import (_GENERATORS, BallFamily, ball_grid,
                                covering_number, gen_heis_lattice,
                                gen_horizontal_line, gen_lattice_slab,
                                gen_product, gen_random3, gen_t_axis,
                                generate, grid_axis, grid_columns,
                                read_family, verify_delta_t_set, write_family)
from heislab.measures import grid_z
from heislab.sampling import make_rng
from test_core import SYMMETRIES


def brute_force_min_cover(points, delta):
    """Exact minimum number of delta-balls centered at points covering them.

    Exponential search; intended as a small-input oracle (n <= 12).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    if n == 0:
        return 0
    if n > 14:
        raise ValueError("brute force cover limited to 14 points")
    cover = heis_dist(pts[:, None, :], pts[None, :, :]) <= delta + 1e-12
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if np.all(np.any(cover[list(combo)], axis=0)):
                return k
    return n


def test_validate_accepts_lattice():
    fam = gen_heis_lattice(2.0 ** -3)
    assert fam.validate()


def test_validate_rejects_bad_families():
    with pytest.raises(ValueError):
        BallFamily(np.array([[0, 0, np.nan]]), 0.1, 1, 4).validate()
    with pytest.raises(ValueError):
        BallFamily(np.zeros((1, 3)), 0.9, 1, 4).validate()
    with pytest.raises(ValueError):
        BallFamily(np.array([[2.0, 0, 0]]), 0.1, 1, 4).validate()
    close = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    with pytest.raises(ValueError):
        BallFamily(close, 0.1, 1, 4).validate()


def test_validate_exact_on_large_families():
    # above 20,000 centers, where separation used to be sampled
    fam = gen_heis_lattice(2.0 ** -4)
    assert len(fam) > 60000
    assert fam.validate()
    assert gen_lattice_slab(2.0 ** -5).validate()


def validate_outcome(centers, delta):
    try:
        return BallFamily(centers, delta, 3, 8).validate()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("family", [gen_lattice_slab(2.0 ** -5, 0.0371),
                                    gen_t_axis(2.0 ** -6)],
                         ids=lambda f: f.kind)
def test_validate_exact_under_symmetries(family):
    # centers in B(1/2), so that delta_2 keeps them in the unit ball; at
    # 2 delta the neighbours are too close.  The quarter turn moves the
    # slab's one-cell axis from x to y
    c = family.centers[gauge_norm(family.centers) <= 0.5]
    for delta, want in ((family.delta, True),
                        (2 * family.delta, "centers are not delta-separated")):
        assert validate_outcome(c, delta) == want
        for f, lam in SYMMETRIES:
            assert validate_outcome(f(c), lam * delta) == want


def test_validate_finds_one_close_pair_in_large_lattice():
    fam = gen_heis_lattice(2.0 ** -4)
    c = fam.centers
    extra = group_mul(c[len(c) // 3], [1e-4, 0.0, 0.0])
    bad = BallFamily(np.concatenate([c, extra[None, :]]), fam.delta, 4, 8)
    with pytest.raises(ValueError, match="separated"):
        bad.validate()


def test_covering_number_matches_dense_first_fit():
    pts = gen_random3(0.075, seed=3).centers
    for delta in (0.0, 0.075, 0.15, 0.6):
        net = [pts[0]]
        for p in pts[1:]:
            if float(heis_dist(np.asarray(net), p).min()) > delta:
                net.append(p)
        assert covering_number(pts, delta) == len(net)


def test_covering_number_basics():
    pts = np.zeros((5, 3))
    assert covering_number(pts, 0.1) == 1
    line = np.zeros((11, 3))
    line[:, 0] = np.arange(11) * 0.3
    got = covering_number(line, 0.1)
    assert got == 11
    assert covering_number(np.zeros((0, 3)), 0.1) == 0


def test_covering_number_vs_bruteforce():
    rng = make_rng(1)
    for _ in range(20):
        pts = rng.random((8, 3)) * 0.6 - 0.3
        delta = 0.25
        greedy = covering_number(pts, delta)
        exact = brute_force_min_cover(pts, delta)
        # greedy net centers are delta-separated, so its size is at most
        # the minimum cover count at delta/2 and at least the one at delta
        assert exact <= greedy
        assert greedy <= brute_force_min_cover(pts, delta / 2)


def test_bruteforce_cover_limits():
    with pytest.raises(ValueError):
        brute_force_min_cover(np.zeros((15, 3)), 0.1)
    assert brute_force_min_cover(np.zeros((0, 3)), 0.1) == 0


@pytest.mark.parametrize("kind,kwargs", [
    ("heis-lattice", {}),
    ("slab", {}),
    ("slab", {"x0": 0.3}),
    ("random3", {"seed": 2}),
    ("t-axis", {"s": 2.0}),
    ("t-axis", {"s": 1.0}),
    ("horizontal-line", {}),
    ("product", {"dim0": 0.5}),
])
def test_generators_validate_and_verify(kind, kwargs):
    fam = generate(kind, 2.0 ** -4, **kwargs)
    assert fam.validate()
    report = verify_delta_t_set(fam, seed=0)
    assert report["passes"], report
    assert 0 < report["max_ratio"] <= 1.0
    assert report["count"] == len(fam)


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("nope", 0.1)


@pytest.mark.parametrize("kind", ["heis-lattice", "t-axis", "random3",
                                  "slab", "horizontal-line", "product"])
@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf"),
                                   0.75])
def test_generate_rejects_bad_delta(kind, delta):
    # through generate and from the generator called directly
    for make in (lambda d: generate(kind, d), _GENERATORS[kind]):
        with pytest.raises(ValueError, match="delta"):
            make(delta)


def test_generate_rejects_params_the_kind_does_not_take():
    for kind, params in (("random3", {"s": 1.5}), ("heis-lattice", {"x0": 0.1}),
                         ("t-axis", {"dim0": 0.5}), ("product", {"s": 1.0})):
        with pytest.raises(ValueError, match="takes no"):
            generate(kind, 0.25, **params)
    # the seed reaches random3 only; the other kinds are deterministic
    assert np.array_equal(generate("heis-lattice", 0.25, seed=3).centers,
                          gen_heis_lattice(0.25).centers)
    assert np.array_equal(generate("random3", 0.25, seed=3).centers,
                          gen_random3(0.25, seed=3).centers)


def test_t_axis_count_and_dimension():
    for s in (1.0, 1.5, 2.0):
        fam = gen_t_axis(2.0 ** -4, s=s)
        assert len(fam) == round((2.0 ** -4) ** -s)
        assert fam.claimed_t == s
    with pytest.raises(ValueError):
        gen_t_axis(0.1, s=2.5)


def test_horizontal_line_quarter_delta_example():
    fam = gen_horizontal_line(0.25)
    assert len(fam) == 9
    assert fam.claimed_t == 1.0


def product_whole_array(delta, dim0):
    """gen_product's IFS levels, each kept by one len(nxt)^2 separation
    array: the centers, and each kept level's least column distance."""
    rho = 4.0 ** (-1.0 / dim0)
    corners = np.array([[0.3, 0.3], [0.3, -0.3], [-0.3, 0.3], [-0.3, -0.3]])
    pts2 = np.zeros((1, 2))
    gaps = []
    while True:
        nxt = (rho * pts2[:, None, :]
               + (1 - rho) * corners[None, :, :]).reshape(-1, 2)
        if len(nxt) > 4096:
            break
        d = nxt[:, None, :] - nxt[None, :, :]
        sep = np.sqrt((d ** 2).sum(-1))
        sep[sep == 0] = np.inf
        if float(sep.min()) < delta:
            break
        pts2 = nxt
        gaps.append(float(sep.min()))
    return ball_grid(pts2, delta ** 2, delta), gaps


# 2^-5 is the least delta: at 2^-6 the scan's array would be 4096^2
@pytest.mark.parametrize("delta, dim0", sorted(
    {(2.0 ** -4, 1.0), (2.0 ** -5, 1.99)}
    | set(itertools.product([2.0 ** -k for k in range(1, 6)],
                            [0.05, 0.3, 0.5, 0.9, 1.5, 1.999]))))
@pytest.mark.parametrize("block", [None, 1000])
def test_product_matches_whole_array_levels(monkeypatch, delta, dim0, block):
    if block:
        monkeypatch.setattr(core, "PAIR_BLOCK", block)
    centers, gaps = product_whole_array(delta, dim0)
    assert gen_product(delta, dim0).centers.tobytes() == centers.tobytes()
    # the closed form gen_product reads: level k's columns are
    # 2c(1 - rho) rho^(k-1) apart
    rho = 4.0 ** (-1.0 / dim0)
    want = [0.6 * (1 - rho) * rho ** k for k in range(len(gaps))]
    assert gaps == pytest.approx(want, rel=1e-13, abs=0)


def test_product_at_tiny_dim0_is_delta_separated():
    # rho c is below half an ulp of c: columns that differ only in later
    # maps round to one float, and a scan of float distances that skips
    # zeros kept levels up to the cap, 20,480 centers with 20 distinct
    fam = gen_product(0.25, dim0=0.03)
    assert len(fam) == len(np.unique(fam.centers, axis=0)) == 20
    assert fam.validate()


def test_product_dim_validation():
    with pytest.raises(ValueError):
        gen_product(0.1, dim0=2.5)


def test_product_stops_at_the_column_cap_before_pairwise_distances(child_env):
    # dim0 = 1.99, delta = 0.009: level 6 has 4096 columns still 0.0092
    # apart, so level 7 (16384) is over the cap; its pairwise separation
    # would take 4 GiB.  The child's 2 GiB address-space limit makes
    # forming it fail, and ball_grid is stubbed to return the columns.
    code = """if True:
        import resource
        import numpy as np
        from heislab import delta_sets
        delta_sets.ball_grid = lambda cols, step, margin: np.column_stack(
            [cols, np.zeros(len(cols))])
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        print(len(delta_sets.gen_product(0.009, dim0=1.99)))
    """
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["4096"]


def test_verifier_fails_overcrowded_family():
    # Euclidean-style lattice in t is too dense to be a (delta, 3)-set
    delta = 2.0 ** -4
    k = int(1.0 / delta)
    xs = np.arange(-k, k + 1) * delta
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    base = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=1)
    levels = [base + [0, 0, j * delta ** 2] for j in range(-4, 5)]
    pts = np.concatenate(levels)
    pts = pts[gauge_norm(pts) <= 1 - delta]
    fam = BallFamily(pts, delta, 3.0, 1.0)
    report = verify_delta_t_set(fam)
    assert not report["passes"]
    assert report["max_ratio"] > 1.0
    assert report["witness_center"] is not None


def test_verifier_counts_by_metric_balls():
    # three collinear points along the axis; at r = 2 delta every ball
    # holds all of them
    delta = 0.1
    pts = np.array([[0, 0, 0], [delta, 0, 0], [2 * delta, 0, 0]])
    fam = BallFamily(pts, delta, 1.0, 1.0)
    report = verify_delta_t_set(fam)
    # worst case: the middle center sees all 3 already at r = delta,
    # giving 3 / (1 * delta * 3) = 1 / delta
    assert report["max_ratio"] == pytest.approx(1 / delta)
    assert not report["passes"]


def verify_loop(family):
    """Every center tested; the first worst (radius, center), radii outer."""
    c, n = family.centers, len(family)
    best = (0.0, None, None)
    r = family.delta
    while r <= 2.0:
        denom = family.claimed_C * r ** family.claimed_t * n
        for x in c:
            ratio = np.count_nonzero(heis_dist(x, c) <= r) / denom
            if ratio > best[0]:
                best = (ratio, tuple(x), r)
        r *= 2.0
    return best


@pytest.mark.parametrize("block", [1, 7, 10 ** 6])
def test_verifier_witness_is_first_in_radius_then_center_order(monkeypatch,
                                                                block):
    # with t = 0 a ball holding every center has ratio 1, and so do the
    # larger balls around it: the centers at 0 and 1/8 reach it at radius
    # 1/2, the first two only at 1; the witness is the center at 0
    pts = np.array([[x, 0, 0] for x in (-0.375, -0.25, 0, 0.125, 0.375)])
    fam = BallFamily(pts, 0.125, 0.0, 1.0)
    monkeypatch.setattr(core, "PAIR_BLOCK", block)
    report = verify_delta_t_set(fam)
    assert (report["max_ratio"], report["witness_center"],
            report["witness_radius"]) == verify_loop(fam)
    assert report["witness_center"] == (0.0, 0.0, 0.0)
    assert report["witness_radius"] == 0.5


@pytest.mark.parametrize("seed", [7, 8])
def test_verifier_report_does_not_depend_on_blocking(monkeypatch, seed):
    fam = gen_random3(0.075, seed=seed)
    want = verify_delta_t_set(fam, max_centers=len(fam))
    assert want["centers_tested"] == len(fam)
    assert (want["max_ratio"], want["witness_center"],
            want["witness_radius"]) == verify_loop(fam)
    monkeypatch.setattr(core, "PAIR_BLOCK", 7)
    assert verify_delta_t_set(fam, max_centers=len(fam)) == want


def dense_ball_counts(family, r0, max_centers, seed, shrink=0.0):
    """dyadic_ball_counts from the whole distance matrix; the oracle."""
    c, n = family.centers, len(family)
    test = c
    if n > max_centers:
        test = c[make_rng(seed).choice(n, size=max_centers, replace=False)]
    d = heis_dist(test[:, None, :], c[None, :, :])
    radii = [r0 * 2.0 ** k for k in range(int(np.log2(2.0 / r0)) + 1)]
    return d, radii, np.array([np.count_nonzero(d <= r - shrink, axis=1)
                               for r in radii])


@pytest.mark.parametrize("block", [1, 7, None])
def test_dyadic_ball_counts_match_the_dense_matrix(monkeypatch, block):
    # the lattice puts many pairs exactly at a dyadic radius, where a
    # distance that rounds apart one way round would move a count
    fam = gen_heis_lattice(2.0 ** -3)
    delta, n = fam.delta, len(fam)
    if block is not None:
        monkeypatch.setattr(core, "PAIR_BLOCK", block)
    for max_centers in (n, 300, 1):
        for r0, shrink in ((delta, 0.0), (2.0 * delta, delta)):
            d, radii, want = dense_ball_counts(fam, r0, max_centers, 3,
                                               shrink)
            on_edge = np.isin(d, [r - shrink for r in radii])
            assert np.count_nonzero(on_edge) > len(d)
            test, got_radii, got = delta_sets.dyadic_ball_counts(
                fam, r0, max_centers, 3, shrink=shrink)
            assert got_radii == radii
            assert len(test) == min(n, max_centers)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), 0.75])
def test_verifier_rejects_bad_delta(delta):
    # at delta <= 0 the dyadic radii never reached 2, and the scan hung
    fam = BallFamily([[0, 0, 0], [0.5, 0, 0]], delta, 3.0, 8.0)
    with pytest.raises(ValueError, match="delta"):
        verify_delta_t_set(fam)


def test_verifier_empty_family():
    with pytest.raises(ValueError):
        verify_delta_t_set(BallFamily(np.zeros((0, 3)), 0.1, 1, 1))


@pytest.mark.parametrize("t,C", [
    (4.0, float("nan")), (float("nan"), 8.0), (4.0, -8.0), (4.0, 0.0),
    (4.0, float("inf")), (float("inf"), 8.0), (-1.0, 8.0)])
def test_verifier_rejects_meaningless_claims(t, C):
    # a NaN or negative C made every ratio compare false, so the family
    # passed with max_ratio 0
    fam = BallFamily(gen_heis_lattice(0.25).centers, 0.25, t, C)
    with pytest.raises(ValueError, match="claimed"):
        verify_delta_t_set(fam)


@pytest.mark.parametrize("max_centers", [0, -1])
def test_verifier_rejects_empty_sample(max_centers):
    fam = gen_heis_lattice(0.25)
    with pytest.raises(ValueError, match="max_centers"):
        verify_delta_t_set(fam, max_centers=max_centers)


def test_verifier_subsample_deterministic():
    fam = gen_random3(2.0 ** -4, seed=5)
    r1 = verify_delta_t_set(fam, max_centers=64, seed=9)
    r2 = verify_delta_t_set(fam, max_centers=64, seed=9)
    assert r1 == r2


@pytest.mark.parametrize("max_centers", [64, 512, 10 ** 6])
def test_verifier_reports_centers_tested(max_centers):
    fam = gen_random3(2.0 ** -4, seed=5)
    report = verify_delta_t_set(fam, max_centers=max_centers)
    assert report["centers_tested"] == min(len(fam), max_centers)


def test_family_roundtrip_exact(tmp_path):
    fam = gen_random3(2.0 ** -3, seed=7)
    path = tmp_path / "fam.txt"
    write_family(path, fam)
    back = read_family(path)
    assert np.array_equal(back.centers, fam.centers)
    assert back.delta == fam.delta
    assert back.claimed_t == fam.claimed_t
    assert back.claimed_C == fam.claimed_C
    assert back.kind == fam.kind == "random3"
    header = path.read_text().splitlines()[0].split()
    assert len(header) == 5
    assert int(header[3]) == len(fam)
    assert header[4] == "random3"


def write_family_per_row(path, family):
    """write_family's file, one formatted row at a time; the oracle."""
    with open(path, "w") as fh:
        fh.write("%.17g %.17g %.17g %d %s\n"
                 % (family.delta, family.claimed_t, family.claimed_C,
                    len(family), family.kind))
        for x, y, t in family.centers:
            fh.write("%.17g %.17g %.17g\n" % (x, y, t))


edge_coord = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 0.1, -1 / 3]))


@given(st.lists(st.tuples(edge_coord, edge_coord, edge_coord), max_size=20))
@settings(max_examples=200, deadline=None)
def test_write_family_matches_per_row_writer(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("fam")
    fam = BallFamily(np.array(rows, dtype=float).reshape(-1, 3), 0.125,
                     3.0, 8.0, "random3")
    write_family(d / "a.txt", fam)
    write_family_per_row(d / "b.txt", fam)
    assert (d / "a.txt").read_bytes() == (d / "b.txt").read_bytes()


def test_read_family_four_field_header_is_custom(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("0.25 1 4 2\n0 0 0\n0.25 0 0\n")
    fam = read_family(path)
    assert fam.kind == "custom"
    assert (fam.delta, fam.claimed_t, fam.claimed_C) == (0.25, 1.0, 4.0)
    assert fam.centers.shape == (2, 3)


@pytest.mark.parametrize("kind", ["two words", "", "tab\tkind", "line\n"])
def test_write_family_rejects_kind_with_whitespace(tmp_path, kind):
    path = tmp_path / "fam.txt"
    with pytest.raises(ValueError, match="one word"):
        write_family(path, BallFamily(np.zeros((1, 3)), 0.25, 1, 4, kind))
    assert not path.exists()


def test_empty_family_roundtrip(tmp_path):
    path = tmp_path / "empty.txt"
    write_family(path, BallFamily(np.zeros((0, 3)), 0.25, 3.0, 8.0))
    back = read_family(path)
    assert back.centers.shape == (0, 3)
    assert (back.delta, back.claimed_t, back.claimed_C) == (0.25, 3.0, 8.0)
    path.write_text(path.read_text() + "0 0 0\n")
    with pytest.raises(ValueError):
        read_family(path)


def test_read_family_rejects_bad_files(tmp_path):
    p = tmp_path / "bad1.txt"
    p.write_text("0.1 1\n")
    with pytest.raises(ValueError):
        read_family(p)
    p2 = tmp_path / "bad2.txt"
    p2.write_text("0.1 1 4 2\n0 0 0\n")
    with pytest.raises(ValueError):
        read_family(p2)


def ball_grid_box(cols, step, margin, shift=0.0):
    """ball_grid from every column's whole t-range |j step| <= 1/4 + step,
    kept by the gauge-norm test; oracle for the per-column runs."""
    cols = np.asarray(cols, dtype=float).reshape(-1, 2)
    m = int(np.floor(0.25 / step)) + 1
    ts = np.arange(-m, m + 1) * step
    pts = np.empty((len(cols), len(ts), 3))
    pts[..., :2] = cols[:, None, :]
    pts[..., 2] = ts + np.reshape(shift, (-1, 1))
    pts = pts.reshape(-1, 3)
    return pts[gauge_norm(pts) <= 1.0 - margin]


@pytest.mark.parametrize("delta", [0.5, 0.3, 0.125, 0.075, 2.0 ** -5])
def test_ball_grid_matches_whole_column_oracle(monkeypatch, delta):
    # the families' own calls, with shifts that move the runs off the
    # box's t-range, and blocks that split columns between calls
    cols = grid_columns(delta)
    ys = grid_axis(delta)
    cases = [(cols, delta ** 2, delta, 0.0), (cols, delta, 0.0, 0.0),
             (cols, delta ** 2, 0.3, 0.2),
             (cols, delta ** 2, 0.0, np.linspace(-0.4, 0.4, len(cols)))]
    for x0 in (0.37, -0.99):
        slab = np.stack([np.full(len(ys), x0), ys], axis=1)
        cases.append((slab, delta ** 2, delta, 0.5 * x0 * ys))
    for block in (None, 1000):
        if block:
            monkeypatch.setattr(core, "PAIR_BLOCK", block)
        for case in cases:
            assert ball_grid(*case).tobytes() == ball_grid_box(*case).tobytes()
    assert grid_z(delta).tobytes() \
        == ball_grid_box(grid_columns(delta), delta, 0.0).tobytes()


def test_ball_grid_keeps_points_the_gauge_norm_rounds_inside():
    # t a few ulps above the column's exact half-height sqrt(1 - |z|^4) / 4
    # can still pass gauge_norm(p) <= 1; step 1 and shift t put j = 0 there
    z = make_rng(2).random((20000, 2)) * 0.7
    t = np.sqrt(1.0 - ((z ** 2).sum(axis=1)) ** 2) / 4
    for _ in range(5):
        t = np.nextafter(t, 1.0)
    want = ball_grid_box(z, 1.0, 0.0, shift=t)
    assert len(want) > 100
    assert ball_grid(z, 1.0, 0.0, shift=t).tobytes() == want.tobytes()


def test_ball_grid_without_points():
    assert ball_grid(np.empty((0, 2)), 0.01, 0.0).shape == (0, 3)
    assert ball_grid([[3.0, 3.0]], 0.01, 0.0).shape == (0, 3)
