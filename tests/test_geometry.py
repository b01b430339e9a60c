"""Zonotope pieces: nearest points, unions, collinear oracle, hull tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import lsq_linear

from equilab.demand import DemandSet, nonconvexity
from equilab.geometry import (Piece, PieceBoxes, box_bounds, canonical_generators,
                              closest_pair, merge_intervals, piece_contains,
                              piece_distance, piece_nearest, piece_subset,
                              piece_vertices, union_nearest)

from reference_oracles import collinear_model, in_hull


def make_piece(offset, gens=()) -> Piece:
    """The canonical piece of `canonical_generators`."""
    return Piece.of(*canonical_generators(offset, gens))


def seg(lo, hi, axis=0, dim=1):
    u = np.zeros(dim)
    u[axis] = 1.0
    return make_piece(np.zeros(dim), [(u, lo, hi)])


def shift_piece(piece: Piece, delta) -> Piece:
    off = np.asarray(piece.offset) + np.asarray(delta, dtype=float)
    return Piece(tuple(off), piece.units, piece.ranges)


def combine_pieces(a: Piece, b: Piece) -> Piece:
    """Minkowski sum of two pieces."""
    gens = [(np.array(u), lo, hi) for u, (lo, hi) in zip(a.units, a.ranges)]
    gens += [(np.array(u), lo, hi) for u, (lo, hi) in zip(b.units, b.ranges)]
    return make_piece(np.asarray(a.offset) + np.asarray(b.offset), gens)


def test_point_piece():
    p = make_piece([1.0, 2.0])
    d, y = piece_nearest(p, [4.0, 6.0])
    assert d == pytest.approx(5.0)
    assert np.allclose(y, [1.0, 2.0])
    assert np.allclose(piece_vertices(p), [[1.0, 2.0]])


def test_generator_canonicalization():
    # antiparallel directions merge after flipping, scaling by the norm
    p = make_piece([0.0], [((2.0,), 0.0, 1.0), ((-1.0,), -1.0, 0.0)])
    assert len(p.units) == 1
    assert p.ranges[0] == pytest.approx((0.0, 3.0))
    # zero-width generators fold into the offset
    q = make_piece([0.0], [((1.0,), 2.0, 2.0)])
    assert not q.units
    assert q.offset[0] == pytest.approx(2.0)


def test_segment_projection():
    p = seg(-1.0, 2.0)
    assert piece_nearest(p, [5.0])[0] == pytest.approx(3.0)
    assert piece_nearest(p, [0.5])[0] == pytest.approx(0.0)
    assert piece_nearest(p, [-4.0])[0] == pytest.approx(3.0)


def test_box_projection_axis_aligned():
    box = make_piece([0.0, 0.0], [((1.0, 0.0), 0.0, 2.0),
                                  ((0.0, 1.0), 0.0, 1.0)])
    d, y = piece_nearest(box, [3.0, 0.5])
    assert d == pytest.approx(1.0)
    assert np.allclose(y, [2.0, 0.5])
    verts = piece_vertices(box)
    assert verts.shape == (4, 2)


def test_skew_zonotope_matches_bvls():
    gens = [((1.0, 0.0), 0.0, 1.0), ((1.0, 1.0), 0.0, 2.0)]
    p = make_piece([0.0, 0.0], gens)
    x = np.array([3.0, -1.0])
    G = p.unit_matrix()
    los = np.array([lo for lo, _ in p.ranges])
    his = np.array([hi for _, hi in p.ranges])
    ref = lsq_linear(G, x - p.point(), bounds=(los, his), method="bvls")
    want = float(np.linalg.norm(x - (p.point() + G @ ref.x)))
    assert piece_nearest(p, x)[0] == pytest.approx(want, abs=1e-9)


def test_shift_and_combine():
    a = shift_piece(seg(0.0, 1.0), [2.0])
    assert piece_nearest(a, [0.0])[0] == pytest.approx(2.0)
    both = combine_pieces(seg(0.0, 1.0), shift_piece(make_piece([0.0]), [5.0]))
    assert piece_nearest(both, [7.0])[0] == pytest.approx(1.0)


def test_closest_pair_disjoint_segments():
    a = seg(0.0, 1.0)
    b = shift_piece(seg(0.0, 1.0), [3.0])
    d, pa, pb = closest_pair(a, b)
    assert d == pytest.approx(2.0)
    assert pa[0] == pytest.approx(1.0)
    assert pb[0] == pytest.approx(3.0)


def test_closest_pair_overlapping():
    a = make_piece([0.0, 0.0], [((1.0, 0.0), 0.0, 2.0)])
    b = make_piece([1.0, 1.0], [((0.0, 1.0), -3.0, 0.0)])
    d, pa, pb = closest_pair(a, b)
    assert d == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(pa, pb, atol=1e-8)


def test_union_nearest_tie_toward_zero():
    left = shift_piece(make_piece([0.0]), [-1.0])
    right = shift_piece(make_piece([0.0]), [3.0])
    d, y = union_nearest([right, left], [1.0])
    assert d == pytest.approx(2.0)
    assert y[0] == pytest.approx(-1.0)  # |-1| < |3| wins the tie


def test_containment_and_subset():
    big = seg(0.0, 4.0)
    small = shift_piece(seg(0.0, 1.0), [1.0])
    assert piece_subset(small, big, 1e-9)
    assert not piece_subset(big, small, 1e-9)
    assert piece_contains(big, [4.0 + 5e-10], 1e-9)
    assert not piece_contains(big, [4.1], 1e-9)


# ---------------------------------------------------------------------------
# Collinear oracle and the interval gap

def test_collinear_model_on_line():
    pieces = [seg(0.0, 1.0, dim=2),
              shift_piece(make_piece([0.0, 0.0]), [3.0, 0.0])]
    model = collinear_model(pieces)
    assert model is not None
    origin, unit, ivs = model
    assert np.allclose(np.abs(unit), [1.0, 0.0])
    assert sorted(ivs) == [(0.0, 1.0), (3.0, 3.0)]


def test_collinear_model_rejects_plane():
    pieces = [seg(0.0, 1.0, axis=0, dim=2), seg(0.0, 1.0, axis=1, dim=2)]
    assert collinear_model(pieces) is None


def test_collinear_all_same_point():
    pieces = [make_piece([2.0, 2.0]), make_piece([2.0, 2.0])]
    origin, unit, ivs = collinear_model(pieces)
    assert np.allclose(unit, 0.0)
    assert ivs == [(0.0, 0.0), (0.0, 0.0)]


def test_merge_intervals():
    merged = merge_intervals([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 1e-9)
    assert merged == [(0.0, 2.0), (3.0, 4.0)]
    assert merge_intervals([(0.0, 1.0), (1.0, 2.0)], 1e-9) == [(0.0, 2.0)]


def interval_demand(intervals) -> DemandSet:
    """A one-commodity demand set that is the union of `intervals`."""
    e = np.array([1.0])
    patterns = tuple((np.zeros(1), (), (("x", e, lo, hi),)) for lo, hi in intervals)
    return DemandSet(1, 1e-7, 0.0, (patterns,))


def test_interval_gap_radius():
    assert nonconvexity(interval_demand([(0.0, 1.0), (3.0, 4.0)])) == pytest.approx(1.0)
    assert nonconvexity(interval_demand([(0.0, 2.0), (1.0, 4.0)])) == 0.0
    assert nonconvexity(interval_demand([(0.0, 1.0)])) == 0.0


# ---------------------------------------------------------------------------
# Hull membership

def test_in_hull_triangle():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert in_hull([0.5, 0.5], pts, 1e-9)
    assert in_hull([1.0, 1.0], pts, 1e-9)       # boundary
    assert not in_hull([1.2, 1.2], pts, 1e-9)
    assert not in_hull([-0.1, 0.0], pts, 1e-9)


def test_in_hull_degenerate_points():
    pts = np.array([[1.0], [3.0]])
    assert in_hull([2.0], pts, 1e-9)
    assert not in_hull([3.5], pts, 1e-9)


def _random_piece(rng, dim):
    gens = []
    for _ in range(int(rng.integers(0, 4))):
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        gens.append((tuple(u), a, b))
    return make_piece(rng.uniform(-1, 1, size=dim), gens)


def _random_member(rng, piece):
    ts = [rng.uniform(lo, hi) for lo, hi in piece.ranges]
    return piece.point() + sum(t * np.asarray(u)
                               for t, u in zip(ts, piece.units))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_nearest_beats_sampled_points(seed):
    """The reported nearest distance is a lower bound over sampled members."""
    rng = np.random.default_rng(seed)
    piece = _random_piece(rng, int(rng.integers(1, 4)))
    x = rng.uniform(-4, 4, size=piece.dim)
    d, y = piece_nearest(piece, x)
    assert piece_contains(piece, y, 1e-7)
    for _ in range(40):
        member = _random_member(rng, piece)
        assert d <= np.linalg.norm(x - member) + 1e-7


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_vertices_lie_in_piece_and_span_hull(seed):
    rng = np.random.default_rng(seed)
    piece = _random_piece(rng, 2)
    verts = piece_vertices(piece)
    for v in verts:
        assert piece_contains(piece, v, 1e-7)
    # random members are inside the hull of the vertex set
    for _ in range(20):
        assert in_hull(_random_member(rng, piece), verts, 1e-6)


# ---------------------------------------------------------------------------
# Box bounds

def _bound_test_piece(rng, dim):
    """A piece with random, axis, near-axis (off-axis parts of 1e-10) and
    opposite-axis generators, ranges that may exclude 0, or no generator."""
    gens = []
    for _ in range(int(rng.integers(0, 5))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            u = rng.normal(size=dim)
        else:
            u = np.zeros(dim)
            u[int(rng.integers(0, dim))] = -1.0 if kind == 3 else 1.0
            if kind == 2:
                u += 1e-10 * rng.normal(size=dim)
        scale = float(rng.choice([1.0, 100.0]))
        a, b = sorted(scale * rng.uniform(-1.0, 1.0, size=2))
        if rng.random() < 0.4:
            a, b = (0.99 * scale, scale) if rng.random() < 0.5 else (-scale, -0.5 * scale)
        gens.append((u, a, b))
    return make_piece(rng.uniform(-50.0, 50.0, size=dim), gens)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from((1, 2, 3, 24)))
def test_box_bound_never_exceeds_the_piece_distance(seed, K):
    """In every norm the box bound is at most the computed distance: for
    points far off, just outside a box face, on a corner and inside."""
    rng = np.random.default_rng(seed)
    piece = _bound_test_piece(rng, K)
    lo, hi, size = piece.box
    corners = piece_vertices(piece)
    points = [rng.uniform(-300.0, 300.0, size=K),
              hi + rng.uniform(0.0, 1e-6, size=K),
              lo - rng.uniform(0.0, 1.0, size=K),
              corners[int(rng.integers(0, len(corners)))],
              np.mean(corners, axis=0)]
    for x in points:
        for norm in ("l2", "l1", "linf"):
            bound = box_bounds(lo, hi, size, x, norm)
            assert bound <= piece_distance(piece, x, norm)
            assert PieceBoxes.of([piece]).bounds(x, norm) == [bound]
        assert box_bounds(lo, hi, size, x) <= piece_nearest(piece, x)[0]
