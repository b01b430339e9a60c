"""Zonotope pieces: nearest points, unions, collinear oracle, hull tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import lsq_linear

from equilab.convexify import solve_lp
from equilab.demand import DemandSet, nonconvexity
from equilab.geometry import (ComplexityError, Piece, closest_pair, merge_intervals,
                              piece_distance, piece_nearest, piece_vertices,
                              union_distance, union_nearest)

from market_corpus import random_market
from reference_oracles import (_reference_union_distance, canonical_generators,
                               collinear_model, in_hull)


def make_piece(offset, gens=()) -> Piece:
    """The canonical piece of `canonical_generators`."""
    return Piece.of(*canonical_generators(offset, gens))


def seg(lo, hi, axis=0, dim=1):
    u = np.zeros(dim)
    u[axis] = 1.0
    return make_piece(np.zeros(dim), [(u, lo, hi)])


def generators(piece: Piece) -> list:
    """(unit, lo, hi) of each generator of the piece."""
    return list(zip(piece.units, piece.lo, piece.hi))


def shift_piece(piece: Piece, delta) -> Piece:
    return Piece.of(piece.offset + np.asarray(delta, dtype=float), generators(piece))


def combine_pieces(a: Piece, b: Piece) -> Piece:
    """Minkowski sum of two pieces."""
    return make_piece(a.offset + b.offset, generators(a) + generators(b))


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
    assert (p.lo[0], p.hi[0]) == pytest.approx((0.0, 3.0))
    # zero-width generators fold into the offset
    q = make_piece([0.0], [((1.0,), 2.0, 2.0)])
    assert q.units.shape == (0, 1)
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
    G = p.units.T
    ref = lsq_linear(G, x - p.offset, bounds=(p.lo, p.hi), method="bvls")
    want = float(np.linalg.norm(x - (p.offset + G @ ref.x)))
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
    # a piece lies inside a convex piece when each of its corners does
    assert all(piece_nearest(big, v)[0] <= 1e-9 for v in piece_vertices(small))
    assert not all(piece_nearest(small, v)[0] <= 1e-9 for v in piece_vertices(big))
    assert piece_nearest(big, [4.0 + 5e-10])[0] <= 1e-9
    assert not piece_nearest(big, [4.1])[0] <= 1e-9


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
    return DemandSet(1e-7, 0.0, (patterns,))


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
    return piece.offset + rng.uniform(piece.lo, piece.hi) @ piece.units


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_nearest_beats_sampled_points(seed):
    """The reported nearest distance is a lower bound over sampled members."""
    rng = np.random.default_rng(seed)
    piece = _random_piece(rng, int(rng.integers(1, 4)))
    x = rng.uniform(-4, 4, size=piece.offset.size)
    d, y = piece_nearest(piece, x)
    assert piece_nearest(piece, y)[0] <= 1e-7
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
        assert piece_nearest(piece, v)[0] <= 1e-7
    # random members are inside the hull of the vertex set
    for _ in range(20):
        assert in_hull(_random_member(rng, piece), verts, 1e-6)


# ---------------------------------------------------------------------------
# The union distance

def test_union_distance_keeps_the_sign_of_zero_in_piece_order():
    # inside the square the l1 and linf LPs give -0.0, at the point 0.0;
    # the minimum is taken in piece order, whichever piece goes first
    point = make_piece([0.5, 0.5])
    square = make_piece([0.0, 0.0], [([1.0, 0.0], 0.0, 1.0), ([0.0, 1.0], 0.0, 1.0)])
    x = np.array([0.5, 0.5])
    for norm in ("l1", "linf"):
        for pieces, want in (([point, square], "0.0"), ([square, point], "-0.0")):
            d = union_distance(pieces, x, norm, first=1)
            assert repr(d) == want == repr(_reference_union_distance(pieces, x, norm))


# ---------------------------------------------------------------------------
# Byte lock

def _random_lock_piece(rng, dim):
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


def _lock_pieces(K):
    """Every piece of the demand sets at lambda* of six seeded corpus
    markets, then a seeded point and twelve `_random_lock_piece`s: segments,
    axis-aligned, near-axis and skew pieces."""
    pieces = []
    for s in range(6):
        dual = solve_lp(random_market(np.random.default_rng((77, s, K)), K=K, max_blocks=8))
        for i in range(len(dual.market.agents)):
            try:
                pieces.extend(dual.demand(i).pieces)
            except ComplexityError:
                pass
    rng = np.random.default_rng((78, K))
    pieces.append(make_piece(rng.uniform(-5.0, 5.0, size=K)))
    pieces.extend(_random_lock_piece(rng, K) for _ in range(12))
    return pieces


# sha256 of the bytes below, recorded when pieces still stored tuples.
PIECE_RESULTS_SHA256 = "7ff5098d5a9e352a579eefb8c8ad04fac2714830bf5bf063c2f44b24c4f3d967"


def _axis_box(piece):
    """The piece's axis box (lo, hi) and its size |offset|inf + sum of
    max(|lo_g|, |hi_g|), which `PIECE_RESULTS_SHA256` hashes."""
    lo = hi = piece.offset
    size = max((abs(v) for v in piece.offset), default=0.0)
    for u, a, b in zip(piece.units, piece.lo.tolist(), piece.hi.tolist()):
        lo = lo + np.minimum(u * a, u * b)
        hi = hi + np.maximum(u * a, u * b)
        size += max(abs(a), abs(b))
    return lo, hi, size


def test_piece_results_keep_their_bytes():
    """Axis box, corners, nearest point and l1/linf distances at three
    points per piece, and the closest pair of each two consecutive pieces,
    hashed over K = 1, 2, 4 and 24."""
    h = hashlib.sha256()

    def put(*values):
        for v in values:
            h.update(np.asarray(v, dtype=float).tobytes())

    for K in (1, 2, 4, 24):
        pieces = _lock_pieces(K)
        rng = np.random.default_rng((79, K))
        for piece in pieces:
            lo, hi, size = _axis_box(piece)
            corners = piece_vertices(piece)
            put(lo, hi, size, corners)
            for x in (rng.uniform(-6.0, 6.0, size=K), corners[-1], np.mean(corners, axis=0)):
                put(*piece_nearest(piece, x))
                put(piece_distance(piece, x, "l1"), piece_distance(piece, x, "linf"))
        for a, b in zip(pieces, pieces[1:]):
            put(*closest_pair(a, b))
    assert h.hexdigest() == PIECE_RESULTS_SHA256
