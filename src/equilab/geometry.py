"""Geometry for structured demand sets.

A demand set is a finite union of *pieces*, one per surplus-maximal
indicator pattern; each piece is an offset plus a Minkowski sum of scaled
segments (a zonotope), which is exactly what the bid language produces:
curve sub-intervals along hour axes and block directions with ratio ranges.
Everything here is exact for that class at desk scale: distances via
bounded-variable least squares (l2) or a small LP (l1, linf) and hulls via
the piece vertex set (extreme points of a union of polytopes are extreme
points of the members).  Collinear demand sets are measured on their
carrier line in `equilab.demand`, from the same canonical generators their
pieces are built from (`Piece.of`).  A canonical form is found per generator
(`generator_form`) and folded per piece (`fold_generators`), so a generator
shared by several pieces is normalized once.

The distance to a union (`union_distance`) is the least piece distance,
taken in piece order; it stops early only once a piece is within a caller's
bar, and then returns no distance.  `union_nearest` projects every piece:
its tie rule is not transitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .config import vector_norm

MAX_GENS_PER_PIECE = 12
MAX_PIECES = 64
_PAR_TOL = 1e-9


class ComplexityError(RuntimeError):
    """Structured-set computation would exceed the exact-enumeration caps."""


@dataclass(frozen=True, eq=False)
class Piece:
    """offset + sum of t_g * units[g] with t_g in [lo[g], hi[g]].

    Read-only float arrays, built once by `Piece.of`: `offset` (K,), `units`
    (g, K), `lo` and `hi` (g,).  `units.T` is the piece's generator matrix.
    """

    offset: np.ndarray
    units: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, offset, merged) -> Piece:
        """The piece of a canonical form: the offset and [unit, lo, hi] list
        `fold_generators` returns."""
        offset = np.array(offset, dtype=float)
        arrays = (offset,
                  np.array([u for u, _, _ in merged], dtype=float).reshape(-1, offset.size),
                  np.array([lo for _, lo, _ in merged], dtype=float),
                  np.array([hi for _, _, hi in merged], dtype=float))
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)


def generator_form(direction, lo, hi) -> tuple | None:
    """The canonical form of one generator (direction, lo, hi), lo <= hi:
    (key, unit, lo_s, hi_s), or None for a zero direction, which is dropped.

    The direction is normalized and flipped to a canonical orientation
    (first nonzero component positive) with the range scaled and mirrored.
    `key` is the rounded unit that parallel generators share, and None when
    the range has zero width: `fold_generators` then moves the offset to the
    range's midpoint.
    """
    d = np.asarray(direction, dtype=float)
    nrm = math.sqrt(d.dot(d))
    if nrm <= _PAR_TOL:
        return None
    unit = d / nrm
    lo_s, hi_s = lo * nrm, hi * nrm
    if next(v for v in unit.tolist() if abs(v) > _PAR_TOL) < 0:
        unit = -unit
        lo_s, hi_s = -hi_s, -lo_s
    if hi_s - lo_s <= _PAR_TOL * (1.0 + abs(lo_s) + abs(hi_s)):
        return None, unit, lo_s, hi_s
    return tuple(np.round(unit, 9)), unit, lo_s, hi_s


def fold_generators(offset, forms) -> tuple[np.ndarray, list[list]]:
    """Offset and [unit, lo, hi] list of a piece from its generators'
    `generator_form`s, in order: zero-width ranges move a copy of the
    offset, generators with one key merge into the first one's entry.
    More than MAX_GENS_PER_PIECE merged generators raise ComplexityError."""
    offset = np.array(offset, dtype=float)
    merged: dict[tuple, list] = {}
    for form in forms:
        if form is None:
            continue
        key, unit, lo_s, hi_s = form
        if key is None:
            offset += 0.5 * (lo_s + hi_s) * unit
        elif key in merged:
            merged[key][1] += lo_s
            merged[key][2] += hi_s
        else:
            merged[key] = [unit, lo_s, hi_s]
    if len(merged) > MAX_GENS_PER_PIECE:
        raise ComplexityError(f"{len(merged)} generators in one piece "
                              f"(cap {MAX_GENS_PER_PIECE})")
    return offset, list(merged.values())


def piece_vertices(piece: Piece) -> np.ndarray:
    """All bound-combination corners; a superset of the piece's extreme points."""
    g = len(piece.units)
    if g == 0:
        return piece.offset.reshape(1, -1)
    G = piece.units.T
    los, his = piece.lo.tolist(), piece.hi.tolist()
    out = np.empty((2 ** g, piece.offset.size))
    for mask in range(2 ** g):
        t = np.array([his[i] if mask >> i & 1 else los[i] for i in range(g)])
        out[mask] = piece.offset + G @ t
    return out


def _is_axis_aligned(piece: Piece) -> bool:
    return bool((np.count_nonzero(np.abs(piece.units) > _PAR_TOL, axis=1) == 1).all())


def piece_nearest(piece: Piece, x) -> tuple[float, np.ndarray]:
    """Exact nearest point of the piece to x and its distance."""
    x = np.asarray(x, dtype=float)
    base = piece.offset
    g = len(piece.units)
    if g == 0:
        return float(np.linalg.norm(x - base)), base
    r = x - base
    if g == 1:
        u = piece.units[0]
        t = float(np.clip(r @ u, piece.lo[0], piece.hi[0]))
        p = base + t * u
        return float(np.linalg.norm(x - p)), p
    if _is_axis_aligned(piece):
        p = base.copy()
        for u, lo, hi in zip(piece.units, piece.lo.tolist(), piece.hi.tolist()):
            k = int(np.argmax(np.abs(u)))
            sgn = np.sign(u[k])
            t = float(np.clip(r[k] * sgn, lo, hi))
            p[k] += t * sgn
        return float(np.linalg.norm(x - p)), p
    from scipy.optimize import lsq_linear      # imported at first use: see `equilab`
    G = piece.units.T
    res = lsq_linear(G, r, bounds=(piece.lo, piece.hi), method="bvls")
    p = base + G @ res.x
    return float(np.linalg.norm(x - p)), p


def closest_pair(a: Piece, b: Piece) -> tuple[float, np.ndarray, np.ndarray]:
    """Closest approach between two pieces (exact, small BVLS)."""
    if not len(a.units) and not len(b.units):
        return float(np.linalg.norm(a.offset - b.offset)), a.offset, b.offset
    if not len(a.units):
        d, p = piece_nearest(b, a.offset)
        return d, a.offset, p
    if not len(b.units):
        d, p = piece_nearest(a, b.offset)
        return d, p, b.offset
    from scipy.optimize import lsq_linear      # imported at first use: see `equilab`
    Ga, Gb = a.units.T, b.units.T
    G = np.hstack([Ga, -Gb])
    res = lsq_linear(G, b.offset - a.offset, bounds=(np.concatenate([a.lo, b.lo]),
                                                     np.concatenate([a.hi, b.hi])),
                     method="bvls")
    ta, tb = res.x[:len(a.units)], res.x[len(a.units):]
    pa = a.offset + Ga @ ta
    pb = b.offset + Gb @ tb
    return float(np.linalg.norm(pa - pb)), pa, pb


def piece_distance(piece: Piece, x, norm: str = "l2") -> float:
    """Distance from x to the piece: `piece_nearest` for l2, a small LP on
    the residual r - G t for l1 and linf.

    The LP caps each residual variable at twice 1 + |r|inf + sum of
    max(|lo_g|, |hi_g|), which bounds every residual coordinate (the units
    have norm 1), also for a range that excludes 0.
    """
    if norm == "l2":
        return piece_nearest(piece, x)[0]
    x = np.asarray(x, dtype=float)
    g = len(piece.units)
    if g == 0:
        return vector_norm(x - piece.offset, norm)
    G, los, his = piece.units.T, piece.lo, piece.hi
    K = x.size
    r = x - piece.offset
    span = 1.0 + float(np.max(np.abs(r))) + float(np.sum(np.maximum(np.abs(los), np.abs(his))))
    if norm == "l1":
        # vars: t, e+, e-;   G t + e+ - e- = r;   min sum(e+ + e-)
        n = g + 2 * K
        c = np.zeros(n)
        c[g:] = -1.0
        a_eq = np.hstack([G, np.eye(K), -np.eye(K)])
        res = lp.solve_lp(c, a_eq=a_eq, b_eq=r,
                          lo=np.concatenate([los, np.zeros(2 * K)]),
                          hi=np.concatenate([his, np.full(2 * K, 2 * span)]))
        return -res.value
    if norm == "linf":
        # vars: t, s;   -s <= (r - G t)_k <= s;   min s
        n = g + 1
        c = np.zeros(n)
        c[g] = -1.0
        a_ub = np.vstack([np.hstack([G, -np.ones((K, 1))]),
                          np.hstack([-G, -np.ones((K, 1))])])
        b_ub = np.concatenate([r, -r])
        res = lp.solve_lp(c, a_ub=a_ub, b_ub=b_ub,
                          lo=np.concatenate([los, [0.0]]),
                          hi=np.concatenate([his, [2 * span]]))
        return -res.value
    raise ValueError(f"unknown norm {norm!r}")


def union_distance(pieces, x, norm: str = "l2", *, within: float = -math.inf,
                   first: int = 0) -> float | None:
    """Distance from x to a union of pieces: the `min` of `piece_distance`
    over the pieces, taken in piece order, or None as soon as one piece is
    within `within` (distance <= within).

    Piece `first` is projected first, then the others in order; the order
    of projection decides only how soon None is returned.  The l1 and linf
    distances are -0.0 inside a piece and a point's is 0.0, so the minimum
    is taken in piece order, not as a running minimum.
    """
    x = np.asarray(x, dtype=float)
    found = [math.inf] * len(pieces)
    for i in (first, *range(first), *range(first + 1, len(pieces))):
        d = piece_distance(pieces[i], x, norm)
        if d <= within:
            return None
        found[i] = d
    return min(found)


def union_nearest(pieces, x) -> tuple[float, np.ndarray]:
    """Nearest point of a union; ties broken toward smaller norm, then order.

    Every piece is projected, in order, since the tie rule is not transitive.
    """
    best: tuple[float, float, int, np.ndarray] | None = None
    x = np.asarray(x, dtype=float)
    for idx, piece in enumerate(pieces):
        d, p = piece_nearest(piece, x)
        key = (d, float(np.linalg.norm(p)), idx)
        if best is None or (key[0] < best[0] - 1e-12) or (
                abs(key[0] - best[0]) <= 1e-12 and key[1] < best[1] - 1e-12):
            best = (key[0], key[1], idx, p)
    assert best is not None, "empty union"
    return best[0], best[3]


def merge_intervals(intervals, tol: float) -> list[tuple[float, float]]:
    ivs = sorted(intervals)
    out: list[list[float]] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]
