"""Geometry for structured demand sets.

A demand set is a finite union of *pieces*; each piece is an offset plus a
Minkowski sum of scaled segments (a zonotope), which is exactly what the bid
language produces: curve sub-intervals along hour axes and block directions
with ratio ranges.  Everything here is exact for that class at desk scale:
distances via bounded-variable least squares and hulls via the piece vertex
set (extreme points of a union of polytopes are extreme points of the
members).  Collinear demand sets are measured on their carrier line in
`equilab.demand`, from the same canonical generators their pieces are built
from (`Piece.of`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

MAX_GENS_PER_PIECE = 12
MAX_PIECES = 64
_PAR_TOL = 1e-9


class ComplexityError(RuntimeError):
    """Structured-set computation would exceed the exact-enumeration caps."""


@dataclass(frozen=True)
class Piece:
    """offset + sum of t_g * unit_g with t_g in [lo_g, hi_g]."""

    offset: tuple[float, ...]
    units: tuple[tuple[float, ...], ...]
    ranges: tuple[tuple[float, float], ...]

    @property
    def dim(self) -> int:
        return len(self.offset)

    def point(self) -> np.ndarray:
        return np.asarray(self.offset, dtype=float)

    def unit_matrix(self) -> np.ndarray:
        return np.array(self.units, dtype=float).T.reshape(self.dim, len(self.units))

    @classmethod
    def of(cls, offset, merged) -> Piece:
        """The piece of a canonical form from `canonical_generators`."""
        return cls(tuple(offset), tuple(tuple(u) for u, _, _ in merged),
                   tuple((lo, hi) for _, lo, hi in merged))


def canonical_generators(offset, gens) -> tuple[np.ndarray, list[list]]:
    """Offset and [unit, lo, hi] list of a piece: parallel generators merged,
    zero-width folded into the offset.

    `gens` is an iterable of (direction, lo, hi) with lo <= hi.  Directions are
    normalized; antiparallel directions are flipped to a canonical orientation
    (first nonzero component positive) with the range mirrored.  More than
    MAX_GENS_PER_PIECE merged generators raise ComplexityError.
    """
    offset = np.array(offset, dtype=float)
    merged: dict[tuple, list] = {}
    for direction, lo, hi in gens:
        d = np.asarray(direction, dtype=float)
        nrm = math.sqrt(d.dot(d))
        if nrm <= _PAR_TOL:
            continue
        unit = d / nrm
        lo_s, hi_s = lo * nrm, hi * nrm
        if next(v for v in unit.tolist() if abs(v) > _PAR_TOL) < 0:
            unit = -unit
            lo_s, hi_s = -hi_s, -lo_s
        if hi_s - lo_s <= _PAR_TOL * (1.0 + abs(lo_s) + abs(hi_s)):
            offset += 0.5 * (lo_s + hi_s) * unit
            continue
        key = tuple(np.round(unit, 9))
        if key in merged:
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
    base = piece.point()
    if g == 0:
        return base.reshape(1, -1)
    Umat = piece.unit_matrix()
    out = np.empty((2 ** g, piece.dim))
    for mask in range(2 ** g):
        t = np.array([piece.ranges[i][1] if mask >> i & 1 else piece.ranges[i][0]
                      for i in range(g)])
        out[mask] = base + Umat @ t
    return out


def _is_axis_aligned(piece: Piece) -> bool:
    for u in piece.units:
        arr = np.abs(np.asarray(u))
        if np.count_nonzero(arr > _PAR_TOL) != 1:
            return False
    return True


def piece_nearest(piece: Piece, x) -> tuple[float, np.ndarray]:
    """Exact nearest point of the piece to x and its distance."""
    x = np.asarray(x, dtype=float)
    base = piece.point()
    g = len(piece.units)
    if g == 0:
        return float(np.linalg.norm(x - base)), base
    r = x - base
    if g == 1:
        u = np.asarray(piece.units[0])
        lo, hi = piece.ranges[0]
        t = float(np.clip(r @ u, lo, hi))
        p = base + t * u
        return float(np.linalg.norm(x - p)), p
    if _is_axis_aligned(piece):
        p = base.copy()
        for u, (lo, hi) in zip(piece.units, piece.ranges):
            k = int(np.argmax(np.abs(np.asarray(u))))
            sgn = np.sign(u[k])
            t = float(np.clip(r[k] * sgn, lo, hi))
            p[k] += t * sgn
        return float(np.linalg.norm(x - p)), p
    G = piece.unit_matrix()
    los = np.array([lo for lo, _ in piece.ranges])
    his = np.array([hi for _, hi in piece.ranges])
    res = lsq_linear(G, r, bounds=(los, his), method="bvls")
    p = base + G @ res.x
    return float(np.linalg.norm(x - p)), p


def closest_pair(a: Piece, b: Piece) -> tuple[float, np.ndarray, np.ndarray]:
    """Closest approach between two pieces (exact, small BVLS)."""
    if not a.units and not b.units:
        pa, pb = a.point(), b.point()
        return float(np.linalg.norm(pa - pb)), pa, pb
    if not a.units:
        d, p = piece_nearest(b, a.point())
        return d, a.point(), p
    if not b.units:
        d, p = piece_nearest(a, b.point())
        return d, p, b.point()
    Ga, Gb = a.unit_matrix(), b.unit_matrix()
    G = np.hstack([Ga, -Gb])
    rhs = b.point() - a.point()
    los = np.array([lo for lo, _ in a.ranges] + [lo for lo, _ in b.ranges])
    his = np.array([hi for _, hi in a.ranges] + [hi for _, hi in b.ranges])
    res = lsq_linear(G, rhs, bounds=(los, his), method="bvls")
    ta, tb = res.x[:Ga.shape[1]], res.x[Ga.shape[1]:]
    pa = a.point() + Ga @ ta
    pb = b.point() + Gb @ tb
    return float(np.linalg.norm(pa - pb)), pa, pb


def union_nearest(pieces, x) -> tuple[float, np.ndarray]:
    """Nearest point of a union; ties broken toward smaller norm, then order."""
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


def piece_contains(piece: Piece, x, tol: float) -> bool:
    d, _ = piece_nearest(piece, x)
    return d <= tol


def piece_subset(inner: Piece, outer: Piece, tol: float) -> bool:
    """inner subset of outer, decided on inner's corner set (outer is convex)."""
    return all(piece_contains(outer, v, tol) for v in piece_vertices(inner))


def merge_intervals(intervals, tol: float) -> list[tuple[float, float]]:
    ivs = sorted(intervals)
    out: list[list[float]] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]
