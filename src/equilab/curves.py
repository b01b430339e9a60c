"""Canonical form and arithmetic for hourly curve bids.

A curve bid is a list of (price, quantity) breakpoints, quantity signed
(positive = buy, negative = sell), sorted by nondecreasing price with signed
quantity nonincreasing.  Internally every curve becomes a *step list*: disjoint
signed quantity intervals, each carrying one marginal price, with the marginal
price nonincreasing in quantity.  That makes the value function

    u(x) = integral of the marginal price from 0 to x

concave and piecewise linear, which is what the welfare LP consumes, and makes
demand at any price an exact closed-form interval (read off the step table of
`Market.compiled` by `demand.PricedMarket`).

Conventions
-----------
* stepwise mode: each point (p, q) states the demand or supply at price p.
  Buy units take the highest price at which they are still demanded (the
  lower price of their segment); sell units take the lowest price at which
  they are offered (the higher price of their segment).
* interpolated mode: a sloped segment contributes one step at its average
  price, so the value function passes exactly through the integral of the
  interpolated marginal at every listed breakpoint and is linear in between.
  Segments crossing zero are split at the crossing before averaging.
* units between quantity 0 and the nearest listed quantity take that
  endpoint's price (constant extension of the marginal curve).
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class CurveStep:
    """One marginal-price step: signed quantity interval [lo, hi] at `price`."""

    lo: float
    hi: float
    price: float


class CurveError(ValueError):
    pass


class CurveShapeError(CurveError):
    """Breakpoints that give no concave buy or convex sell curve."""


def canonical_steps(points, mode: str) -> tuple[CurveStep, ...]:
    """Convert breakpoints to the canonical step list.

    Raises CurveError on an unknown mode or no points, and its subclass
    CurveShapeError on unsorted prices or non-monotone quantities or
    marginal prices.  Zero-width segments are dropped; a segment straddling
    zero is split so every step lies on one side of zero.
    """
    if mode not in ("stepwise", "interpolated"):
        raise CurveError(f"unknown curve mode {mode!r}")
    pts = [(float(p), float(q)) for p, q in points]
    if not pts:
        raise CurveError("curve has no points")
    if len(pts) == 1:               # only the constant extension, in either mode
        (p, q), = pts
        return (CurveStep(0.0, q, p),) if q > 0.0 else (CurveStep(q, 0.0, p),) if q < 0.0 else ()
    for (p0, q0), (p1, q1) in zip(pts, pts[1:]):
        if p1 < p0:
            raise CurveShapeError("curve prices must be nondecreasing")
        if q1 > q0:
            raise CurveShapeError("curve quantities must be nonincreasing in price")

    raw: list[tuple[float, float, float, float]] = []  # (lo, hi, step, interp)
    for (p0, q0), (p1, q1) in zip(pts, pts[1:]):
        if q0 == q1:
            continue
        if q1 < 0.0 < q0:
            cross = p0 + (p1 - p0) * q0 / (q0 - q1)
            raw.append((0.0, q0, p0, 0.5 * (p0 + cross)))
            raw.append((q1, 0.0, p1, 0.5 * (cross + p1)))
        elif q1 >= 0.0:
            raw.append((q1, q0, p0, 0.5 * (p0 + p1)))
        else:
            raw.append((q1, q0, p1, 0.5 * (p0 + p1)))
    # Constant extensions toward zero.
    q_first, q_last = pts[0][1], pts[-1][1]
    if q_last > 0.0:
        raw.append((0.0, q_last, pts[-1][0], pts[-1][0]))
    if q_first < 0.0:
        raw.append((q_first, 0.0, pts[0][0], pts[0][0]))

    steps: list[CurveStep] = []
    for lo, hi, step_price, interp_price in raw:
        if hi <= lo:
            continue
        steps.append(CurveStep(lo, hi, step_price if mode == "stepwise"
                               else interp_price))
    steps.sort(key=lambda s: (s.lo, s.hi))
    for a, b in zip(steps, steps[1:]):
        if b.price > a.price + 1e-12 * (1.0 + abs(a.price)):
            raise CurveShapeError("marginal price must be nonincreasing in quantity")
    return tuple(steps)
