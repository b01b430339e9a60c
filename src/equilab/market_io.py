"""File formats: markets in CSV or JSON, outcomes in JSON.

CSV rows are typed by their first field:

    header,<num_hours>,<currency>,<unit>,<label>
    curve,<agent>,<bid>,<hour>,<mode>,<price>,<quantity>
    block,<agent>,<bid>,<price>,<mar>,<group>,<parent>,<loop>,<q1>,...,<qK>

Curve rows repeat per breakpoint in order; hours are 1-based in files and
0-based in memory.  The JSON form mirrors the in-memory model with the same
1-based hour convention.  Emission is deterministic: identical inputs give
identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field, fields

import numpy as np

from .config import VERSION, ordered_sum
from .model import Agent, BlockBid, HourlyCurveBid, Market


class MarketParseError(ValueError):
    """Malformed market file; message carries the offending line."""


def _fail(line: int, msg: str):
    raise MarketParseError(f"line {line}: {msg}")


def _num(line: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        _fail(line, f"bad {what} {text!r}")


def _int(line: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(line, f"bad {what} {text!r}")


def parse_market(text: str) -> Market:
    """Parse CSV or JSON market text; format sniffed from the first character."""
    if text.lstrip()[:1] == "{":
        return _parse_json(text)
    return _parse_csv(text)


def load_market(path) -> Market:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MarketParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_market(text)


def _parse_csv(text: str) -> Market:
    num_hours = None
    currency, unit, label = "EUR", "MW", ""
    curves: dict[tuple[str, str], dict] = {}
    blocks: list[tuple[str, BlockBid]] = []
    order: list[tuple[str, str]] = []          # (agent, bid) in file order

    for line_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (row[0].strip().startswith("#")) or not any(row):
            continue
        kind = row[0].strip()
        if kind == "header":
            if len(row) < 2:
                _fail(line_no, "header needs a commodity count")
            num_hours = _int(line_no, row[1], "commodity count")
            currency = row[2].strip() if len(row) > 2 and row[2].strip() else "EUR"
            unit = row[3].strip() if len(row) > 3 and row[3].strip() else "MW"
            label = row[4].strip() if len(row) > 4 else ""
        elif kind == "curve":
            if num_hours is None:
                _fail(line_no, "curve row before header")
            if len(row) != 7:
                _fail(line_no, f"curve row needs 7 fields, got {len(row)}")
            agent, bid = row[1].strip(), row[2].strip()
            hour = _int(line_no, row[3], "hour")
            if not 1 <= hour <= num_hours:
                _fail(line_no, f"hour {hour} outside 1..{num_hours}")
            mode = row[4].strip()
            point = (_num(line_no, row[5], "price"), _num(line_no, row[6], "quantity"))
            key = (agent, bid)
            entry = curves.get(key)
            if entry is None:
                curves[key] = {"hour": hour - 1, "mode": mode, "points": [point]}
                order.append(key)
            else:
                if entry["hour"] != hour - 1 or entry["mode"] != mode:
                    _fail(line_no, f"curve {bid!r} changes hour or mode mid-file")
                entry["points"].append(point)
        elif kind == "block":
            if num_hours is None:
                _fail(line_no, "block row before header")
            if len(row) != 8 + num_hours:
                _fail(line_no, f"block row needs {8 + num_hours} fields, got {len(row)}")
            agent, bid = row[1].strip(), row[2].strip()
            price = _num(line_no, row[3], "price")
            mar = _num(line_no, row[4], "mar")
            group = row[5].strip() or None
            parent = row[6].strip() or None
            loop = row[7].strip() or None
            q = tuple(_num(line_no, v, "quantity") for v in row[8:])
            blocks.append((agent, BlockBid(bid, price, q, mar=mar, group=group,
                                           parent=parent, loop=loop)))
            order.append((agent, bid))
        else:
            _fail(line_no, f"unknown row type {kind!r}")

    if num_hours is None:
        raise MarketParseError("no header row")
    bids_by_agent: dict[str, list] = {}
    agent_order: list[str] = []
    block_map = {(a, b.bid_id): b for a, b in blocks}
    for agent, bid in order:
        if agent not in bids_by_agent:
            bids_by_agent[agent] = []
            agent_order.append(agent)
        if (agent, bid) in block_map:
            bids_by_agent[agent].append(block_map[agent, bid])
        else:
            e = curves[agent, bid]
            bids_by_agent[agent].append(
                HourlyCurveBid(bid, e["hour"], tuple(e["points"]), e["mode"]))
    agents = tuple(Agent(a, tuple(bids_by_agent[a])) for a in agent_order)
    return Market(num_hours, agents, currency=currency, quantity_unit=unit,
                  label=label)


def _objects(entries, what: str):
    """The entries of a JSON list, each of which must be an object."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise MarketParseError(f"{what} entry {entry!r:.40} is not an object")
        yield entry


def _parse_json(text: str) -> Market:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketParseError(f"line {exc.lineno}: {exc.msg}") from None
    try:
        num_hours = int(doc["num_commodities"])
        agents = []
        for a in _objects(doc["agents"], "agent"):
            bids = []
            for c in _objects(a.get("curve_bids", ()), "curve bid"):
                hour = int(c["hour"])
                if not 1 <= hour <= num_hours:
                    raise MarketParseError(
                        f"curve {c.get('id')!r}: hour {hour} outside 1..{num_hours}")
                bids.append(HourlyCurveBid(
                    c["id"], hour - 1, tuple((float(p), float(q))
                                             for p, q in c["points"]),
                    c.get("mode", "stepwise")))
            for b in _objects(a.get("block_bids", ()), "block bid"):
                bids.append(BlockBid(
                    b["id"], float(b["price"]), tuple(float(v) for v in b["quantity"]),
                    mar=float(b.get("mar", 1.0)), group=b.get("group"),
                    parent=b.get("parent"), loop=b.get("loop")))
            agents.append(Agent(a["id"], tuple(bids)))
        return Market(num_hours, tuple(agents),
                      currency=doc.get("currency", "EUR"),
                      quantity_unit=doc.get("quantity_unit", "MW"),
                      label=doc.get("label", ""))
    except MarketParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MarketParseError(str(exc)) from None


def emit_market(market: Market, fmt: str = "csv") -> str:
    if fmt == "csv":
        return _emit_csv(market)
    if fmt == "json":
        return _emit_json(market)
    raise ValueError(f"unknown format {fmt!r}")


def save_market(market: Market, path, fmt: str | None = None) -> None:
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_market(market, fmt))


def _emit_csv(market: Market) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["header", market.num_commodities, market.currency,
                market.quantity_unit, market.label])
    for agent in market.agents:
        for bid in agent.bids:
            if isinstance(bid, HourlyCurveBid):
                for p, q in bid.points:
                    w.writerow(["curve", agent.agent_id, bid.bid_id,
                                bid.hour + 1, bid.mode, repr(p), repr(q)])
            else:
                w.writerow(["block", agent.agent_id, bid.bid_id, repr(bid.price),
                            repr(bid.mar), bid.group or "", bid.parent or "",
                            bid.loop or ""] + [repr(float(v)) for v in bid.quantity])
    return out.getvalue()


def _emit_json(market: Market) -> str:
    agents = []
    for agent in market.agents:
        curve_bids = []
        block_bids = []
        for bid in agent.bids:
            if isinstance(bid, HourlyCurveBid):
                curve_bids.append({"id": bid.bid_id, "hour": bid.hour + 1,
                                   "mode": bid.mode,
                                   "points": [[p, q] for p, q in bid.points]})
            else:
                entry = {"id": bid.bid_id, "price": bid.price,
                         "quantity": list(bid.quantity), "mar": bid.mar}
                if bid.group:
                    entry["group"] = bid.group
                if bid.parent:
                    entry["parent"] = bid.parent
                if bid.loop:
                    entry["loop"] = bid.loop
                block_bids.append(entry)
        entry = {"id": agent.agent_id}
        if curve_bids:
            entry["curve_bids"] = curve_bids
        if block_bids:
            entry["block_bids"] = block_bids
        agents.append(entry)
    doc = {"num_commodities": market.num_commodities, "currency": market.currency,
           "quantity_unit": market.quantity_unit, "label": market.label,
           "agents": agents}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Outcome reports

def market_volumes(market: Market) -> tuple[float, float]:
    """(convex, nonconvex) submitted volume from `Market.compiled`: each curve's
    step widths and each block's |q| summed, then the totals in market order."""
    cm = market.compiled
    spans = np.bincount(cm.step_index[2], cm.step_table[:, 3], len(cm.curves))
    return ordered_sum(spans.tolist()), ordered_sum(np.abs(cm.block_q).sum(axis=1).tolist())


@dataclass(frozen=True)
class OutcomeReport:
    """One clearing outcome; totals are validated against their parts."""

    label: str
    mode: str
    prices: tuple[float, ...]
    acceptances: dict
    equilibrium: bool
    welfare: float
    per_agent_value: dict
    total_loc: float
    per_agent_loc: dict
    convex_volume: float
    nonconvex_volume: float
    config: dict = field(default_factory=dict)
    version: str = VERSION

    def __post_init__(self):
        # the fields `figure_data` reads, so a mistyped one fails here
        for name, kind in (("label", str), ("equilibrium", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} is not a {kind.__name__}: {getattr(self, name)!r}")
        for name in ("convex_volume", "nonconvex_volume"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} is not a number: {v!r}")
        vals = ordered_sum(self.per_agent_value.values())
        if abs(vals - self.welfare) > 1e-9 * (1.0 + abs(self.welfare)):
            raise ValueError(f"welfare {self.welfare} != agent values {vals}")
        locs = list(self.per_agent_loc.values())
        total = ordered_sum(locs)
        if any(not np.isfinite(v) for v in locs):
            if np.isfinite(self.total_loc):
                raise ValueError("finite total for infinite per-agent costs")
        elif abs(total - self.total_loc) > 1e-9 * (1.0 + abs(self.total_loc)):
            raise ValueError(f"total loc {self.total_loc} != per-agent sum {total}")


def _json_value(v):
    if isinstance(v, float) and not np.isfinite(v):
        if np.isnan(v):
            return "nan"
        return "inf" if v > 0 else "-inf"
    return v


def _restore_value(v):
    if v in ("inf", "-inf", "nan"):
        return float(v)
    return v


def emit_outcome(report: OutcomeReport) -> str:
    doc = {}
    for f in fields(OutcomeReport):
        v = getattr(report, f.name)
        if isinstance(v, tuple):
            v = [_json_value(x) for x in v]
        elif isinstance(v, dict):
            v = {k: _json_value(x) for k, x in sorted(v.items())}
        else:
            v = _json_value(v)
        doc[f.name] = v
    return json.dumps(doc, indent=2) + "\n"


def parse_outcome(text: str) -> OutcomeReport:
    """The outcome in a JSON object; ValueError if it makes no `OutcomeReport`."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("an outcome must be a JSON object")
    kwargs = {}
    for f in fields(OutcomeReport):
        if f.name not in doc:
            continue
        v = doc[f.name]
        if isinstance(v, list):
            v = tuple(_restore_value(x) for x in v)
        elif isinstance(v, dict) and f.name != "config":
            v = {k: _restore_value(x) for k, x in v.items()}
        else:
            v = _restore_value(v)
        kwargs[f.name] = v
    try:
        return OutcomeReport(**kwargs)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed outcome: {exc}") from None


def load_outcome(path) -> OutcomeReport:
    with open(path, encoding="utf-8") as fh:
        return parse_outcome(fh.read())


def figure_data(reports) -> dict:
    """Aggregate outcomes by label: equilibrium share and bid-volume mix.

    Returns {label: {count, equilibrium_pct, median_volume_ratio}} with the
    ratio convex/nonconvex reported as the string "inf" when no nonconvex
    volume was submitted.
    """
    groups: dict[str, list[OutcomeReport]] = {}
    for r in reports:
        groups.setdefault(r.label, []).append(r)
    out = {}
    for label in sorted(groups):
        rs = groups[label]
        ratios = [(r.convex_volume / r.nonconvex_volume) if r.nonconvex_volume > 0
                  else float("inf") for r in rs]
        med = statistics.median(ratios)
        out[label] = {
            "count": len(rs),
            "equilibrium_pct": 100.0 * sum(r.equilibrium for r in rs) / len(rs),
            "median_volume_ratio": _json_value(med),
        }
    return out
