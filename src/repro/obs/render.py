"""Human-readable rendering of traces and metrics snapshots.

``render_trace_tree`` rebuilds the span forest from flat JSONL records
(children link to parents by id) and prints one line per span with its
wall time and attributes, aggregating repeated point events into
``name[reason] ×count`` rollups so a 10k-prune search stays readable.
``render_metrics`` prints a snapshot's counters/gauges/histograms;
``render_profile`` condenses the ``<name>.calls`` / ``.seconds_total``
pairs the profiling hooks emit into a top-of-the-bill table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, labels_suffix

__all__ = [
    "render_trace_tree",
    "render_metrics",
    "render_profile",
    "render_match_explanation",
    "render_prometheus",
    "render_top",
    "stats_json",
]


def stats_json(payload: Any) -> str:
    """Canonical machine-readable stats serialization.

    The one helper behind every ``--stats --json`` surface (``classify``,
    ``map``, the serving stats op, the load harness): dataclasses are
    rendered via their ``as_dict`` when they define one (``EngineStats``
    keeps its field order contract) or ``dataclasses.asdict`` otherwise,
    nested containers recurse, and the output is deterministic
    (``sort_keys``) so CI can diff runs textually.
    """
    import dataclasses
    import json

    def convert(obj: Any) -> Any:
        as_dict = getattr(obj, "as_dict", None)
        if callable(as_dict):
            return convert(as_dict())
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                f.name: convert(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            }
        if isinstance(obj, Mapping):
            return {str(k): convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, (str, int, float, bool)) or obj is None:
            return obj
        return str(obj)

    return json.dumps(convert(payload), indent=2, sort_keys=True)


def _fmt_duration(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.0f}µs"


def _fmt_attrs(attrs: Mapping[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return "  {" + inner + "}"


def _event_rollups(events: Iterable[Mapping[str, Any]]) -> List[str]:
    """Aggregate events by (name, reason/family/stage) into count lines."""
    groups: Dict[Tuple, Dict[str, Any]] = {}
    order: List[Tuple] = []
    for ev in events:
        attrs = ev.get("attrs", {})
        key = (
            ev.get("name"),
            attrs.get("reason"),
            attrs.get("family"),
            attrs.get("stage"),
        )
        if key not in groups:
            groups[key] = {"count": 0, "first": attrs}
            order.append(key)
        groups[key]["count"] += 1
    lines = []
    for key in order:
        name, reason, family, stage = key
        qual = "/".join(str(part) for part in (reason, family, stage) if part)
        label = f"{name}[{qual}]" if qual else str(name)
        entry = groups[key]
        suffix = f" ×{entry['count']}" if entry["count"] > 1 else ""
        extras = {
            k: v
            for k, v in entry["first"].items()
            if k not in ("reason", "family", "stage")
        }
        lines.append(f"· {label}{suffix}{_fmt_attrs(extras) if entry['count'] == 1 else ''}")
    return lines


def render_trace_tree(records: Iterable[Mapping[str, Any]]) -> str:
    """Render flat span/event records as an indented tree."""
    records = list(records)
    spans = {r["id"]: r for r in records if r.get("kind") == "span"}
    children: Dict[Optional[int], List[Mapping[str, Any]]] = {}
    for span in spans.values():
        parent = span.get("parent")
        if parent is not None and parent not in spans:
            parent = None  # orphan (ring buffer evicted the parent)
        children.setdefault(parent, []).append(span)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: s.get("t0_us", 0))

    lines: List[str] = []

    def walk(span: Mapping[str, Any], indent: int) -> None:
        pad = "  " * indent
        lines.append(
            f"{pad}{span['name']}  {_fmt_duration(span.get('dur_us', 0))}"
            f"{_fmt_attrs(span.get('attrs', {}))}"
        )
        for ev_line in _event_rollups(span.get("events", ())):
            lines.append(f"{pad}  {ev_line}")
        for child in children.get(span["id"], ()):
            walk(child, indent + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    standalone = [r for r in records if r.get("kind") == "event"]
    if standalone:
        lines.append("events:")
        for ev_line in _event_rollups(standalone):
            lines.append(f"  {ev_line}")
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines)


def render_metrics(snapshot: Mapping[str, Any]) -> str:
    """Render a metrics snapshot as aligned name/value tables."""
    lines: List[str] = []
    counters = snapshot.get("counters", [])
    gauges = snapshot.get("gauges", [])
    histograms = snapshot.get("histograms", [])

    def _rows(entries):
        rows = []
        for entry in entries:
            name = entry["name"] + labels_suffix(entry.get("labels", {}))
            value = entry["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            rows.append((name, shown))
        return rows

    for title, entries in (("counters", counters), ("gauges", gauges)):
        rows = _rows(entries)
        if not rows:
            continue
        lines.append(f"{title}:")
        width = max(len(name) for name, _ in rows)
        for name, shown in rows:
            lines.append(f"  {name:<{width}}  {shown}")
    if histograms:
        lines.append("histograms:")
        for entry in histograms:
            name = entry["name"] + labels_suffix(entry.get("labels", {}))
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            lines.append(f"  {name}  count={count} mean={mean:.6g}")
            cells = [
                f"<={edge:g}: {c}"
                for edge, c in zip(entry["edges"], entry["counts"])
                if c
            ]
            if entry["counts"][-1]:
                cells.append(f">{entry['edges'][-1]:g}: {entry['counts'][-1]}")
            if cells:
                lines.append("    " + " | ".join(cells))
    if not lines:
        lines.append("(empty snapshot)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    out = "".join(ch if (ch.isalnum() and ch.isascii()) or ch == "_" else "_"
                  for ch in name)
    if not out or not (out[0].isalpha() or out[0] == "_"):
        out = "_" + out
    return out


def _prom_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{_prom_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(
    snapshot: Mapping[str, Any], prefix: str = "grm_"
) -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text exposition.

    One ``# TYPE`` line per metric family, then one sample per labeled
    child; histograms expand into cumulative ``_bucket{le="..."}``
    series (ending with the mandatory ``le="+Inf"``), ``_sum``, and
    ``_count``.  Dots in registry names become underscores; label
    values are escaped (backslash, double quote, newline).  The output
    ends with a newline, as scrapers expect.
    """
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def type_line(name: str, kind: str) -> None:
        if seen_types.get(name) != kind:
            seen_types[name] = kind
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = prefix + _prom_name(entry["name"])
        type_line(name, "counter")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_number(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        name = prefix + _prom_name(entry["name"])
        type_line(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_number(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = prefix + _prom_name(entry["name"])
        labels = entry.get("labels", {})
        type_line(name, "histogram")
        cumulative = 0
        for edge, count in zip(entry["edges"], entry["counts"]):
            cumulative += count
            le = f'le="{_prom_number(float(edge))}"'
            lines.append(f"{name}_bucket{_prom_labels(labels, le)} {cumulative}")
        inf_label = 'le="+Inf"'
        lines.append(
            f"{name}_bucket{_prom_labels(labels, inf_label)} {entry['count']}"
        )
        lines.append(
            f"{name}_sum{_prom_labels(labels)} {_prom_number(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_prom_labels(labels)} {entry['count']}"
        )
    return "\n".join(lines) + "\n" if lines else "\n"


def render_top(stats: Mapping[str, Any]) -> str:
    """One frame of the ``grm-match obs top`` live view.

    ``stats`` is the serving ``stats`` payload (windowed section
    included).  Renders the rolling request rate, queue/batching state,
    per-op windowed latency, and the per-tier win-rate table derived
    from the ``serve.match_tier{...}`` counters.
    """
    lines: List[str] = []
    window = stats.get("window", {})
    batching = stats.get("batching", {})
    counters = stats.get("counters", {})
    uptime = stats.get("uptime_seconds", 0.0)
    lines.append(
        f"uptime {uptime:8.1f}s   "
        f"window {window.get('seconds', 0):g}s: "
        f"{window.get('rps', 0.0):8.1f} req/s "
        f"({window.get('requests', 0)} reqs)"
        + ("   DRAINING" if stats.get("draining") else "")
    )
    lines.append(
        f"queue: {stats.get('queued', 0)} queued, "
        f"{stats.get('pending', 0)} pending   "
        f"batches: {batching.get('batches', 0)} "
        f"(mean fill {batching.get('mean_fill', 0.0):.2f}, "
        f"max {batching.get('max_batch', 0)})   "
        f"overloaded: {counters.get('serve.overloaded', 0)}"
    )
    latency = stats.get("latency", {})
    if latency:
        lines.append(f"{'op':<10} {'win n':>7} {'p50':>9} {'p99':>9} "
                     f"{'life n':>8} {'life p99':>9}")
        for op in sorted(latency):
            row = latency[op]
            lines.append(
                f"{op:<10} {row.get('window_count', 0):>7} "
                f"{row.get('p50_ms_est', 0.0):>7.2f}ms "
                f"{row.get('p99_ms_est', 0.0):>7.2f}ms "
                f"{row.get('lifetime_count', 0):>8} "
                f"{row.get('lifetime_p99_ms_est', 0.0):>7.2f}ms"
            )
    tiers = {}
    for key, value in counters.items():
        if key.startswith("serve.match_tier{"):
            label = key[len("serve.match_tier{"):-1]
            tier = dict(
                part.split("=", 1) for part in label.split(",") if "=" in part
            ).get("tier", label)
            tiers[tier] = value
    if tiers:
        total = sum(tiers.values())
        lines.append("match differentiation (per-tier wins):")
        for tier, count in sorted(tiers.items(), key=lambda kv: -kv[1]):
            pct = 100.0 * count / total if total else 0.0
            lines.append(f"  {tier:<14} {count:>8}  {pct:5.1f}%")
    store = stats.get("store")
    if store:
        lines.append(
            f"store: {store.get('dirty', 0)} dirty, "
            f"{store.get('flushes', 0)} flushes"
        )
    return "\n".join(lines)


def render_match_explanation(records: Iterable[Mapping[str, Any]]) -> str:
    """Explain one traced match run from its records.

    Two sections: the per-family signature refinement trail (the variable
    partition after each family's refinement pass — ``refine`` events),
    and the prune summary (``prune`` events grouped by reason and
    signature family, most frequent first).
    """
    events: List[Mapping[str, Any]] = []
    for r in records:
        if r.get("kind") == "span":
            events.extend(r.get("events", ()))
        elif r.get("kind") == "event":
            events.append(r)

    lines: List[str] = []
    refines = [e for e in events if e.get("name") == "refine"]
    if refines:
        lines.append("signature refinement (variable partition after each family):")
        for ev in refines:
            attrs = ev.get("attrs", {})
            blocks = attrs.get("blocks", [])
            shown = " | ".join(
                ",".join(f"x{v}" for v in block) for block in blocks
            )
            mark = "split " if attrs.get("split") else "stable"
            lines.append(f"  {str(attrs.get('family', '?')):<8} {mark} -> {shown}")
    else:
        lines.append(
            "signature refinement: none recorded "
            "(rejected before partition refinement)"
        )
    prunes = [e for e in events if e.get("name") == "prune"]
    if prunes:
        counts: Dict[Tuple[str, str], int] = {}
        for ev in prunes:
            attrs = ev.get("attrs", {})
            key = (str(attrs.get("reason", "?")), str(attrs.get("family") or ""))
            counts[key] = counts.get(key, 0) + 1
        lines.append("prune summary:")
        for (reason, family), count in sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            label = f"{reason}[{family}]" if family else reason
            lines.append(f"  {label:<36} ×{count}")
    else:
        lines.append("prune summary: no prune events")
    return "\n".join(lines)


def render_profile(registry: MetricsRegistry, top: int = 20) -> str:
    """Condense the profiling-hook counters into a top-N timing table."""
    snapshot = registry.snapshot()
    calls: Dict[str, float] = {}
    totals: Dict[str, float] = {}
    for entry in snapshot.get("counters", []):
        name = entry["name"] + labels_suffix(entry.get("labels", {}))
        if name.endswith(".calls"):
            calls[name[: -len(".calls")]] = entry["value"]
        elif name.endswith(".seconds_total"):
            totals[name[: -len(".seconds_total")]] = entry["value"]
    if not totals:
        return "(no timed sections recorded; is observability enabled?)"
    lines = [f"{'section':<40} {'calls':>8} {'total':>10} {'mean':>10}"]
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:top]:
        n = calls.get(name, 0)
        mean = total / n if n else 0.0
        lines.append(f"{name:<40} {n:>8.0f} {total:>9.3f}s {mean * 1e3:>8.3f}ms")
    return "\n".join(lines)


def render_map_accounting(result: Any, top: int = 20) -> str:
    """Per-npn-class accounting table of one mapping run.

    ``result`` is a :class:`repro.aig.MappingResult` (duck-typed here to
    keep :mod:`repro.obs` dependency-free): one row per cut-function
    class, ordered by area contributed to the chosen cover, plus a
    work-summary footer from the mapping stats.
    """
    stats = result.stats
    accounts = sorted(
        result.class_accounts,
        key=lambda a: (-a.area, -a.cut_occurrences, a.n, a.key),
    )
    lines: List[str] = [
        f"{'class':<22} {'cell':<10} {'fns':>5} {'cuts':>6} {'inst':>5} {'area':>8}"
    ]
    for account in accounts[:top]:
        label = f"n={account.n} 0x{account.key:x}"
        if account.quarantined:
            label += " [q]"
        lines.append(
            f"{label:<22} {account.cell or '-':<10} "
            f"{account.distinct_functions:>5} {account.cut_occurrences:>6} "
            f"{account.instances:>5} {account.area:>8.1f}"
        )
    if len(accounts) > top:
        rest = accounts[top:]
        lines.append(
            f"{'... ' + str(len(rest)) + ' more':<22} {'':<10} "
            f"{sum(a.distinct_functions for a in rest):>5} "
            f"{sum(a.cut_occurrences for a in rest):>6} "
            f"{sum(a.instances for a in rest):>5} "
            f"{sum(a.area for a in rest):>8.1f}"
        )
    lines.append(
        f"cuts {stats.cuts_evaluated} -> {stats.distinct_cut_functions} distinct "
        f"({stats.dedup_rate() * 100.0:.1f}% dedup) -> {stats.cut_classes} classes "
        f"({stats.bound_classes} bound, {stats.unbound_classes} unbound, "
        f"{stats.quarantined_classes} quarantined)"
    )
    lines.append(
        f"engine: {stats.engine_canonicalizations} canonicalizations, "
        f"{stats.engine_membership_hits} membership hits, "
        f"{stats.engine_cache_hits} cache hits, {stats.engine_store_hits} store hits; "
        f"{stats.witness_replays} witness replays, {stats.matcher_calls} matcher calls"
    )
    lines.append(
        f"phases: enumerate {stats.enumerate_seconds:.3f}s, "
        f"classify {stats.classify_seconds:.3f}s, bind {stats.bind_seconds:.3f}s"
    )
    return "\n".join(lines)
