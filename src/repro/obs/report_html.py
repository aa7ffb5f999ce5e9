"""``repro report``: telemetry JSONL → static self-contained HTML dashboard.

Stdlib only, inline SVG, no scripts: the file renders anywhere a browser
does, including artifact viewers.  Panels:

* stat tiles — run-level rollups (horizon, delivered/abandoned bytes,
  retries, peak utilization, mean estimator error);
* per-link utilization heatmap (time-bucketed, fault windows underlined);
* per-site stage Gantt (map/reduce lanes, fault windows shaded);
* estimator-error curve (signed relative error per direction);
* cumulative delivered vs. abandoned WAN bytes;
* per-query critical-path stacked bars (queue/slot/map/WAN serial/WAN
  contention/reduce, from :mod:`repro.obs.critpath`), for batch and
  serve archives alike;
* serve archives add two more: the tenant x tenant contention blame
  heatmap and the per-tenant SLO burn-rate timeline (``slo-window``
  events).

Visual conventions follow the repo-wide chart method: categorical hues in
fixed order (blue, orange), one-hue sequential ramp for magnitude, status
colors reserved for faults, text always in ink tokens, hairline
gridlines, a legend whenever two series share a plot, and a data table
behind every panel.  Dark mode re-steps the same ramps against the dark
surface (the sequential ramp reverses so "near zero" still recedes).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.critpath import analyze_critical_paths
from repro.obs.series import (
    TimeSeries,
    cumulative_bytes,
    estimator_error_series,
    fault_windows,
    link_utilization,
    mean_abs_estimator_error,
    rollup,
    sim_horizon,
    site_busy_fraction,
    stage_intervals,
)
from repro.obs.telemetry import TelemetryEvent

# Sequential blue ramp, light surface, steps 100..700 (light → dark).
_SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

_PLOT_W = 760
_LABEL_W = 150
_WIDTH = _LABEL_W + _PLOT_W + 30
_HEAT_BUCKETS = 60

_FAULT_STATUS = {
    "link-blackout": "critical",
    "site-outage": "critical",
    "link-degrade": "serious",
    "transfer-stall": "serious",
    "straggler": "serious",
    "task-failure": "serious",
}


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt_bytes(value: float) -> str:
    magnitude = abs(value)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if magnitude < 1024.0 or unit == "TB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024.0
        magnitude /= 1024.0
    return f"{value:,.1f} TB"


def _fmt_seconds(value: float) -> str:
    if value >= 3600:
        return f"{value / 3600:.2f} h"
    if value >= 60:
        return f"{value / 60:.2f} min"
    if value >= 1:
        return f"{value:.2f} s"
    return f"{value * 1000:.1f} ms"


def _fmt_pct(value: float) -> str:
    return f"{value * 100:.1f}%"


def _seq_index(value: float) -> int:
    clamped = min(1.0, max(0.0, value))
    return round(clamped * (len(_SEQ_RAMP) - 1))


def _time_ticks(horizon: float, count: int = 5) -> List[float]:
    if horizon <= 0:
        return [0.0]
    return [horizon * index / count for index in range(count + 1)]


# ----------------------------------------------------------------------
# panels
# ----------------------------------------------------------------------


def _stat_tiles(events: Sequence[TelemetryEvent]) -> str:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    horizon = sim_horizon(events)
    delivered, abandoned = cumulative_bytes(events)
    utilization = link_utilization(events)
    peak = max(
        (rollup(series)["p99"] for series in utilization.values()), default=0.0
    )
    error = mean_abs_estimator_error(events)
    busy = site_busy_fraction(events, horizon)
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    tiles = [
        ("Sim horizon", _fmt_seconds(horizon)),
        (
            "Queries",
            f"{counts.get('query-finish', 0)}"
            + (
                f" ({counts.get('query-abort', 0)} aborted)"
                if counts.get("query-abort")
                else ""
            ),
        ),
        ("Delivered WAN", _fmt_bytes(delivered[-1][1] if delivered else 0.0)),
        ("Abandoned", _fmt_bytes(abandoned[-1][1] if abandoned else 0.0)),
        ("p99 link utilization", _fmt_pct(peak)),
        ("Mean site busy", _fmt_pct(mean_busy)),
        ("Retries", str(counts.get("retry", 0))),
        (
            "Mean |estimator error|",
            "–" if error is None else _fmt_pct(error),
        ),
    ]
    cells = "".join(
        '<div class="tile"><div class="tile-label">{label}</div>'
        '<div class="tile-value">{value}</div></div>'.format(
            label=_esc(label), value=_esc(value)
        )
        for label, value in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _fault_legend(windows: List[Dict]) -> str:
    if not windows:
        return ""
    kinds = sorted({window["fault"] for window in windows})
    chips = "".join(
        '<span class="chip"><span class="swatch status-{status}"></span>'
        "⚠ {kind}</span>".format(
            status=_FAULT_STATUS.get(kind, "serious"), kind=_esc(kind)
        )
        for kind in kinds
    )
    return f'<div class="legend">{chips}</div>'


def _heatmap_panel(events: Sequence[TelemetryEvent]) -> str:
    utilization = link_utilization(events)
    if not utilization:
        return "<p class='empty'>No link-sample events (no WAN traffic recorded).</p>"
    horizon = max(series.end for series in utilization.values())
    links = sorted(utilization)
    windows = fault_windows(events)
    row_h, gap = 18, 2
    top, bottom = 8, 28
    height = top + len(links) * (row_h + gap) + bottom
    cell_w = _PLOT_W / _HEAT_BUCKETS
    parts: List[str] = [
        f'<svg viewBox="0 0 {_WIDTH} {height}" role="img" '
        f'aria-label="Per-link utilization heatmap">'
    ]
    rows_data: List[Tuple[str, List[float]]] = []
    for row, (site, direction) in enumerate(links):
        series = utilization[(site, direction)]
        values = series.bucketed(_HEAT_BUCKETS, end=horizon)
        label = f"{site} {'↑' if direction == 'up' else '↓'}{direction}"
        rows_data.append((label, values))
        y = top + row * (row_h + gap)
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{y + row_h - 5}" '
            f'text-anchor="end" class="axis-label">{_esc(label)}</text>'
        )
        for bucket, value in enumerate(values):
            x = _LABEL_W + bucket * cell_w
            t_lo = horizon * bucket / _HEAT_BUCKETS
            title = (
                f"{label} · {_fmt_seconds(t_lo)}–"
                f"{_fmt_seconds(horizon * (bucket + 1) / _HEAT_BUCKETS)} · "
                f"{_fmt_pct(value)}"
            )
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(cell_w - 1, 1):.2f}" '
                f'height="{row_h}" class="q{_seq_index(value)}">'
                f"<title>{_esc(title)}</title></rect>"
            )
        # Fault windows touching this link's site: a status underline.
        for window in windows:
            if window["site"] != site or window["fault"] not in (
                "link-degrade",
                "link-blackout",
                "transfer-stall",
                "site-outage",
            ):
                continue
            start = min(window["start"], horizon)
            end = window["end"] if window["end"] is not None else horizon
            end = min(end, horizon)
            if end <= start or horizon <= 0:
                continue
            x0 = _LABEL_W + _PLOT_W * start / horizon
            x1 = _LABEL_W + _PLOT_W * end / horizon
            status = _FAULT_STATUS.get(window["fault"], "serious")
            title = (
                f"⚠ {window['fault']} @ {site} · "
                f"{_fmt_seconds(start)}–{_fmt_seconds(end)}"
            )
            parts.append(
                f'<rect x="{x0:.2f}" y="{y + row_h - 3}" '
                f'width="{max(x1 - x0, 2):.2f}" height="3" '
                f'class="status-{status}"><title>{_esc(title)}</title></rect>'
            )
    axis_y = top + len(links) * (row_h + gap) + 14
    for tick in _time_ticks(horizon):
        x = _LABEL_W + (_PLOT_W * tick / horizon if horizon > 0 else 0)
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y}" text-anchor="middle" '
            f'class="axis-label">{_esc(_fmt_seconds(tick))}</text>'
        )
    parts.append("</svg>")
    scale = "".join(
        f'<span class="swatch q{index}"></span>'
        for index in range(0, len(_SEQ_RAMP), 2)
    )
    parts.append(
        f'<div class="legend"><span class="chip">0% {scale} 100%+ of '
        "effective capacity</span></div>"
    )
    table_rows = "".join(
        "<tr><td>{label}</td><td>{mean}</td><td>{p50}</td><td>{p99}</td>"
        "<td>{peak}</td></tr>".format(
            label=_esc(f"{site} {direction}"),
            mean=_fmt_pct(stats["mean"]),
            p50=_fmt_pct(stats["p50"]),
            p99=_fmt_pct(stats["p99"]),
            peak=_fmt_pct(stats["max"]),
        )
        for (site, direction), stats in sorted(
            (link, rollup(series)) for link, series in utilization.items()
        )
    )
    parts.append(
        "<details><summary>Data table</summary><table>"
        "<tr><th>Link</th><th>Mean</th><th>p50</th><th>p99</th><th>Max</th></tr>"
        f"{table_rows}</table></details>"
    )
    return "".join(parts)


def _gantt_panel(events: Sequence[TelemetryEvent]) -> str:
    intervals = stage_intervals(events)
    if not intervals:
        return "<p class='empty'>No stage-finish events.</p>"
    horizon = max(
        sim_horizon(events), max(interval["end"] for interval in intervals)
    )
    sites = sorted({interval["site"] for interval in intervals})
    windows = fault_windows(events)
    lane_h, bar_h, gap = 26, 9, 4
    top, bottom = 8, 28
    height = top + len(sites) * (lane_h + gap) + bottom

    def x_of(t: float) -> float:
        return _LABEL_W + (_PLOT_W * min(t, horizon) / horizon if horizon > 0 else 0)

    parts = [
        f'<svg viewBox="0 0 {_WIDTH} {height}" role="img" '
        f'aria-label="Stage Gantt per site">'
    ]
    for tick in _time_ticks(horizon):
        x = x_of(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" '
            f'y2="{height - bottom}" class="grid"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - 10}" text-anchor="middle" '
            f'class="axis-label">{_esc(_fmt_seconds(tick))}</text>'
        )
    for row, site in enumerate(sites):
        y = top + row * (lane_h + gap)
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{y + lane_h / 2 + 4}" '
            f'text-anchor="end" class="axis-label">{_esc(site)}</text>'
        )
        for window in windows:
            if window["site"] != site:
                continue
            end = window["end"] if window["end"] is not None else horizon
            x0, x1 = x_of(window["start"]), x_of(end)
            status = _FAULT_STATUS.get(window["fault"], "serious")
            title = (
                f"⚠ {window['fault']} @ {site} · "
                f"{_fmt_seconds(window['start'])}–{_fmt_seconds(end)}"
            )
            parts.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{max(x1 - x0, 2):.2f}" '
                f'height="{lane_h}" class="status-{status} fault-wash">'
                f"<title>{_esc(title)}</title></rect>"
            )
        for stage, offset, css in (("map", 2, "series-1"), ("reduce", 14, "series-2")):
            for interval in intervals:
                if interval["site"] != site or interval["stage"] != stage:
                    continue
                x0 = x_of(interval["start"])
                x1 = x_of(interval["end"])
                title = (
                    f"{stage}@{site} ({interval['job']}) · "
                    f"{_fmt_seconds(interval['start'])}–"
                    f"{_fmt_seconds(interval['end'])}"
                )
                parts.append(
                    f'<rect x="{x0:.2f}" y="{y + offset}" rx="2" '
                    f'width="{max(x1 - x0, 2):.2f}" height="{bar_h}" '
                    f'class="{css}"><title>{_esc(title)}</title></rect>'
                )
    parts.append("</svg>")
    parts.append(
        '<div class="legend">'
        '<span class="chip"><span class="swatch series-1"></span>map</span>'
        '<span class="chip"><span class="swatch series-2"></span>reduce</span>'
        "</div>"
    )
    parts.append(_fault_legend(windows))
    table_rows = "".join(
        "<tr><td>{site}</td><td>{busy}</td></tr>".format(
            site=_esc(site), busy=_fmt_pct(fraction)
        )
        for site, fraction in sorted(site_busy_fraction(events, horizon).items())
    )
    parts.append(
        "<details><summary>Data table</summary><table>"
        "<tr><th>Site</th><th>Busy fraction</th></tr>"
        f"{table_rows}</table></details>"
    )
    return "".join(parts)


def _line_chart(
    series: Dict[str, List[Tuple[float, float]]],
    colors: Dict[str, str],
    y_label: str,
    y_format,
    aria: str,
    step: bool = False,
    zero_line: bool = True,
) -> str:
    points_all = [point for points in series.values() for point in points]
    if not points_all:
        return f"<p class='empty'>No {_esc(aria)} data.</p>"
    x_max = max(x for x, _ in points_all) or 1.0
    y_min = min(0.0, min(y for _, y in points_all))
    y_max = max(y for _, y in points_all)
    if y_max <= y_min:
        y_max = y_min + 1.0
    pad = (y_max - y_min) * 0.08
    y_min -= pad
    y_max += pad
    top, bottom, height = 10, 30, 220
    plot_h = height - top - bottom

    def sx(x: float) -> float:
        return _LABEL_W + _PLOT_W * x / x_max

    def sy(y: float) -> float:
        return top + plot_h * (1 - (y - y_min) / (y_max - y_min))

    parts = [
        f'<svg viewBox="0 0 {_WIDTH} {height}" role="img" aria-label="{_esc(aria)}">'
    ]
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = y_min + fraction * (y_max - y_min)
        y = sy(value)
        parts.append(
            f'<line x1="{_LABEL_W}" y1="{y:.2f}" x2="{_LABEL_W + _PLOT_W}" '
            f'y2="{y:.2f}" class="grid"/>'
        )
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'class="axis-label">{_esc(y_format(value))}</text>'
        )
    if zero_line and y_min < 0 < y_max:
        y = sy(0.0)
        parts.append(
            f'<line x1="{_LABEL_W}" y1="{y:.2f}" x2="{_LABEL_W + _PLOT_W}" '
            f'y2="{y:.2f}" class="baseline"/>'
        )
    for tick in _time_ticks(x_max):
        parts.append(
            f'<text x="{sx(tick):.2f}" y="{height - 8}" text-anchor="middle" '
            f'class="axis-label">{_esc(_fmt_seconds(tick))}</text>'
        )
    for name in sorted(series):
        points = sorted(series[name])
        if not points:
            continue
        css = colors[name]
        path: List[str] = []
        previous_y: Optional[float] = None
        for x, y in points:
            if not path:
                path.append(f"M{sx(x):.2f},{sy(y):.2f}")
            elif step and previous_y is not None:
                path.append(f"L{sx(x):.2f},{sy(previous_y):.2f}")
                path.append(f"L{sx(x):.2f},{sy(y):.2f}")
            else:
                path.append(f"L{sx(x):.2f},{sy(y):.2f}")
            previous_y = y
        parts.append(
            f'<path d="{" ".join(path)}" fill="none" '
            f'class="line {css}"/>'
        )
        last_x, last_y = points[-1]
        parts.append(
            f'<circle cx="{sx(last_x):.2f}" cy="{sy(last_y):.2f}" r="4" '
            f'class="dot {css}"><title>'
            f"{_esc(name)}: {_esc(y_format(last_y))} at "
            f"{_esc(_fmt_seconds(last_x))}</title></circle>"
        )
    parts.append("</svg>")
    if len(series) >= 2:
        chips = "".join(
            '<span class="chip"><span class="swatch {css}"></span>{name}</span>'.format(
                css=colors[name], name=_esc(name)
            )
            for name in sorted(series)
        )
        parts.append(f'<div class="legend">{chips}</div>')
    parts.append(f'<div class="y-title">{_esc(y_label)}</div>')
    return "".join(parts)


def _estimator_panel(events: Sequence[TelemetryEvent]) -> str:
    series = estimator_error_series(events)
    if not series:
        return (
            "<p class='empty'>No estimator-sample events with a truth oracle "
            "(runs without data movement record none).</p>"
        )
    named = {
        f"{direction}link estimate": points for direction, points in series.items()
    }
    colors = {
        name: "series-1" if name.startswith("up") else "series-2"
        for name in named
    }
    chart = _line_chart(
        named,
        colors,
        y_label="signed relative error (estimate vs. true capacity)",
        y_format=_fmt_pct,
        aria="Estimator error over time",
    )
    error = mean_abs_estimator_error(events)
    summary = (
        f"<p class='note'>Mean absolute relative error: "
        f"<strong>{_fmt_pct(error)}</strong> over "
        f"{sum(len(points) for points in series.values())} samples.</p>"
        if error is not None
        else ""
    )
    table_rows = "".join(
        "<tr><td>{name}</td><td>{count}</td><td>{mean}</td></tr>".format(
            name=_esc(direction),
            count=len(points),
            mean=_fmt_pct(
                sum(abs(err) for _, err in points) / len(points)
            ),
        )
        for direction, points in sorted(series.items())
    )
    table = (
        "<details><summary>Data table</summary><table>"
        "<tr><th>Direction</th><th>Samples</th><th>Mean |error|</th></tr>"
        f"{table_rows}</table></details>"
    )
    return chart + summary + table


def _bytes_panel(events: Sequence[TelemetryEvent]) -> str:
    delivered, abandoned = cumulative_bytes(events)
    series: Dict[str, List[Tuple[float, float]]] = {}
    if delivered:
        series["delivered"] = delivered
    if abandoned:
        series["abandoned"] = abandoned
    if not series:
        return "<p class='empty'>No WAN flow completions recorded.</p>"
    colors = {"delivered": "series-1", "abandoned": "series-2"}
    chart = _line_chart(
        series,
        colors,
        y_label="cumulative WAN bytes",
        y_format=_fmt_bytes,
        aria="Cumulative delivered vs abandoned bytes",
        step=True,
        zero_line=False,
    )
    total_delivered = delivered[-1][1] if delivered else 0.0
    total_abandoned = abandoned[-1][1] if abandoned else 0.0
    note = (
        f"<p class='note'>Delivered <strong>{_fmt_bytes(total_delivered)}</strong>"
        + (
            f", abandoned <strong>{_fmt_bytes(total_abandoned)}</strong> "
            "after retry exhaustion."
            if total_abandoned
            else "; nothing abandoned."
        )
        + "</p>"
    )
    return chart + note


#: Critical-path component -> (label, CSS class); stacked in path order.
_CRIT_STYLES = (
    ("queue_wait", "queue", "q3"),
    ("slot_wait", "slot", "q6"),
    ("map_seconds", "map", "series-1"),
    ("wan_serial", "wan serial", "series-3"),
    ("wan_contention", "wan contention", "status-serious"),
    ("reduce_seconds", "reduce", "series-2"),
    ("cached_seconds", "cache", "q1"),
)

#: Rows shown in the per-query stacked-bar panel (longest QCT first).
_CRIT_MAX_ROWS = 40


def _critpath_panel(crit) -> str:
    if not crit.paths:
        return "<p class='empty'>No finished queries in the stream.</p>"
    ranked = sorted(crit.paths, key=lambda path: (-path.qct, path.index))
    shown = ranked[:_CRIT_MAX_ROWS]
    longest = max(path.qct for path in shown) or 1.0
    row_h, gap = 14, 3
    top, bottom = 8, 10
    height = top + len(shown) * (row_h + gap) + bottom
    parts = [
        f'<svg viewBox="0 0 {_WIDTH} {height}" role="img" '
        f'aria-label="Per-query critical-path stacked bars">'
    ]
    for row, path in enumerate(shown):
        y = top + row * (row_h + gap)
        label = f"q{path.index} · {path.tenant}"
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{y + row_h - 3}" '
            f'text-anchor="end" class="axis-label">{_esc(label)}</text>'
        )
        x = float(_LABEL_W)
        for name, title_label, css in _CRIT_STYLES:
            seconds = getattr(path, name)
            width = _PLOT_W * seconds / longest
            if width <= 0.0:
                continue
            title = (
                f"{label} · {title_label} {_fmt_seconds(seconds)} of "
                f"{_fmt_seconds(path.qct)} qct ({path.bound}-bound)"
            )
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(width, 0.5):.2f}" '
                f'height="{row_h}" class="{css}">'
                f"<title>{_esc(title)}</title></rect>"
            )
            x += width
    parts.append("</svg>")
    chips = "".join(
        '<span class="chip"><span class="swatch {css}"></span>{label}</span>'.format(
            css=css, label=_esc(label)
        )
        for _name, label, css in _CRIT_STYLES
    )
    parts.append(f'<div class="legend">{chips}</div>')
    if len(ranked) > len(shown):
        parts.append(
            f"<p class='note'>Showing the {len(shown)} longest of "
            f"{len(ranked)} queries.</p>"
        )
    totals = crit.component_totals()
    table_rows = "".join(
        "<tr><td>{label}</td><td>{value}</td></tr>".format(
            label=_esc(label), value=_fmt_seconds(totals[name])
        )
        for name, label, _css in _CRIT_STYLES
    )
    parts.append(
        "<details><summary>Component totals (all queries, max residual "
        f"{crit.max_residual():.2e} s)</summary><table>"
        "<tr><th>Component</th><th>Total</th></tr>"
        f"{table_rows}</table></details>"
    )
    return "".join(parts)


def _blame_panel(crit) -> str:
    if not crit.blame:
        return (
            "<p class='empty'>No contention to attribute (no slot waits or "
            "contended WAN segments).</p>"
        )
    tenants = crit.tenants
    peak = max(
        seconds for culprits in crit.blame.values() for seconds in culprits.values()
    ) or 1.0
    cell, gap = 34, 3
    top = 26
    height = top + len(tenants) * (cell + gap) + 10
    parts = [
        f'<svg viewBox="0 0 {_WIDTH} {height}" role="img" '
        f'aria-label="Tenant contention blame heatmap">'
    ]
    for column, culprit in enumerate(tenants):
        x = _LABEL_W + column * (cell + gap) + cell / 2
        parts.append(
            f'<text x="{x:.2f}" y="{top - 8}" text-anchor="middle" '
            f'class="axis-label">{_esc(culprit)}</text>'
        )
    for row, victim in enumerate(tenants):
        y = top + row * (cell + gap)
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{y + cell / 2 + 4}" '
            f'text-anchor="end" class="axis-label">{_esc(victim)}</text>'
        )
        for column, culprit in enumerate(tenants):
            seconds = crit.blame.get(victim, {}).get(culprit, 0.0)
            x = _LABEL_W + column * (cell + gap)
            title = (
                f"{victim} delayed {_fmt_seconds(seconds)} by {culprit}"
                if seconds
                else f"{victim}: no delay attributed to {culprit}"
            )
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" rx="3" '
                f'class="q{_seq_index(seconds / peak)}">'
                f"<title>{_esc(title)}</title></rect>"
            )
    parts.append("</svg>")
    scale = "".join(
        f'<span class="swatch q{index}"></span>'
        for index in range(0, len(_SEQ_RAMP), 2)
    )
    parts.append(
        f'<div class="legend"><span class="chip">0 s {scale} '
        f"{_fmt_seconds(peak)}</span>"
        "<span class='chip'>rows: delayed tenant · columns: blamed "
        "tenant</span></div>"
    )
    table_rows = "".join(
        "<tr><td>{victim}</td><td>{culprit}</td><td>{seconds}</td></tr>".format(
            victim=_esc(victim), culprit=_esc(culprit),
            seconds=_fmt_seconds(crit.blame[victim][culprit]),
        )
        for victim in sorted(crit.blame)
        for culprit in sorted(crit.blame[victim])
    )
    parts.append(
        "<details><summary>Data table</summary><table>"
        "<tr><th>Delayed tenant</th><th>Blamed tenant</th><th>Seconds</th></tr>"
        f"{table_rows}</table></details>"
    )
    return "".join(parts)


def _burn_panel(events: Sequence[TelemetryEvent]) -> str:
    series: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        if event.kind != "slo-window":
            continue
        tenant = str(event.attrs.get("tenant", ""))
        series.setdefault(tenant, []).append(
            (float(event.t or 0.0), float(event.attrs.get("burn_rate", 0.0)))
        )
    if not series:
        return (
            "<p class='empty'>No slo-window events (record one with "
            "<code>repro serve --slo TENANT=TARGET --telemetry FILE</code>).</p>"
        )
    palette = ("series-1", "series-2", "series-3")
    colors = {
        name: palette[index % len(palette)]
        for index, name in enumerate(sorted(series))
    }
    chart = _line_chart(
        series,
        colors,
        y_label="burn rate (violation rate ÷ error budget; 1x = on budget)",
        y_format=lambda value: f"{value:.1f}x",
        aria="SLO burn rate per tenant over time",
        step=True,
    )
    worst = max(
        (burn, tenant)
        for tenant, points in series.items()
        for _t, burn in points
    )
    note = (
        f"<p class='note'>Worst window: <strong>{_esc(worst[1])}</strong> "
        f"burned budget at <strong>{worst[0]:.1f}x</strong>.</p>"
    )
    return chart + note


def _event_summary(events: Sequence[TelemetryEvent]) -> str:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    rows = "".join(
        f"<tr><td>{_esc(kind)}</td><td>{count}</td></tr>"
        for kind, count in sorted(counts.items())
    )
    return (
        "<details><summary>Event stream summary "
        f"({len(events)} events)</summary><table>"
        "<tr><th>Kind</th><th>Count</th></tr>"
        f"{rows}</table></details>"
    )


# ----------------------------------------------------------------------
# page assembly
# ----------------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --status-critical: #d03b3b; --status-serious: #ec835a;
  --seq-0:#cde2fb; --seq-1:#b7d3f6; --seq-2:#9ec5f4; --seq-3:#86b6ef;
  --seq-4:#6da7ec; --seq-5:#5598e7; --seq-6:#3987e5; --seq-7:#2a78d6;
  --seq-8:#256abf; --seq-9:#1c5cab; --seq-10:#184f95; --seq-11:#104281;
  --seq-12:#0d366b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    /* sequential reverses so near-zero recedes into the dark surface */
    --seq-0:#0d366b; --seq-1:#104281; --seq-2:#184f95; --seq-3:#1c5cab;
    --seq-4:#256abf; --seq-5:#2a78d6; --seq-6:#3987e5; --seq-7:#5598e7;
    --seq-8:#6da7ec; --seq-9:#86b6ef; --seq-10:#9ec5f4; --seq-11:#b7d3f6;
    --seq-12:#cde2fb;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
.subtitle { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 16px; margin-bottom: 20px;
}
svg { width: 100%; height: auto; display: block; }
.tiles { display: grid; grid-template-columns: repeat(4, 1fr); gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 14px;
}
.tile-label { font-size: 11px; color: var(--text-secondary);
  text-transform: uppercase; letter-spacing: 0.04em; }
.tile-value { font-size: 22px; margin-top: 4px; color: var(--text-primary); }
.axis-label { font-size: 10px; fill: var(--text-muted); }
.grid { stroke: var(--grid); stroke-width: 1; }
.baseline { stroke: var(--baseline); stroke-width: 1; }
.line { stroke-width: 2; }
.line.series-1 { stroke: var(--series-1); }
.line.series-2 { stroke: var(--series-2); }
.line.series-3 { stroke: var(--series-3); }
.dot.series-1 { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.dot.series-2 { fill: var(--series-2); stroke: var(--surface-1); stroke-width: 2; }
.dot.series-3 { fill: var(--series-3); stroke: var(--surface-1); stroke-width: 2; }
rect.series-1 { fill: var(--series-1); }
rect.series-2 { fill: var(--series-2); }
rect.series-3 { fill: var(--series-3); }
rect.status-critical { fill: var(--status-critical); }
rect.status-serious { fill: var(--status-serious); }
.fault-wash { opacity: 0.16; }
.legend { margin-top: 8px; font-size: 12px; color: var(--text-secondary); }
.chip { margin-right: 16px; white-space: nowrap; }
.swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 4px; vertical-align: baseline;
}
.swatch.series-1 { background: var(--series-1); }
.swatch.series-2 { background: var(--series-2); }
.swatch.series-3 { background: var(--series-3); }
.swatch.status-serious { background: var(--status-serious); }
.swatch.status-critical { background: var(--status-critical); }
""" + "".join(
    f".q{i} {{ fill: var(--seq-{i}); }} .swatch.q{i} {{ background: var(--seq-{i}); }}\n"
    for i in range(len(_SEQ_RAMP))
) + """
.y-title { font-size: 11px; color: var(--text-muted); margin-top: 4px; }
.note { font-size: 13px; color: var(--text-secondary); }
.empty { font-size: 13px; color: var(--text-muted); font-style: italic; }
details { margin-top: 10px; font-size: 12px; color: var(--text-secondary); }
summary { cursor: pointer; }
table { border-collapse: collapse; margin-top: 8px;
  font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 3px 14px 3px 0;
  border-bottom: 1px solid var(--grid); font-weight: normal; }
th { color: var(--text-muted); font-size: 11px; text-transform: uppercase; }
"""


def render_report(
    events: Sequence[TelemetryEvent],
    title: str = "repro telemetry report",
    source: str = "",
) -> str:
    """Render the dashboard for one telemetry event stream."""
    subtitle = (
        f"{len(events)} events · sim horizon "
        f"{_fmt_seconds(sim_horizon(events))}"
        + (f" · {source}" if source else "")
    )
    crit = analyze_critical_paths(events)
    sections = [
        ("", _stat_tiles(events)),
        ("Per-link utilization", _heatmap_panel(events)),
        ("Stage Gantt", _gantt_panel(events)),
        ("Bandwidth-estimator error", _estimator_panel(events)),
        ("Delivered vs. abandoned WAN bytes", _bytes_panel(events)),
        ("Per-query critical path", _critpath_panel(crit)),
        ("Contention blame (tenant × tenant)", _blame_panel(crit)),
        ("SLO burn rate", _burn_panel(events)),
        ("", _event_summary(events)),
    ]
    body = "".join(
        (f"<h2>{_esc(heading)}</h2>" if heading else "")
        + (f'<div class="panel">{content}</div>' if heading else content)
        for heading, content in sections
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">{_esc(subtitle)}</p>\n'
        f"{body}\n"
        "</body></html>\n"
    )


def write_report(
    events: Sequence[TelemetryEvent],
    path: str,
    title: str = "repro telemetry report",
    source: str = "",
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(events, title=title, source=source))
