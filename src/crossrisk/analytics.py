"""Corpus-level statistics over extracted scene features, built directly
as the `analysis.json` record.

Covers the per-spot speed tables, PSM distributions by signalization,
stopping percentages against a baseline distance, the size-balanced merge
of per-spot PSM distributions, and the eight sign/quartile PSM ranges
cross-tabulated with stopping behavior. Each function returns its part of
the record in the layout `analysis.json` holds, or None where a spot or a
distribution gives nothing. `analysis_record` decides which spots form
which group, what gets merged and which shortfalls only leave rows out;
`emit_report` renders its record as the report's files.

Of each scene's feature bundle the analysis reads six values, which
`scene_summary` takes into a `SceneSummary`. The functions take these
summaries, so a reader holds one small summary per scene, not its bundle.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import SceneFeatures
from .ingest import write_file

log = logging.getLogger(__name__)


@dataclass(slots=True)
class SceneSummary:
    """What the analysis reads of one scene's feature bundle: its type, its
    speed (the mean of its speed list, None when empty), whether a
    pedestrian was in the crossing area, its stop flag and distance, and
    its PSM."""

    interactive: bool
    speed_kmh: float | None
    ped_in_crossing_area: bool
    stopped: bool
    stop_distance_m: float | None
    psm_seconds: float | None


def scene_summary(features: SceneFeatures) -> SceneSummary:
    """The summary of one feature bundle."""
    speeds = features.vehicle_speeds_kmh
    return SceneSummary(
        interactive=features.interactive,
        speed_kmh=float(np.mean(speeds)) if speeds else None,
        ped_in_crossing_area=features.ped_in_crossing_area,
        stopped=features.stopped,
        stop_distance_m=features.stop_distance_m,
        psm_seconds=features.psm_seconds)


def spot_speed_stats(spot_id: str, scenes: list[SceneSummary]) -> dict | None:
    """The spot's `stats` row: scene counts by type and the max/min/mean of
    per-scene speeds, overall and by scene type. None when no scene has
    speeds."""
    timed = [s for s in scenes if s.speed_kmh is not None]
    if not timed:
        return None
    speeds = [s.speed_kmh for s in timed]
    car_only = [s.speed_kmh for s in timed if not s.interactive]
    inter = [s.speed_kmh for s in timed if s.interactive]
    interactive = sum(1 for s in scenes if s.interactive)
    return {
        "spot": spot_id,
        "scenes": len(scenes),
        "car_only": len(scenes) - interactive,
        "interactive": interactive,
        "max_kmh": max(speeds),
        "min_kmh": min(speeds),
        "mean_kmh": float(np.mean(speeds)),
        "car_only_mean_kmh": float(np.mean(car_only)) if car_only else None,
        "interactive_mean_kmh": float(np.mean(inter)) if inter else None,
    }


def qualifying_stop(scene: SceneSummary, baseline_m: float) -> bool:
    """Stopped for the pedestrian: stop flag set within the baseline distance."""
    return (scene.stopped and scene.stop_distance_m is not None
            and scene.stop_distance_m <= baseline_m)


def stopping_percentage(scenes: list[SceneSummary], baseline_m: float
                        ) -> tuple[float, int, int] | None:
    """Share of qualifying interactive scenes where the vehicle stopped
    within the baseline distance of the crosswalk.

    Qualifying means a pedestrian was in the crosswalk or its influence
    area at some frame. Returns (percentage, stopped, qualifying), or None
    when no scene qualifies.
    """
    qualifying = [s for s in scenes if s.interactive and s.ped_in_crossing_area]
    if not qualifying:
        return None
    stopped = sum(1 for s in qualifying if qualifying_stop(s, baseline_m))
    return 100.0 * stopped / len(qualifying), stopped, len(qualifying)


# --- weighted distributions and quantiles ------------------------------------


def weighted_quantile(values, weights, q: float) -> float:
    """Inverse of the weighted empirical CDF (smallest value whose
    cumulative weight share reaches q). Exactly invariant under
    duplicating every sample."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.sum() <= 0:
        w = np.ones_like(v)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cdf = np.cumsum(w) / w.sum()
    idx = int(np.searchsorted(cdf, q - 1e-12))
    return float(v[min(idx, len(v) - 1)])


def _fd_bin_edges(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis edges on the weighted sample.

    The count term uses the number of distinct values so that repeating
    every record leaves the binning unchanged.
    """
    lo, hi = float(samples.min()), float(samples.max())
    if hi <= lo:
        return np.array([lo, lo + 1.0])
    m = len(np.unique(samples))
    iqr = (weighted_quantile(samples, weights, 0.75)
           - weighted_quantile(samples, weights, 0.25))
    if iqr <= 0:
        bins = max(1, int(math.ceil(math.log2(m) + 1)))
    else:
        width = 2.0 * iqr / m ** (1.0 / 3.0)
        bins = max(1, int(math.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, bins + 1)


def weighted_merge(samples_by_spot: dict[str, list[float]], group: str,
                   positive_only: bool = False) -> dict:
    """Merge per-spot PSM samples with size-balancing weights, as the
    `analysis.json` distribution entry of `group`.

    Each spot's samples carry weight w_i = 1 - n_i/n so that high-traffic
    spots do not drown out the others. Samples and weights are floats,
    whatever number type they came in as. Histogram masses stay
    unnormalized: their sum is the weighted sample count.
    """
    filtered = {
        spot: [s for s in samples if s is not None
               and (not positive_only or s > 0)]
        for spot, samples in samples_by_spot.items()
    }
    total = sum(len(s) for s in filtered.values())
    spot_weights = {}
    samples: list[float] = []
    weights: list[float] = []
    for spot in sorted(filtered):
        n_i = len(filtered[spot])
        # One division instead of 1 - n/total: algebraically identical,
        # and exact whenever the ratio is representable.
        w_i = (total - n_i) / total if total else 0.0
        spot_weights[spot] = w_i
        samples.extend(filtered[spot])
        weights.extend([w_i] * n_i)

    degenerate = len([s for s in filtered.values() if s]) < 2
    if degenerate:
        log.warning("weighted merge of group %r is degenerate: "
                    "fewer than 2 non-empty spots", group)

    arr = np.asarray(samples, dtype=float)
    warr = np.asarray(weights, dtype=float)
    if arr.size == 0 or warr.sum() == 0:
        edges, masses = [0.0, 1.0], [0.0]
    else:
        bins = _fd_bin_edges(arr, warr)
        edges = bins.tolist()
        masses = np.histogram(arr, bins=bins, weights=warr)[0].tolist()
    return {"group": group, "samples": arr.tolist(), "weights": warr.tolist(),
            "bin_edges": edges, "masses": masses,
            "spot_weights": spot_weights, "degenerate": degenerate}


def psm_ranges(samples, weights) -> dict | None:
    """The eight sign/quartile PSM ranges of a weighted sample, as the
    quartiles of each side of zero (None when a side is empty): ranges
    1..4 split the negative side, 5..8 the positive, and ranges 4 and 5
    hug zero and carry the least margin."""
    s = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    sides = {"negative": s < 0, "positive": s > 0}
    if not all(side.any() for side in sides.values()):
        return None
    return {name: [weighted_quantile(s[side], w[side], q)
                   for q in (0.25, 0.5, 0.75)]
            for name, side in sides.items()}


def range_edges(ranges: dict) -> list[float]:
    """The nine edges of the eight PSM ranges."""
    return [-math.inf, *ranges["negative"], 0.0, *ranges["positive"], math.inf]


def stopping_by_psm_range(scenes_by_spot: dict[str, list[SceneSummary]],
                          ranges: dict, baseline_m: float) -> list[list]:
    """Cross-tab of stopping behavior against PSM range: one sorted
    `[range, spot, scenes, stopped, percentage]` row per (range, spot)
    that holds a scene with a PSM. A PSM falls in the last range whose
    lower edge it reaches, and an infinite or NaN PSM in range 8."""
    edges = range_edges(ranges)
    rows = []
    for spot, scenes in scenes_by_spot.items():
        per_range: dict[int, list[SceneSummary]] = {}
        for s in scenes:
            if s.psm_seconds is not None:
                r = min(bisect_right(edges, s.psm_seconds), 8)
                per_range.setdefault(r, []).append(s)
        for r, hits in per_range.items():
            stopped = sum(1 for s in hits if qualifying_stop(s, baseline_m))
            rows.append([r, spot, len(hits), stopped,
                         100.0 * stopped / len(hits)])
    return sorted(rows)


# --- report files -------------------------------------------------------------


def analysis_record(spots: list[tuple[str, bool, list[SceneSummary]]],
                    baseline_m: float) -> dict:
    """The `analysis.json` record, less its schema, from each spot's
    `(spot_id, signalized, scene summaries)`: every table of the report,
    each list sorted, in the layout `emit_report` renders.

    Signalized and unsignalized spots each merge their positive PSMs into
    one distribution. The PSM ranges and the stopping table come from the
    unsignalized spots alone, since yielding at a signal follows the
    signal, not the pedestrian. A spot without speeds or without
    qualifying scenes, and a one-sided PSM distribution, only leave their
    rows out.
    """
    stats, stopping = [], []
    psm_by_group: dict[str, dict[str, list[float]]] = {
        "signalized": {}, "unsignalized": {}}
    unsignalized = {}
    for spot_id, signalized, scenes in spots:
        row = spot_speed_stats(spot_id, scenes)
        if row is None:
            log.warning("spot %s: no scenes with speeds", spot_id)
        else:
            stats.append(row)
        share = stopping_percentage(scenes, baseline_m)
        if share is not None:
            stopping.append((spot_id, *share))
        group = "signalized" if signalized else "unsignalized"
        psm_by_group[group][spot_id] = [
            s.psm_seconds for s in scenes if s.psm_seconds is not None]
        if not signalized:
            unsignalized[spot_id] = scenes

    distributions = [
        weighted_merge(samples, f"{name}_positive", positive_only=True)
        for name, samples in psm_by_group.items() if any(samples.values())]
    ranges = table = None
    if any(psm_by_group["unsignalized"].values()):
        merged = weighted_merge(psm_by_group["unsignalized"],
                                "unsignalized_weighted")
        distributions.append(merged)
        ranges = psm_ranges(merged["samples"], merged["weights"])
        if ranges is None:
            log.warning("PSM range analysis skipped: one-sided distribution")
        else:
            table = stopping_by_psm_range(unsignalized, ranges, baseline_m)

    return {
        "stats": sorted(stats, key=lambda s: s["spot"]),
        "stopping": sorted(stopping),
        "distributions": sorted(distributions, key=lambda d: d["group"]),
        "ranges": ranges,
        "range_table": table,
    }


def emit_report(out_dir, record: dict) -> list[Path]:
    """Render an `analysis_record`, as built or as read back from
    `analysis.json`, into the report's CSV tables and histogram plot data.

    Rows keep the record's order, which `analysis_record` sorts on every
    axis, and floats are written with `repr`, so one record always gives
    the same bytes. Histogram files are two-column (bin center, mass), one
    row per bin, enough to redraw the distribution figures. Every table is
    laid out before the first file is written, so a record that lacks a
    field writes nothing, and each file is written whole
    (`ingest.write_file`).
    """
    speed = ["spot", "max_kmh", "min_kmh", "mean_kmh",
             "car_only_mean_kmh", "interactive_mean_kmh"]
    counts = ["spot", "scenes", "car_only", "interactive"]
    tables = [
        ("speed_stats.csv", speed,
         [[s[k] for k in speed] for s in record["stats"]]),
        ("scene_counts.csv", counts,
         [[s[k] for k in counts] for s in record["stats"]]),
        ("stopping_percentage.csv",
         ["spot", "qualifying_scenes", "stopped_scenes", "percentage"],
         [[spot, total, stopped, pct]
          for spot, pct, stopped, total in record["stopping"]]),
    ]
    for d in record["distributions"]:
        edges = d["bin_edges"]
        tables.append((f"psm_hist_{d['group']}.csv", ["bin_center", "mass"],
                       [[(lo + hi) / 2.0, m]
                        for lo, hi, m in zip(edges, edges[1:], d["masses"])]))
    tables.append(("psm_weights.csv", ["group", "spot", "weight"],
                   [[d["group"], spot, w] for d in record["distributions"]
                    for spot, w in sorted(d["spot_weights"].items())]))
    if record["ranges"] is not None:
        bounds = range_edges(record["ranges"])
        tables.append(("psm_ranges.csv", ["range", "lower", "upper"],
                       [[k + 1, lo, hi] for k, (lo, hi)
                        in enumerate(zip(bounds, bounds[1:]))]))
        tables.append(("stopping_by_psm_range.csv",
                       ["range", "spot", "scenes", "stopped", "percentage"],
                       record["range_table"]))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        csv.writer(text := io.StringIO()).writerows([header, *rows])
        write_file(out / name, [text.getvalue()])
    return [out / name for name, _, _ in tables]
