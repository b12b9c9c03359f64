"""Corpus-level statistics over extracted scene features.

Covers the per-spot speed tables, PSM distributions by signalization,
stopping percentages against a baseline distance, the size-balanced merge
of per-spot PSM distributions, and the eight sign/quartile PSM ranges
cross-tabulated with stopping behavior.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptySpot,
    IoFailure,
    NoQualifyingScenes,
    OneSidedDistribution,
)
from .features import SceneFeatures

log = logging.getLogger(__name__)


@dataclass
class SpotStats:
    """Speed statistics for one spot, split by scene type."""

    spot_id: str
    scenes_total: int
    scenes_car_only: int
    scenes_interactive: int
    speed_max_kmh: float
    speed_min_kmh: float
    speed_mean_kmh: float
    car_only_mean_kmh: float | None
    interactive_mean_kmh: float | None


def scene_speed_kmh(features: SceneFeatures, reduce: str = "mean") -> float | None:
    """Collapse a scene's speed list to one scalar (mean, or median)."""
    speeds = features.vehicle_speeds_kmh
    if not speeds:
        return None
    if reduce == "median":
        return float(np.median(speeds))
    return float(np.mean(speeds))


def spot_speed_stats(spot_id: str, features: list[SceneFeatures],
                     reduce: str = "mean") -> SpotStats:
    """Max/min/mean of per-scene speeds, overall and by scene type."""
    rows = [(f.interactive, scene_speed_kmh(f, reduce)) for f in features]
    speeds = [s for _, s in rows if s is not None]
    if not speeds:
        raise EmptySpot(f"spot {spot_id} has no scenes with speeds")
    car_only = [s for i, s in rows if s is not None and not i]
    inter = [s for i, s in rows if s is not None and i]
    interactive = sum(1 for f in features if f.interactive)
    return SpotStats(
        spot_id=spot_id,
        scenes_total=len(features),
        scenes_car_only=len(features) - interactive,
        scenes_interactive=interactive,
        speed_max_kmh=max(speeds),
        speed_min_kmh=min(speeds),
        speed_mean_kmh=float(np.mean(speeds)),
        car_only_mean_kmh=float(np.mean(car_only)) if car_only else None,
        interactive_mean_kmh=float(np.mean(inter)) if inter else None,
    )


def qualifying_stop(features: SceneFeatures, baseline_m: float = 10.0) -> bool:
    """Stopped for the pedestrian: stop flag set within the baseline distance."""
    return (features.stopped and features.stop_distance_m is not None
            and features.stop_distance_m <= baseline_m)


def stopping_percentage(features: list[SceneFeatures],
                        baseline_m: float = 10.0) -> tuple[float, int, int]:
    """Share of qualifying interactive scenes where the vehicle stopped
    within the baseline distance of the crosswalk.

    Qualifying means a pedestrian was in the crosswalk or its influence
    area at some frame. Returns (percentage, stopped, qualifying).
    """
    qualifying = [f for f in features if f.interactive and f.ped_in_crossing_area]
    if not qualifying:
        raise NoQualifyingScenes("no interactive scene with a pedestrian "
                                 "in the crosswalk or CIA")
    stopped = sum(1 for f in qualifying if qualifying_stop(f, baseline_m))
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


@dataclass
class PsmDistribution:
    """Weighted PSM samples with their histogram."""

    samples: np.ndarray
    weights: np.ndarray
    bin_edges: np.ndarray
    masses: np.ndarray
    group: str
    spot_weights: dict[str, float] = field(default_factory=dict)
    degenerate: bool = False

    def normalized_masses(self) -> np.ndarray:
        total = self.masses.sum()
        return self.masses / total if total > 0 else self.masses


def _fd_bin_edges(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis edges on the weighted sample.

    The count term uses the number of distinct values so that repeating
    every record leaves the binning unchanged.
    """
    lo, hi = float(samples.min()), float(samples.max())
    if hi <= lo:
        return np.array([lo, lo + 1.0])
    if weights.sum() <= 0:
        # Degenerate all-zero weighting (single-spot merge): bin the raw
        # sample so the zero-mass histogram still has usable edges.
        weights = np.ones_like(weights)
    m = len(np.unique(samples))
    iqr = (weighted_quantile(samples, weights, 0.75)
           - weighted_quantile(samples, weights, 0.25))
    if iqr <= 0:
        bins = max(1, int(math.ceil(math.log2(m) + 1)))
    else:
        width = 2.0 * iqr / m ** (1.0 / 3.0)
        bins = max(1, int(math.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, bins + 1)


def weighted_merge(samples_by_spot: dict[str, list[float]],
                   group: str = "merged",
                   positive_only: bool = False) -> PsmDistribution:
    """Merge per-spot PSM samples with size-balancing weights.

    Each spot's samples carry weight w_i = 1 - n_i/n so that high-traffic
    spots do not drown out the others. Histogram masses stay unnormalized
    (their sum is the weighted sample count); normalize for plotting with
    normalized_masses().
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
        edges = np.array([0.0, 1.0])
        masses = np.zeros(1)
    else:
        edges = _fd_bin_edges(arr, warr)
        masses, _ = np.histogram(arr, bins=edges, weights=warr)
    return PsmDistribution(samples=arr, weights=warr, bin_edges=edges,
                           masses=masses, group=group,
                           spot_weights=spot_weights, degenerate=degenerate)


@dataclass(frozen=True)
class PsmRanges:
    """The eight sign/quartile PSM ranges.

    Ranges 1..4 are the negative side split at its quartiles, 5..8 the
    positive side; range 4 and 5 hug zero and carry the least margin.
    """

    negative_quartiles: tuple[float, float, float]
    positive_quartiles: tuple[float, float, float]

    def boundaries(self) -> list[float]:
        return [-math.inf, *self.negative_quartiles, 0.0,
                *self.positive_quartiles, math.inf]

    def range_of(self, psm_seconds: float) -> int:
        """1-based range index for one PSM value."""
        bounds = self.boundaries()
        for k in range(8):
            if bounds[k] <= psm_seconds < bounds[k + 1]:
                return k + 1
        return 8

    def labels(self) -> list[tuple[float, float]]:
        bounds = self.boundaries()
        return [(bounds[k], bounds[k + 1]) for k in range(8)]


def psm_ranges(merged: PsmDistribution) -> PsmRanges:
    """Split the merged distribution at zero and per-sign quartiles."""
    neg = merged.samples < 0
    pos = merged.samples > 0
    if not neg.any() or not pos.any():
        raise OneSidedDistribution(
            "need both negative and positive PSM samples to build ranges")
    nq = tuple(weighted_quantile(merged.samples[neg], merged.weights[neg], q)
               for q in (0.25, 0.5, 0.75))
    pq = tuple(weighted_quantile(merged.samples[pos], merged.weights[pos], q)
               for q in (0.25, 0.5, 0.75))
    return PsmRanges(negative_quartiles=nq, positive_quartiles=pq)


@dataclass
class PsmRangeTable:
    """Stopping percentage per (PSM range, spot); absent cells mean no
    scene fell in that range for that spot."""

    ranges: PsmRanges
    cells: dict[tuple[int, str], float]
    counts: dict[tuple[int, str], tuple[int, int]]   # (stopped, total)


def stopping_by_psm_range(features_by_spot: dict[str, list[SceneFeatures]],
                          ranges: PsmRanges,
                          signalized_by_spot: dict[str, bool],
                          baseline_m: float = 10.0) -> PsmRangeTable:
    """Cross-tab of stopping behavior against PSM range, unsignalized only.

    Signalized spots are rejected: yielding there follows the signal, not
    the pedestrian.
    """
    for spot in features_by_spot:
        if signalized_by_spot.get(spot, False):
            raise ValueError(f"spot {spot} is signalized; PSM-range analysis "
                             "applies to unsignalized spots only")
    cells: dict[tuple[int, str], float] = {}
    counts: dict[tuple[int, str], tuple[int, int]] = {}
    for spot in sorted(features_by_spot):
        per_range: dict[int, list[SceneFeatures]] = {}
        for f in features_by_spot[spot]:
            if f.psm_seconds is None:
                continue
            per_range.setdefault(ranges.range_of(f.psm_seconds), []).append(f)
        for r, scenes in per_range.items():
            stopped = sum(1 for f in scenes if qualifying_stop(f, baseline_m))
            cells[(r, spot)] = 100.0 * stopped / len(scenes)
            counts[(r, spot)] = (stopped, len(scenes))
    return PsmRangeTable(ranges=ranges, cells=cells, counts=counts)


# --- report files -------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoFailure(f"cannot write report {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(out_dir, stats: list[SpotStats],
                distributions: list[PsmDistribution],
                stopping_rows: list[tuple[str, float, int, int]],
                range_table: PsmRangeTable | None) -> list[Path]:
    """Write the deterministic CSV tables and histogram plot data.

    Output is sorted on every axis so identical inputs produce identical
    bytes. Histogram files are two-column (bin center, mass), one row per
    bin, enough to redraw the distribution figures.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "speed_stats.csv"
    _write_csv(path, ["spot", "max_kmh", "min_kmh", "mean_kmh",
                      "car_only_mean_kmh", "interactive_mean_kmh"],
               [[s.spot_id, _fmt(s.speed_max_kmh), _fmt(s.speed_min_kmh),
                 _fmt(s.speed_mean_kmh), _fmt(s.car_only_mean_kmh),
                 _fmt(s.interactive_mean_kmh)]
                for s in sorted(stats, key=lambda s: s.spot_id)])
    written.append(path)

    path = out / "scene_counts.csv"
    _write_csv(path, ["spot", "scenes", "car_only", "interactive"],
               [[s.spot_id, s.scenes_total, s.scenes_car_only, s.scenes_interactive]
                for s in sorted(stats, key=lambda s: s.spot_id)])
    written.append(path)

    path = out / "stopping_percentage.csv"
    _write_csv(path, ["spot", "qualifying_scenes", "stopped_scenes", "percentage"],
               [[spot, total, stopped, _fmt(pct)]
                for spot, pct, stopped, total in sorted(stopping_rows)])
    written.append(path)

    for dist in sorted(distributions, key=lambda d: d.group):
        centers = (dist.bin_edges[:-1] + dist.bin_edges[1:]) / 2.0
        path = out / f"psm_hist_{dist.group}.csv"
        _write_csv(path, ["bin_center", "mass"],
                   [[_fmt(float(c)), _fmt(float(m))]
                    for c, m in zip(centers, dist.masses)])
        written.append(path)

    path = out / "psm_weights.csv"
    _write_csv(path, ["group", "spot", "weight"],
               [[d.group, spot, _fmt(w)]
                for d in sorted(distributions, key=lambda d: d.group)
                for spot, w in sorted(d.spot_weights.items())])
    written.append(path)

    if range_table is not None:
        path = out / "psm_ranges.csv"
        _write_csv(path, ["range", "lower", "upper"],
                   [[k + 1, _fmt(lo), _fmt(hi)]
                    for k, (lo, hi) in enumerate(range_table.ranges.labels())])
        written.append(path)

        path = out / "stopping_by_psm_range.csv"
        _write_csv(path, ["range", "spot", "scenes", "stopped", "percentage"],
                   [[r, spot, range_table.counts[(r, spot)][1],
                     range_table.counts[(r, spot)][0], _fmt(pct)]
                    for (r, spot), pct in sorted(range_table.cells.items())])
        written.append(path)

    return written
