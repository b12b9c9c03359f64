"""Scene-level behavioral features from tracked trajectories.

For every scene the pipeline derives ten features: vehicle speed,
position-zone, acceleration-state, and crosswalk-distance lists plus a
stop flag; pedestrian speed and zone lists; and for vehicle-pedestrian
pairs the per-frame distance list, relative position list, and the
pedestrian safety margin (PSM).

PSM is the signed time gap between the pedestrian's and the vehicle's
arrivals at their paths' conflict point, positive when the pedestrian got
there first. The conflict point is located by a sign-change scan: each
pedestrian step spans a line, and a vehicle step whose endpoints fall on
opposite sides of that line crosses it. The candidate only counts when the
line intersection actually lies within the pedestrian's step, otherwise
every step of a straight walk would match the same vehicle crossing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConflict, ZeroHeading
from .geometry import Calibration
from .ingest import SpotConfig, _integer, _real
from .tracker import Trajectory

MPS_TO_KMH = 3.6

FRONT = "Front"
BEHIND = "Behind"
ACC = "acc"
DEC = "dec"
NC = "nc"


class VehicleZone(enum.Enum):
    BEFORE = "before crosswalk"
    ON = "on crosswalk"
    AFTER = "after crosswalk"


class PedestrianZone(enum.Enum):
    SIDEWALK = "sidewalk"
    CROSSWALK = "crosswalk"
    CIA = "CIA"
    ROAD = "road"


@dataclass(frozen=True)
class FeatureParams:
    """Tunables for feature extraction."""

    alpha: float = 0.3                # low-pass smoothing factor
    epsilon_kmh: float = 0.5          # acceleration dead-band per step
    stop_tolerance_kmh: float = 2.0
    stop_min_steps: int = 3

    def __post_init__(self):
        """Each field checked, not coerced: TypeError for a value of the
        wrong type (a bool is not a number), ValueError out of range."""
        if not 0 < _real(self.alpha, "alpha") <= 1:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("epsilon_kmh", "stop_tolerance_kmh"):
            if not 0 <= _real(getattr(self, name), name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if _integer(self.stop_min_steps, "stop_min_steps") < 1:
            raise ValueError("stop_min_steps must be >= 1")


@dataclass(frozen=True)
class PsmValue:
    """Signed arrival-time gap at the conflict point, in seconds.

    seconds uses the step-level arrival times (the conflict step of each
    trajectory); seconds_refined interpolates within the two steps.
    """

    seconds: float
    seconds_refined: float


def speed_list(traj: Trajectory) -> list[float]:
    """Per-step speeds in km/h from consecutive trajectory positions.

    Positions are the trajectory's ground-plane meters; each step divides
    the distance by the actual time elapsed (the sampling interval, unless
    detections were dropped). Shorter than 2 points, it has no steps.
    """
    speeds = []
    for a, b in zip(traj.points, traj.points[1:]):
        dx = b.world[0] - a.world[0]
        dy = b.world[1] - a.world[1]
        speeds.append(math.sqrt(dx * dx + dy * dy) / (b.t - a.t) * MPS_TO_KMH)
    return speeds


def low_pass(values: list[float], alpha: float) -> list[float]:
    """Exponential smoothing: y[t] = alpha*x[t] + (1-alpha)*y[t-1], with
    alpha as `FeatureParams` checks it."""
    if not values:
        return []
    out = [float(values[0])]
    for x in values[1:]:
        out.append(alpha * float(x) + (1.0 - alpha) * out[-1])
    return out


def acceleration_list(filtered: list[float], epsilon_kmh: float,
                      zones: list[VehicleZone]) -> list[str]:
    """Classify per-step speed changes as acc/dec/nc with a dead-band.

    Only the approach counts: given the vehicle's zones (aligned to its
    trajectory points, one longer than the speed list), the speeds from the
    first point on or after the crosswalk onwards are dropped. Fewer than
    2 approach speeds give no states.
    """
    cut = next((i for i, z in enumerate(zones) if z is not VehicleZone.BEFORE),
               None)
    speeds = filtered[:cut]
    states = []
    for a, b in zip(speeds, speeds[1:]):
        delta = b - a
        if delta > epsilon_kmh:
            states.append(ACC)
        elif delta < -epsilon_kmh:
            states.append(DEC)
        else:
            states.append(NC)
    return states


def collapse_runs(states: list[str]) -> list[str]:
    """Run-length collapse: [acc, acc, nc, acc] -> [acc, nc, acc]."""
    out = []
    for s in states:
        if not out or out[-1] != s:
            out.append(s)
    return out


# --- polygon helpers --------------------------------------------------------


def _edges(polygon) -> list[tuple[float, float, float, float, float, float]]:
    """Each edge (x1, y1) -> (x2, y2) of a polygon, closing edge included,
    as (x1, y1, y2, x2 - x1, y2 - y1, squared length)."""
    out = []
    for (x1, y1), (x2, y2) in zip(polygon, [*polygon[1:], *polygon[:1]]):
        dx, dy = x2 - x1, y2 - y1
        out.append((x1, y1, y2, dx, dy, dx * dx + dy * dy))
    return out


def _inside(x: float, y: float, edges) -> bool:
    """Ray-casting point-in-polygon test (even-odd rule) on `_edges`."""
    inside = False
    for x1, y1, y2, dx, dy, _ in edges:
        if (y1 <= y) != (y2 <= y) and x < x1 + (y - y1) * dx / dy:
            inside = not inside
    return inside


def _edge_distance(x: float, y: float, edges) -> float:
    """Distance from (x, y) to the nearest of `_edges`."""
    best = None
    for x1, y1, _, dx, dy, seg2 in edges:
        px, py = x - x1, y - y1
        if seg2 < 1e-18:
            d = math.hypot(px, py)
        else:
            u = max(0.0, min(1.0, (px * dx + py * dy) / seg2))
            d = math.hypot(px - u * dx, py - u * dy)
        if best is None or d < best:
            best = d
    return best


def _convex_hull(points):
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def cia_polygon(config: SpotConfig) -> list[tuple[float, float]]:
    """Crosswalk dilated along the approach axis by the CIA buffer.

    The swept region of a convex crosswalk translated +/- buffer along the
    road axis is the hull of both translates.
    """
    dx, dy = config.approach_direction_world
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    b = config.cia_buffer_m
    shifted = []
    for x, y in config.crosswalk_polygon_world:
        shifted.append((x + b * ux, y + b * uy))
        shifted.append((x - b * ux, y - b * uy))
    return _convex_hull(shifted)


class SpotZones:
    """A spot's zone geometry, each part prepared on first use and kept:
    the crosswalk's edges and centroid, the sidewalks' edges and the CIA
    hull's edges. The extract stage makes one per spot."""

    def __init__(self, config: SpotConfig):
        self.config = config

    @cached_property
    def crosswalk(self):
        polygon = self.config.crosswalk_polygon_world
        centroid = (sum(p[0] for p in polygon) / len(polygon),
                    sum(p[1] for p in polygon) / len(polygon))
        return _edges(polygon), centroid

    @cached_property
    def sidewalks(self):
        return [_edges(poly) for poly in self.config.sidewalk_polygons_world]

    @cached_property
    def cia(self):
        return _edges(cia_polygon(self.config))


def vehicle_zones(traj: Trajectory, zones: SpotZones
                  ) -> tuple[list[VehicleZone], list[float]]:
    """Zone label and distance to the crosswalk boundary per vehicle
    point, from one inside test per point.

    On the crosswalk polygon (distance 0), else before/after by the signed
    position along the approach direction relative to the crosswalk
    center.
    """
    crosswalk, (cx, cy) = zones.crosswalk
    ax, ay = zones.config.approach_direction_world
    labels = []
    distances = []
    for p in traj.points:
        x, y = p.world
        if _inside(x, y, crosswalk):
            labels.append(VehicleZone.ON)
            distances.append(0.0)
        else:
            ahead = (x - cx) * ax + (y - cy) * ay
            labels.append(VehicleZone.BEFORE if ahead < 0 else VehicleZone.AFTER)
            distances.append(_edge_distance(x, y, crosswalk))
    return labels, distances


def classify_zones(traj: Trajectory, zones: SpotZones) -> list[PedestrianZone]:
    """Zone label per pedestrian point: crosswalk, then sidewalk, then the
    crosswalk influenced area (CIA), then road."""
    crosswalk, _ = zones.crosswalk
    sidewalks, cia = zones.sidewalks, zones.cia
    labels = []
    for p in traj.points:
        x, y = p.world
        if _inside(x, y, crosswalk):
            labels.append(PedestrianZone.CROSSWALK)
        elif any(_inside(x, y, s) for s in sidewalks):
            labels.append(PedestrianZone.SIDEWALK)
        elif _inside(x, y, cia):
            labels.append(PedestrianZone.CIA)
        else:
            labels.append(PedestrianZone.ROAD)
    return labels


def stop_window(speeds: list[float], zones: list[VehicleZone],
                tolerance_kmh: float, min_steps: int) -> tuple[bool, list[int]]:
    """Stop detection plus the step indices of the first qualifying window.

    A stop is min_steps consecutive steps below the speed tolerance while
    the vehicle is still before the crosswalk.
    """
    run: list[int] = []
    for j, v in enumerate(speeds):
        gated = j < len(zones) and zones[j] is VehicleZone.BEFORE
        if gated and v < tolerance_kmh:
            run.append(j)
        else:
            if len(run) >= min_steps:
                return True, run
            run = []
    if len(run) >= min_steps:
        return True, run
    return False, []


def _world_headings(traj: Trajectory, calib: Calibration) -> list[tuple[float, float]]:
    """Per-point heading from the smoothed path, carried through pauses."""
    path = calib.to_world_many(
        np.array([p.smooth_px for p in traj.points])).tolist()
    steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(path, path[1:])]
    # Point k takes step k; the last point takes the last step.
    headings: list[tuple[float, float] | None] = []
    last = None
    for d in steps + steps[-1:]:
        if math.hypot(d[0], d[1]) > 1e-9:
            last = d
        headings.append(last)
    if last is None:
        raise ZeroHeading(f"vehicle {traj.object_id} never moved")
    # Backfill leading stationary points with the first known heading.
    first = next(h for h in headings if h is not None)
    return [h if h is not None else first for h in headings]


def _front_or_behind(vehicle: Trajectory, calib: Calibration,
                     pedestrian_at) -> list[str]:
    """FRONT/BEHIND for each (frame, pedestrian world point) pair; every
    frame must be one of the vehicle's. Front means the pedestrian lies in
    the half-plane ahead of the vehicle's contact point along its heading."""
    headings = _world_headings(vehicle, calib)
    frame_index = {p.frame: k for k, p in enumerate(vehicle.points)}
    out = []
    for f, (px, py) in pedestrian_at:
        k = frame_index[f]
        hx, hy = headings[k]
        vx, vy = vehicle.points[k].world
        out.append(FRONT if (px - vx) * hx + (py - vy) * hy >= 0 else BEHIND)
    return out


# How far each path's bounding box is widened before the reject test. A
# hit may lie up to 1e-9 of a step outside the pedestrian's step, so
# boxes that only just miss may still hold one.
_BOX_PAD_M = 1e-6


def psm(vehicle: Trajectory, pedestrian: Trajectory) -> PsmValue:
    """Pedestrian safety margin via the sign-change conflict scan.

    Walks vehicle steps k in order and pedestrian steps i within each; the
    first pair where the vehicle step crosses the pedestrian step's line
    and the line intersection falls inside the pedestrian step wins.
    Positive when the pedestrian reached the conflict point first. A
    trajectory of fewer than 2 points has no step, so no conflict.

    A conflict point lies on both paths, so paths whose bounding boxes are
    apart have none. Otherwise every sign-change candidate is tested at
    once, with the arithmetic of a candidate-by-candidate scan, so the
    first one that passes is the one such a scan would return.
    """
    if len(vehicle) < 2 or len(pedestrian) < 2:
        raise NoConflict(f"{vehicle.object_id} or {pedestrian.object_id} "
                         "has fewer than 2 points")
    vp = vehicle.world_array()
    pp = pedestrian.world_array()
    if ((vp.min(axis=0) > pp.max(axis=0) + _BOX_PAD_M).any()
            or (pp.min(axis=0) > vp.max(axis=0) + _BOX_PAD_M).any()):
        raise NoConflict(f"{vehicle.object_id} and {pedestrian.object_id} "
                         "paths are apart")

    seg = np.diff(pp, axis=0)                       # pedestrian step vectors
    # f[i, k]: which side of pedestrian line i vehicle point k falls on
    fx = vp[None, :, 0] - pp[:-1, 0][:, None]
    fy = vp[None, :, 1] - pp[:-1, 1][:, None]
    f = seg[:, 0][:, None] * fy - seg[:, 1][:, None] * fx
    # A vehicle sample landing exactly on the line is still a crossing,
    # as long as the step is not collinear with it.
    before, after = f[:, :-1], f[:, 1:]
    sign_change = (before * after < 0) | ((before == 0) ^ (after == 0))

    # Candidates in scan order: by vehicle step k, then pedestrian step i.
    cand_k, cand_i = np.nonzero(sign_change.T)
    a1, da = pp[cand_i], seg[cand_i]
    b1 = vp[cand_k]
    db = vp[cand_k + 1] - b1
    # The intersection of the two lines, as a point on the pedestrian's.
    denom = da[:, 0] * db[:, 1] - da[:, 1] * db[:, 0]
    with np.errstate(all="ignore"):          # masked by the test below
        s = ((b1[:, 0] - a1[:, 0]) * db[:, 1]
             - (b1[:, 1] - a1[:, 1]) * db[:, 0]) / denom
        x = a1[:, 0] + s * da[:, 0]
        y = a1[:, 1] + s * da[:, 1]
        # Squares as a scalar scan takes them, by `**` on floats (libm's
        # pow), which can differ from numpy's x * x in the last place.
        u = ((x - a1[:, 0]) * da[:, 0] + (y - a1[:, 1]) * da[:, 1]) / np.array(
            [dx ** 2 + dy ** 2 for dx, dy in da.tolist()])
    hits = np.flatnonzero((np.abs(denom) >= 1e-15)
                          & (u >= -1e-9) & (u <= 1 + 1e-9))
    if not len(hits):
        raise NoConflict(f"{vehicle.object_id} and {pedestrian.object_id} "
                         "paths do not conflict")
    j = hits[0]
    k, i = cand_k[j], cand_i[j]
    vt = vehicle.times()
    pt = pedestrian.times()
    dv = db[j]
    v = float(((x[j] - vp[k][0]) * dv[0] + (y[j] - vp[k][1]) * dv[1])
              / (dv[0] ** 2 + dv[1] ** 2))
    t_ped = float(pt[i] + u[j] * (pt[i + 1] - pt[i]))
    t_veh = float(vt[k] + v * (vt[k + 1] - vt[k]))
    return PsmValue(seconds=float(vt[k] - pt[i]), seconds_refined=t_veh - t_ped)


@dataclass
class SceneFeatures:
    """The full per-scene feature bundle.

    `pedestrians` maps each pedestrian track id to that track's per-step
    speeds in km/h and its per-point zones. Only `vehicle_accelerations`,
    `vehicle_acceleration_runs`, `stopped` and `stop_distance_m` depend on
    `FeatureParams`; `derive` sets them from the vehicle's speeds, zones
    and crosswalk distances, which `measure` sets with the rest.
    """

    scene_id: str
    spot_id: str
    frame_start: int
    frame_end: int
    interactive: bool
    vehicle_id: str
    vehicle_speeds_kmh: list[float]
    vehicle_zones: list[VehicleZone]
    vehicle_accelerations: list[str]
    vehicle_acceleration_runs: list[str]
    crosswalk_distances_m: list[float]
    stopped: bool
    stop_distance_m: float | None
    pedestrians: dict[str, tuple[list[float], list[PedestrianZone]]]
    distances_m: list[float]
    relative_positions: list[str]
    psm_seconds: float | None
    psm_seconds_refined: float | None
    ped_in_crossing_area: bool


def measure(scene_id: str, vehicle: Trajectory, pedestrians: list[Trajectory],
            spot: SpotZones, calib: Calibration) -> SceneFeatures:
    """Every feature of one scene that takes no parameter, for the spot
    whose zones `spot` holds; the four fields `derive` sets are left empty.

    Vehicle-pedestrian lists run against the nearest pedestrian per frame;
    PSM runs against the overall nearest pedestrian and is None when their
    paths never conflict.
    """
    speeds = speed_list(vehicle)
    zones, cw_dists = vehicle_zones(vehicle, spot)

    ped_features = {}
    vw = {p.frame: p.world for p in vehicle.points}
    # Per frame the nearest pedestrian: (distance, track id, world point).
    nearest: dict[int, tuple[float, str, tuple[float, float]]] = {}
    by_id = {}
    for ped in pedestrians:
        by_id[ped.object_id] = ped
        ped_features[ped.object_id] = (speed_list(ped),
                                       classify_zones(ped, spot))
        for p in ped.points:
            if p.frame in vw:
                cand = (math.dist(vw[p.frame], p.world), ped.object_id,
                        p.world)
                if p.frame not in nearest or cand < nearest[p.frame]:
                    nearest[p.frame] = cand

    common = sorted(nearest)
    distances = [nearest[f][0] for f in common]
    rel_positions: list[str] = []
    psm_value = None
    if common:
        rel_positions = _front_or_behind(
            vehicle, calib, [(f, nearest[f][2]) for f in common])
        try:
            psm_value = psm(vehicle, by_id[min(nearest.values())[1]])
        except NoConflict:
            pass

    in_crossing = any(
        z in (PedestrianZone.CROSSWALK, PedestrianZone.CIA)
        for _, zs in ped_features.values() for z in zs)

    frames = vehicle.frames
    return SceneFeatures(
        scene_id=scene_id,
        spot_id=spot.config.spot_id,
        frame_start=frames[0],
        frame_end=frames[-1],
        interactive=bool(common),
        vehicle_id=vehicle.object_id,
        vehicle_speeds_kmh=speeds,
        vehicle_zones=zones,
        vehicle_accelerations=[],
        vehicle_acceleration_runs=[],
        crosswalk_distances_m=cw_dists,
        stopped=False,
        stop_distance_m=None,
        pedestrians=ped_features,
        distances_m=distances,
        relative_positions=rel_positions,
        psm_seconds=psm_value.seconds if psm_value else None,
        psm_seconds_refined=psm_value.seconds_refined if psm_value else None,
        ped_in_crossing_area=in_crossing,
    )


def derive(bundle: SceneFeatures, params: FeatureParams) -> SceneFeatures:
    """`bundle` with its four `params`-dependent fields set from its
    vehicle speeds, zones and crosswalk distances."""
    speeds, zones = bundle.vehicle_speeds_kmh, bundle.vehicle_zones
    accel = acceleration_list(low_pass(speeds, params.alpha),
                              params.epsilon_kmh, zones)
    stopped, window = stop_window(speeds, zones, params.stop_tolerance_kmh,
                                  params.stop_min_steps)
    bundle.vehicle_accelerations = accel
    bundle.vehicle_acceleration_runs = collapse_runs(accel)
    bundle.stopped = stopped
    bundle.stop_distance_m = min(
        (bundle.crosswalk_distances_m[j] for j in window), default=None)
    return bundle


def extract_scene_features(scene_id: str, vehicle: Trajectory,
                           pedestrians: list[Trajectory], spot: SpotZones,
                           calib: Calibration,
                           params: FeatureParams | None = None) -> SceneFeatures:
    """The whole feature bundle of one scene: `measure`, then `derive`.

    Only `vehicle_accelerations`, `vehicle_acceleration_runs`, `stopped`
    and `stop_distance_m` depend on `params`, so the extract stage may
    derive a bundle again from its `features.jsonl` row. A change to what
    `measure` computes is a change to this package's source, whose digest
    `run.json` records with each spot's features, so rows measured by
    older code are measured again rather than trusted.
    """
    return derive(measure(scene_id, vehicle, pedestrians, spot, calib),
                  params or FeatureParams())
