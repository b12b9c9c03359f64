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

import numpy as np

from .errors import (
    MissingPolygons,
    NoConflict,
    NoOverlap,
    TooShort,
    ZeroHeading,
)
from .geometry import Calibration, WorldPoint
from .ingest import ObjectClass, SpotConfig
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
    accel_full_scene: bool = False    # ignore the crosswalk cutoff

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class PsmValue:
    """Signed arrival-time gap at the conflict point, in seconds.

    seconds uses the step-level arrival times (the conflict step of each
    trajectory); seconds_refined interpolates within the two steps.
    """

    seconds: float
    seconds_refined: float
    conflict_point: WorldPoint
    ped_step_index: int
    vehicle_step_index: int


def speed_list(traj: Trajectory) -> list[float]:
    """Per-step speeds in km/h from consecutive trajectory positions.

    Positions are the trajectory's ground-plane meters; each step divides
    the distance by the actual time elapsed (the sampling interval, unless
    detections were dropped).
    """
    if len(traj) < 2:
        raise TooShort(f"trajectory {traj.object_id} has {len(traj)} points")
    world = traj.world_array()
    times = traj.times()
    d = np.linalg.norm(np.diff(world, axis=0), axis=1)
    dt = np.diff(times)
    return [float(v) for v in d / dt * MPS_TO_KMH]


def low_pass(values: list[float], alpha: float) -> list[float]:
    """Exponential smoothing: y[t] = alpha*x[t] + (1-alpha)*y[t-1]."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if not values:
        return []
    out = [float(values[0])]
    for x in values[1:]:
        out.append(alpha * float(x) + (1.0 - alpha) * out[-1])
    return out


def acceleration_list(filtered: list[float], epsilon_kmh: float,
                      zones: list[VehicleZone] | None = None,
                      full_scene: bool = False) -> list[str]:
    """Classify per-step speed changes as acc/dec/nc with a dead-band.

    By default only the approach matters: steps after the vehicle first
    reaches the crosswalk are dropped (zones aligned to trajectory points,
    one longer than the speed list). full_scene keeps everything.
    """
    speeds = list(filtered)
    if zones is not None and not full_scene:
        cut = next((i for i, z in enumerate(zones) if z is not VehicleZone.BEFORE),
                   None)
        if cut is not None:
            speeds = speeds[:cut]
    if len(speeds) < 2:
        if len(filtered) < 2:
            raise TooShort("need at least 2 speeds")
        return []
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


def point_in_polygon(point, polygon) -> bool:
    """Ray-casting point-in-polygon test (even-odd rule)."""
    x, y = point
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if (y1 <= y) != (y2 <= y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


def _point_segment_distance(p, a, b) -> float:
    px, py = p[0] - a[0], p[1] - a[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    seg2 = dx * dx + dy * dy
    if seg2 < 1e-18:
        return math.hypot(px, py)
    u = max(0.0, min(1.0, (px * dx + py * dy) / seg2))
    return math.hypot(px - u * dx, py - u * dy)


def distance_to_polygon(point, polygon) -> float:
    """Distance to the polygon boundary; zero for interior points."""
    if point_in_polygon(point, polygon):
        return 0.0
    n = len(polygon)
    return min(_point_segment_distance(point, polygon[i], polygon[(i + 1) % n])
               for i in range(n))


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
    if norm < 1e-12:
        raise MissingPolygons("approach_direction_world is a zero vector")
    ux, uy = dx / norm, dy / norm
    b = config.cia_buffer_m
    shifted = []
    for x, y in config.crosswalk_polygon_world:
        shifted.append((x + b * ux, y + b * uy))
        shifted.append((x - b * ux, y - b * uy))
    return _convex_hull(shifted)


def classify_zones(traj: Trajectory, config: SpotConfig):
    """Zone label per trajectory point.

    Vehicles: on the crosswalk polygon, else before/after by the signed
    position along the approach direction relative to the crosswalk center.
    Pedestrians: crosswalk, then sidewalk, then the crosswalk influenced
    area (CIA), then road.
    """
    if not config.crosswalk_polygon_world:
        raise MissingPolygons(f"spot {config.spot_id} has no crosswalk polygon")
    crosswalk = config.crosswalk_polygon_world
    world = [p.world for p in traj.points]

    if traj.object_class is ObjectClass.VEHICLE:
        cx = sum(p[0] for p in crosswalk) / len(crosswalk)
        cy = sum(p[1] for p in crosswalk) / len(crosswalk)
        ax, ay = config.approach_direction_world
        zones = []
        for x, y in world:
            if point_in_polygon((x, y), crosswalk):
                zones.append(VehicleZone.ON)
            elif (x - cx) * ax + (y - cy) * ay < 0:
                zones.append(VehicleZone.BEFORE)
            else:
                zones.append(VehicleZone.AFTER)
        return zones

    cia = cia_polygon(config)
    zones = []
    for x, y in world:
        if point_in_polygon((x, y), crosswalk):
            zones.append(PedestrianZone.CROSSWALK)
        elif any(point_in_polygon((x, y), poly)
                 for poly in config.sidewalk_polygons_world):
            zones.append(PedestrianZone.SIDEWALK)
        elif point_in_polygon((x, y), cia):
            zones.append(PedestrianZone.CIA)
        else:
            zones.append(PedestrianZone.ROAD)
    return zones


def stop_window(speeds: list[float], zones: list[VehicleZone],
                tolerance_kmh: float = 2.0, min_steps: int = 3,
                ) -> tuple[bool, list[int]]:
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


def crosswalk_distances(traj: Trajectory, config: SpotConfig) -> list[float]:
    """Per-frame distance from the vehicle to the crosswalk boundary."""
    if not config.crosswalk_polygon_world:
        raise MissingPolygons(f"spot {config.spot_id} has no crosswalk polygon")
    return [distance_to_polygon(p.world, config.crosswalk_polygon_world)
            for p in traj.points]


def pairwise_distances(vehicle: Trajectory, pedestrian: Trajectory,
                       ) -> tuple[list[int], list[float]]:
    """Euclidean vehicle-pedestrian distance per shared frame."""
    vw = {p.frame: p.world for p in vehicle.points}
    pw = {p.frame: p.world for p in pedestrian.points}
    common = sorted(set(vw) & set(pw))
    if not common:
        raise NoOverlap(
            f"{vehicle.object_id} and {pedestrian.object_id} share no frames")
    return common, [math.dist(vw[f], pw[f]) for f in common]


def _world_headings(traj: Trajectory, calib: Calibration | None) -> list[tuple[float, float]]:
    """Per-point heading from the smoothed path, carried through pauses."""
    sm = np.array([p.smooth_px for p in traj.points])
    if calib is not None:
        path = calib.to_world_many(sm)
    else:
        path = traj.world_array()
    diffs = np.diff(path, axis=0)
    headings: list[tuple[float, float] | None] = [None] * len(traj.points)
    last = None
    for k in range(len(traj.points)):
        d = diffs[min(k, len(diffs) - 1)] if len(diffs) else np.zeros(2)
        if np.hypot(d[0], d[1]) > 1e-9:
            last = (float(d[0]), float(d[1]))
        headings[k] = last
    if headings[-1] is None:
        raise ZeroHeading(f"vehicle {traj.object_id} never moved")
    # Backfill leading stationary points with the first known heading.
    first = next(h for h in headings if h is not None)
    return [h if h is not None else first for h in headings]


def relative_positions(vehicle: Trajectory, pedestrian: Trajectory,
                       calib: Calibration | None = None) -> list[str]:
    """Front/Behind of the pedestrian relative to the vehicle per frame.

    Front means the pedestrian lies in the half-plane ahead of the
    vehicle's contact point along its heading.
    """
    common, _ = pairwise_distances(vehicle, pedestrian)
    pw = {p.frame: p.world for p in pedestrian.points}
    return _front_or_behind(vehicle, calib, [(f, pw[f]) for f in common])


def _front_or_behind(vehicle: Trajectory, calib: Calibration | None,
                     pedestrian_at) -> list[str]:
    """FRONT/BEHIND for each (frame, pedestrian world point) pair; every
    frame must be one of the vehicle's."""
    headings = _world_headings(vehicle, calib)
    frame_index = {p.frame: k for k, p in enumerate(vehicle.points)}
    out = []
    for f, (px, py) in pedestrian_at:
        k = frame_index[f]
        hx, hy = headings[k]
        vx, vy = vehicle.points[k].world
        out.append(FRONT if (px - vx) * hx + (py - vy) * hy >= 0 else BEHIND)
    return out


def psm(vehicle: Trajectory, pedestrian: Trajectory) -> PsmValue:
    """Pedestrian safety margin via the sign-change conflict scan.

    Walks vehicle steps k in order and pedestrian steps i within each; the
    first pair where the vehicle step crosses the pedestrian step's line
    and the line intersection falls inside the pedestrian step wins.
    Positive when the pedestrian reached the conflict point first.
    """
    if len(vehicle) < 2 or len(pedestrian) < 2:
        raise TooShort("both trajectories need at least 2 points")
    vp = vehicle.world_array()
    pp = pedestrian.world_array()
    vt = vehicle.times()
    pt = pedestrian.times()

    seg = np.diff(pp, axis=0)                       # pedestrian step vectors
    # f[i, k]: which side of pedestrian line i vehicle point k falls on
    fx = vp[None, :, 0] - pp[:-1, 0][:, None]
    fy = vp[None, :, 1] - pp[:-1, 1][:, None]
    f = seg[:, 0][:, None] * fy - seg[:, 1][:, None] * fx
    # A vehicle sample landing exactly on the line is still a crossing,
    # as long as the step is not collinear with it.
    before, after = f[:, :-1], f[:, 1:]
    sign_change = (before * after < 0) | ((before == 0) ^ (after == 0))

    for k in range(sign_change.shape[1]):
        for i in np.nonzero(sign_change[:, k])[0]:
            hit = _line_intersection(pp[i], pp[i + 1], vp[k], vp[k + 1])
            if hit is None:
                continue
            x, y = hit
            du = pp[i + 1] - pp[i]
            u = float(((x - pp[i][0]) * du[0] + (y - pp[i][1]) * du[1])
                      / (du[0] ** 2 + du[1] ** 2))
            if not -1e-9 <= u <= 1 + 1e-9:
                continue
            dv = vp[k + 1] - vp[k]
            v = float(((x - vp[k][0]) * dv[0] + (y - vp[k][1]) * dv[1])
                      / (dv[0] ** 2 + dv[1] ** 2))
            t_ped = float(pt[i] + u * (pt[i + 1] - pt[i]))
            t_veh = float(vt[k] + v * (vt[k + 1] - vt[k]))
            return PsmValue(
                seconds=float(vt[k] - pt[i]),
                seconds_refined=t_veh - t_ped,
                conflict_point=WorldPoint(x=x, y=y, t=t_ped),
                ped_step_index=int(i),
                vehicle_step_index=int(k),
            )
    raise NoConflict(
        f"{vehicle.object_id} and {pedestrian.object_id} paths do not conflict")


def _line_intersection(a1, a2, b1, b2):
    """Intersection of the supporting lines of segments a and b."""
    da = (a2[0] - a1[0], a2[1] - a1[1])
    db = (b2[0] - b1[0], b2[1] - b1[1])
    denom = da[0] * db[1] - da[1] * db[0]
    if abs(denom) < 1e-15:
        return None
    s = ((b1[0] - a1[0]) * db[1] - (b1[1] - a1[1]) * db[0]) / denom
    return (float(a1[0] + s * da[0]), float(a1[1] + s * da[1]))


@dataclass
class SceneFeatures:
    """The full per-scene feature bundle.

    `pedestrian_speeds_kmh` and `pedestrian_zones` are independent maps
    keyed by pedestrian track id; neither is required to hold the other's
    ids. `extract_scene_features` fills both for the same tracks, and the
    stage record keeps each map separately, so a write followed by a read
    gives back the same bundle.
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
    pedestrian_speeds_kmh: dict[str, list[float]]
    pedestrian_zones: dict[str, list[PedestrianZone]]
    distances_m: list[float]
    relative_positions: list[str]
    psm_seconds: float | None
    psm_seconds_refined: float | None
    ped_in_crossing_area: bool


def extract_scene_features(scene_id: str, vehicle: Trajectory,
                           pedestrians: list[Trajectory], config: SpotConfig,
                           calib: Calibration,
                           params: FeatureParams | None = None) -> SceneFeatures:
    """Compute the whole feature bundle for one scene.

    Vehicle-pedestrian lists run against the nearest pedestrian per frame;
    PSM runs against the overall nearest pedestrian and is None when their
    paths never conflict.
    """
    params = params or FeatureParams()

    speeds = speed_list(vehicle) if len(vehicle) >= 2 else []
    zones = classify_zones(vehicle, config)
    filtered = low_pass(speeds, params.alpha)
    accel = (acceleration_list(filtered, params.epsilon_kmh, zones=zones,
                               full_scene=params.accel_full_scene)
             if len(filtered) >= 2 else [])
    cw_dists = crosswalk_distances(vehicle, config)
    stopped, window = stop_window(speeds, zones, params.stop_tolerance_kmh,
                                  params.stop_min_steps)
    stop_distance = min((cw_dists[j] for j in window), default=None)

    ped_speeds = {}
    ped_zones = {}
    vw = {p.frame: p.world for p in vehicle.points}
    per_frame: dict[int, list[tuple[float, str]]] = {}
    nearest_overall: tuple[float, str] | None = None
    by_id = {}
    for ped in pedestrians:
        by_id[ped.object_id] = ped
        ped_speeds[ped.object_id] = speed_list(ped) if len(ped) >= 2 else []
        ped_zones[ped.object_id] = classify_zones(ped, config)
        for p in ped.points:
            if p.frame in vw:
                d = math.dist(vw[p.frame], p.world)
                per_frame.setdefault(p.frame, []).append((d, ped.object_id))
                cand = (d, ped.object_id)
                if nearest_overall is None or cand < nearest_overall:
                    nearest_overall = cand

    common = sorted(per_frame)
    distances = [min(per_frame[f])[0] for f in common]

    rel_positions: list[str] = []
    if common:
        ped_world = {(ped.object_id, p.frame): p.world
                     for ped in pedestrians for p in ped.points}
        rel_positions = _front_or_behind(vehicle, calib, [
            (f, ped_world[(min(per_frame[f])[1], f)]) for f in common])

    psm_value = None
    if nearest_overall is not None:
        target = by_id[nearest_overall[1]]
        if len(target) >= 2 and len(vehicle) >= 2:
            try:
                psm_value = psm(vehicle, target)
            except NoConflict:
                psm_value = None

    in_crossing = any(
        z in (PedestrianZone.CROSSWALK, PedestrianZone.CIA)
        for zs in ped_zones.values() for z in zs)

    frames = vehicle.frames
    return SceneFeatures(
        scene_id=scene_id,
        spot_id=config.spot_id,
        frame_start=frames[0],
        frame_end=frames[-1],
        interactive=bool(common),
        vehicle_id=vehicle.object_id,
        vehicle_speeds_kmh=speeds,
        vehicle_zones=zones,
        vehicle_accelerations=accel,
        vehicle_acceleration_runs=collapse_runs(accel),
        crosswalk_distances_m=cw_dists,
        stopped=stopped,
        stop_distance_m=stop_distance,
        pedestrian_speeds_kmh=ped_speeds,
        pedestrian_zones=ped_zones,
        distances_m=distances,
        relative_positions=rel_positions,
        psm_seconds=psm_value.seconds if psm_value else None,
        psm_seconds_refined=psm_value.seconds_refined if psm_value else None,
        ped_in_crossing_area=in_crossing,
    )
