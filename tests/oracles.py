"""Independent oracles and builders shared by the test modules.

Everything here stays deliberately naive: brute-force counting, dense
interpolation, direct geometry. None of it calls the code paths it checks.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left

import numpy as np

from crossrisk.errors import NoConflict
from crossrisk.features import PsmValue, SceneFeatures, VehicleZone
from crossrisk.ingest import DetectionRecord, DetectionTable, ObjectClass
from crossrisk.motion_gate import SceneSpan
from crossrisk.synth import AgentScript, ScenarioSpec, synthetic_spot_config
from crossrisk.tracker import TrackPoint, Trajectory


def make_traj(object_id, object_class, frames, world, fps=25.0,
              smooth_px=None, raw_px=None, det_ids=None):
    """Build a Trajectory straight from world coordinates."""
    n = len(frames)
    world = [(float(x), float(y)) for x, y in world]
    raw = raw_px if raw_px is not None else world
    smooth = smooth_px if smooth_px is not None else raw
    dets = det_ids if det_ids is not None else [object_id] * n
    pts = [TrackPoint(frame=int(f), t=float(f) / fps,
                      raw_px=(float(raw[k][0]), float(raw[k][1])),
                      smooth_px=(float(smooth[k][0]), float(smooth[k][1])),
                      world=world[k], detection_id=dets[k])
           for k, f in enumerate(frames)]
    return Trajectory(object_id=object_id, object_class=object_class, points=pts)


def make_scene_features(scene_id="s0", spot="A", interactive=False,
                        speeds=(10.0, 12.0), stopped=False, stop_distance=None,
                        in_crossing=False, psm=None):
    """A feature bundle holding only what the analysis reads."""
    return SceneFeatures(
        scene_id=scene_id, spot_id=spot, frame_start=0, frame_end=10,
        interactive=interactive, vehicle_id="v",
        vehicle_speeds_kmh=list(speeds),
        vehicle_zones=[VehicleZone.BEFORE] * (len(speeds) + 1),
        vehicle_accelerations=[], vehicle_acceleration_runs=[],
        crosswalk_distances_m=[], stopped=stopped,
        stop_distance_m=stop_distance,
        pedestrians={},
        distances_m=[], relative_positions=[],
        psm_seconds=psm, psm_seconds_refined=psm,
        ped_in_crossing_area=in_crossing)


def make_detection(frame, cls, x, y, det_id):
    return DetectionRecord(frame_index=frame, object_class=cls,
                           contact_point_px=(float(x), float(y)),
                           detection_id=det_id)


def detection_table(records) -> DetectionTable:
    """The `DetectionTable` of a frame-ordered list of records."""
    records = list(records)
    return DetectionTable(
        array("q", [r.frame_index for r in records]),
        array("d", [r.contact_point_px[0] for r in records]),
        array("d", [r.contact_point_px[1] for r in records]),
        [r.object_class for r in records],
        [r.detection_id for r in records])


def segment_scenes_reference(detections, hangover_frames: int
                             ) -> list[SceneSpan]:
    """Per-vehicle scenes from each vehicle's sorted list of distinct
    frames, split where more than `hangover_frames` frames are missing;
    interactive when a pedestrian frame lies inside the span."""
    vehicle_frames: dict[str, list[int]] = {}
    ped_frames: set[int] = set()
    for rec in detections:
        if rec.object_class is ObjectClass.VEHICLE:
            vehicle_frames.setdefault(rec.detection_id, []).append(
                rec.frame_index)
        else:
            ped_frames.add(rec.frame_index)

    raw_spans: list[tuple[int, int, str]] = []
    for key, key_frames in vehicle_frames.items():
        frames = sorted(set(key_frames))
        start = prev = frames[0]
        for f in frames[1:]:
            if f - prev - 1 > hangover_frames:
                raw_spans.append((start, prev, key))
                start = f
            prev = f
        raw_spans.append((start, prev, key))

    ped_sorted = sorted(ped_frames)
    spans = []
    for n, (start, end, key) in enumerate(sorted(raw_spans)):
        k = bisect_left(ped_sorted, start)
        interactive = k < len(ped_sorted) and ped_sorted[k] <= end
        spans.append(SceneSpan(scene_id=f"s{n:04d}", vehicle_track_hint=key,
                               frame_start=start, frame_end=end,
                               interactive=interactive))
    return spans


def segment_hit(a1, a2, b1, b2):
    """Segment-segment intersection point with both parameters, or None."""
    da = (a2[0] - a1[0], a2[1] - a1[1])
    db = (b2[0] - b1[0], b2[1] - b1[1])
    den = da[0] * db[1] - da[1] * db[0]
    if abs(den) < 1e-15:
        return None
    rx, ry = b1[0] - a1[0], b1[1] - a1[1]
    s = (rx * db[1] - ry * db[0]) / den
    u = (rx * da[1] - ry * da[0]) / den
    if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return (a1[0] + s * da[0], a1[1] + s * da[1], s, u)
    return None


def polygon_boundary_distance(point, polygon):
    """Distance from `point` to the nearest edge of `polygon`, inside or
    out, by checking every edge."""
    best = math.inf
    for i in range(len(polygon)):
        a, b = polygon[i], polygon[(i + 1) % len(polygon)]
        ax, ay = b[0] - a[0], b[1] - a[1]
        seg2 = ax * ax + ay * ay
        u = 0.0 if seg2 == 0 else max(0.0, min(1.0, (
            (point[0] - a[0]) * ax + (point[1] - a[1]) * ay) / seg2))
        best = min(best, math.hypot(point[0] - a[0] - u * ax,
                                    point[1] - a[1] - u * ay))
    return best


def dense_psm_oracle(vehicle: Trajectory, pedestrian: Trajectory,
                     resolution: int = 1000):
    """Brute-force PSM: locate the geometric intersection of the two
    polylines, then read both arrival times off a dense (resolution x)
    linear interpolation of each track. None when the paths never meet."""
    vp, pp = vehicle.world_array(), pedestrian.world_array()
    vt, pt = vehicle.times(), pedestrian.times()
    hit = None
    for k in range(len(vp) - 1):
        for i in range(len(pp) - 1):
            found = segment_hit(vp[k], vp[k + 1], pp[i], pp[i + 1])
            if found is not None:
                hit = (found[0], found[1])
                break
        if hit is not None:
            break
    if hit is None:
        return None

    def dense_arrival(points, times):
        grids = [np.linspace(times[j], times[j + 1], resolution, endpoint=False)
                 for j in range(len(times) - 1)]
        tgrid = np.concatenate(grids + [times[-1:]])
        xs = np.interp(tgrid, times, points[:, 0])
        ys = np.interp(tgrid, times, points[:, 1])
        d2 = (xs - hit[0]) ** 2 + (ys - hit[1]) ** 2
        return float(tgrid[int(np.argmin(d2))])

    return dense_arrival(vp, vt) - dense_arrival(pp, pt)


# Constant-velocity transition over one step and the position-only
# measurement matrix of the (x, y, vx, vy) state.
_F = np.array([[1.0, 0.0, 1.0, 0.0],
               [0.0, 1.0, 0.0, 1.0],
               [0.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, 0.0, 1.0]])
_H = np.array([[1.0, 0.0, 0.0, 0.0],
               [0.0, 1.0, 0.0, 0.0]])
_I4 = np.eye(4)


def dense_kalman_predict(mean, cov, process_noise):
    """Reference predict on the full 4-vector and 4x4 covariance."""
    return _F @ mean, _F @ cov @ _F.T + process_noise * _I4


def dense_kalman_update(mean, cov, measurement, measurement_noise):
    """Reference Joseph-form update on the full 4-vector and 4x4
    covariance, symmetrised like the tracker's."""
    z = np.asarray(measurement, dtype=float)
    innovation = z - _H @ mean
    s = _H @ cov @ _H.T + measurement_noise * np.eye(2)
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    s_inv = np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]]) / det
    gain = cov @ _H.T @ s_inv
    mean = mean + gain @ innovation
    ikh = _I4 - gain @ _H
    cov = ikh @ cov @ ikh.T + measurement_noise * (gain @ gain.T)
    return mean, (cov + cov.T) / 2.0


def brute_force_matching(tracks, detections, params):
    """The matches {track id: detection} that `tracker.assign` must return,
    by trying every matching of each class: the most in-gate pairs, then
    the least total distance from each track's (x, y)."""
    gates = {ObjectClass.VEHICLE: params.gate_threshold_vehicle,
             ObjectClass.PEDESTRIAN: params.gate_threshold_pedestrian}
    matches = {}
    for cls, gate in gates.items():
        tids = [tid for tid, t in tracks.items() if t.object_class is cls]
        dets = [d for d in detections if d.object_class is cls]
        best, best_key = {}, (0, 0.0)
        for choice in itertools.product([None, *dets], repeat=len(tids)):
            taken = [d for d in choice if d is not None]
            if len({d.detection_id for d in taken}) < len(taken):
                continue
            dists = [math.dist((tracks[tid].x, tracks[tid].y),
                               d.contact_point_px)
                     for tid, d in zip(tids, choice) if d is not None]
            if any(dist > gate for dist in dists):
                continue
            key = (-len(dists), sum(dists))
            if key < best_key:
                best_key = key
                best = {tid: d for tid, d in zip(tids, choice)
                        if d is not None}
        matches.update(best)
    return matches


def random_crossing_trajectories(rng, fps=25.0, skip=5):
    """A vehicle and a pedestrian on straight tracks that cross inside
    both sampled spans, with randomized speeds, angles, and timing."""
    F = skip / fps
    cross = rng.uniform(-5, 5, 2)
    v_speed = rng.uniform(4.0, 12.0)
    p_speed = rng.uniform(0.8, 2.0)
    va = rng.uniform(0, 2 * math.pi)
    pa = va + rng.choice([-1.0, 1.0]) * rng.uniform(0.35, math.pi - 0.35)
    n_v = int(rng.integers(20, 60))
    n_p = int(rng.integers(20, 80))
    tv = rng.uniform(0.25, 0.75) * (n_v - 1) * F
    tp = tv + rng.uniform(-2.5, 2.5)
    # Clamp with off-lattice fractions so the crossing instant never
    # coincides exactly with a sample.
    tp = min(max(tp, 0.2137 * (n_p - 1) * F), 0.7863 * (n_p - 1) * F)
    vf = np.arange(n_v) * skip
    pf = np.arange(n_p) * skip
    vt = vf / fps
    pt = pf / fps
    vxy = np.column_stack([
        cross[0] + (vt - tv) * v_speed * math.cos(va),
        cross[1] + (vt - tv) * v_speed * math.sin(va)])
    pxy = np.column_stack([
        cross[0] + (pt - tp) * p_speed * math.cos(pa),
        cross[1] + (pt - tp) * p_speed * math.sin(pa)])
    veh = make_traj("v", ObjectClass.VEHICLE, vf, vxy, fps)
    ped = make_traj("p", ObjectClass.PEDESTRIAN, pf, pxy, fps)
    return veh, ped, F


def random_crossing_spec(index: int, seed: int,
                         noise_sigma: float = 2.0) -> ScenarioSpec:
    """A randomized two-vehicle crossing scene for tracker stress tests.

    The paths cross near the road center with a small arrival offset, so
    at the pass the objects are closer than one step's travel; keeping
    identities straight then hinges on motion prediction.
    """
    rng = np.random.default_rng((seed, index))
    speed = rng.uniform(7.0, 11.0)
    half_angle = rng.uniform(0.08, 0.22)           # radians off the road axis
    cross_x = rng.uniform(-6.0, 6.0)
    # Arrival gap under one sampling step: at the pass the other vehicle is
    # nearer than one step's travel, which is what defeats memoryless
    # nearest-neighbor association.
    offset = rng.uniform(0.05, 0.22)
    span = 22.0

    dy = math.tan(half_angle) * span
    cy = rng.uniform(-1.5, 1.5)
    t_cross = span / speed
    a0 = AgentScript("v0", ObjectClass.VEHICLE, (
        (0.0, cross_x - span, cy - dy), (2 * t_cross, cross_x + span, cy + dy)))
    a1 = AgentScript("v1", ObjectClass.VEHICLE, (
        (offset, cross_x - span, cy + dy),
        (offset + 2 * t_cross, cross_x + span, cy - dy)))
    return ScenarioSpec(
        name=f"crossing{index:04d}",
        config=synthetic_spot_config(spot_id=f"crossing{index:04d}"),
        agents=(a0, a1),
        noise_sigma=noise_sigma,
        drop_probability=0.0,
        seed=seed * 100003 + index,
    )


def script_position(script: AgentScript, t: float) -> tuple[float, float]:
    """World (x, y) of a scripted agent at time t: the straight line of the
    leg that holds t, held at the ends. Plain arithmetic, leg by leg."""
    wps = script.waypoints
    if t <= wps[0][0]:
        return wps[0][1], wps[0][2]
    for (t0, x0, y0), (t1, x1, y1) in zip(wps, wps[1:]):
        if t <= t1:
            s = (t - t0) / (t1 - t0)
            return x0 + s * (x1 - x0), y0 + s * (y1 - y0)
    return wps[-1][1], wps[-1][2]


def emitted_detections(spec: ScenarioSpec):
    """Reference detection stream of `synth.generate`, built one detection
    at a time: (records, emitted frames per agent, provenance).

    Draws the same random numbers in the same order: per agent in id
    order, the drop draws, then x noise, then y noise.
    """
    config = spec.config
    inv_h = np.linalg.inv(config.build_calibration().homography)
    w, h = config.frame_size
    fps, skip = config.fps, config.frame_skip
    rng = np.random.default_rng(spec.seed)
    records, provenance = [], {}
    emitted = {a.agent_id: [] for a in spec.agents}
    for agent in sorted(spec.agents, key=lambda a: a.agent_id):
        first = int(math.ceil(agent.t_start * fps / skip)) * skip
        last = int(math.floor(agent.t_end * fps / skip)) * skip
        if last < first:
            continue
        frames = np.arange(first, last + 1, skip)
        t = frames / fps
        wp_t = np.array([p[0] for p in agent.waypoints])
        wx = np.interp(t, wp_t, [p[1] for p in agent.waypoints])
        wy = np.interp(t, wp_t, [p[2] for p in agent.waypoints])
        homog = np.column_stack([wx, wy, np.ones_like(wx)]) @ inv_h.T
        px, py = homog[:, 0] / homog[:, 2], homog[:, 1] / homog[:, 2]
        dropped = (rng.random(len(frames)) < spec.drop_probability
                   if spec.drop_probability > 0 else np.zeros(len(frames), bool))
        if spec.noise_sigma > 0:
            px = np.clip(px + rng.normal(0.0, spec.noise_sigma, len(frames)),
                         0.0, w - 1e-6)
            py = np.clip(py + rng.normal(0.0, spec.noise_sigma, len(frames)),
                         0.0, h - 1e-6)
        for n, frame in enumerate(frames.tolist()):
            when = frame / fps
            if dropped[n] or any(b0 <= when <= b1 for b0, b1 in agent.blackouts):
                continue
            records.append(DetectionRecord(frame, agent.object_class,
                                           (float(px[n]), float(py[n])),
                                           agent.agent_id))
            provenance[(frame, agent.agent_id)] = agent.agent_id
            emitted[agent.agent_id].append(frame)
    records.sort(key=lambda r: (r.frame_index, r.detection_id))
    return records, emitted, provenance


def scan_psm(vehicle: Trajectory, pedestrian: Trajectory) -> PsmValue:
    """Reference PSM: the sign-change scan one candidate at a time, vehicle
    step k in order and pedestrian step i within each; the first candidate
    whose line intersection lies within the pedestrian step wins."""
    if len(vehicle) < 2 or len(pedestrian) < 2:
        raise NoConflict("fewer than 2 points")
    vp = vehicle.world_array()
    pp = pedestrian.world_array()
    vt = vehicle.times()
    pt = pedestrian.times()

    seg = np.diff(pp, axis=0)
    fx = vp[None, :, 0] - pp[:-1, 0][:, None]
    fy = vp[None, :, 1] - pp[:-1, 1][:, None]
    f = seg[:, 0][:, None] * fy - seg[:, 1][:, None] * fx
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
            return PsmValue(seconds=float(vt[k] - pt[i]),
                            seconds_refined=t_veh - t_ped)
    raise NoConflict("paths do not conflict")


def _line_intersection(a1, a2, b1, b2):
    """Intersection of the supporting lines of segments a and b."""
    da = (a2[0] - a1[0], a2[1] - a1[1])
    db = (b2[0] - b1[0], b2[1] - b1[1])
    denom = da[0] * db[1] - da[1] * db[0]
    if abs(denom) < 1e-15:
        return None
    s = ((b1[0] - a1[0]) * db[1] - (b1[1] - a1[1]) * db[0]) / denom
    return (float(a1[0] + s * da[0]), float(a1[1] + s * da[1]))
