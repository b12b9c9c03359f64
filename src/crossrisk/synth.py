"""Synthetic corpora with exact ground truth.

Scenarios script agents as piecewise-linear world paths with timestamps.
Generation projects the scripted positions through a genuinely oblique
camera (so the rectification path is always exercised), samples them at
the spot's stride, adds Gaussian pixel noise, and applies dropouts. The
ground truth keeps the exact sampled positions, the provenance of every
emitted detection, and analytic values (speeds, arrival-time PSM, stop
flags) computed straight from the scripts, independent of any pipeline
code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .ingest import DetectionRecord, ObjectClass, SpotConfig
from .motion_gate import MotionParams, SceneSpan, segment_scenes

MPS_TO_KMH = 3.6


@dataclass(frozen=True)
class AgentScript:
    """One scripted agent: a timed polyline in world meters."""

    agent_id: str
    object_class: ObjectClass
    waypoints: tuple[tuple[float, float, float], ...]  # (t_s, x_m, y_m)
    blackouts: tuple[tuple[float, float], ...] = ()    # no detections emitted

    def __post_init__(self):
        ts = [w[0] for w in self.waypoints]
        if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidSpec(
                f"agent {self.agent_id}: waypoint times must strictly increase")

    @property
    def t_start(self) -> float:
        return self.waypoints[0][0]

    @property
    def t_end(self) -> float:
        return self.waypoints[-1][0]

    def position(self, t: float) -> tuple[float, float]:
        """Linear interpolation along the timed polyline."""
        wp = self.waypoints
        if not wp[0][0] <= t <= wp[-1][0]:
            raise InvalidSpec(f"agent {self.agent_id}: t={t} outside script")
        for (t0, x0, y0), (t1, x1, y1) in zip(wp, wp[1:]):
            if t <= t1:
                u = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
                return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))
        return (wp[-1][1], wp[-1][2])

    def visible(self, t: float) -> bool:
        if not self.t_start <= t <= self.t_end:
            return False
        return not any(b0 <= t <= b1 for b0, b1 in self.blackouts)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    config: SpotConfig
    agents: tuple[AgentScript, ...]
    noise_sigma: float = 0.0
    drop_probability: float = 0.0
    seed: int = 0


@dataclass
class TrueTrack:
    """Exact sampled positions of one agent, before noise and drops."""

    agent_id: str
    object_class: ObjectClass
    frames: list[int]
    world: list[tuple[float, float]]
    pixel: list[tuple[float, float]]

    def world_at(self, frame: int) -> tuple[float, float]:
        return self.world[self.frames.index(frame)]


@dataclass
class GroundTruth:
    """Everything a test needs to judge pipeline output on this scenario."""

    tracks: dict[str, TrueTrack]
    provenance: dict[tuple[int, str], str]   # (frame, detection_id) -> agent
    emitted_frames: dict[str, list[int]]     # after blackouts and drops
    spans: list[SceneSpan]
    psm_seconds: float | None                # continuous arrival-time gap
    stopped: bool
    fps: float = 25.0

    def speed_list_kmh(self, agent_id: str, frames: list[int]) -> list[float]:
        """Analytic speeds over an arbitrary frame subset of one agent."""
        track = self.tracks[agent_id]
        pos = [track.world_at(f) for f in frames]
        return [math.dist(a, b) / ((f1 - f0) / self.fps) * MPS_TO_KMH
                for (a, b, f0, f1) in zip(pos, pos[1:], frames, frames[1:])]


def synthetic_spot_config(spot_id: str = "synthA",
                          frame_size: tuple[int, int] = (1920, 1080),
                          fps: float = 25.0, frame_skip: int = 5,
                          signalized: bool = False) -> SpotConfig:
    """A crosswalk spot seen from an oblique camera.

    World frame: the road runs along x, vehicles travel +x; the crosswalk
    spans the road at x in [-2, 2]; sidewalks flank the road beyond
    |y| = 7. The camera looks down the road: the near curb fills the
    bottom of the frame, the far end narrows toward the top.
    """
    w, h = frame_size
    correspondences = [
        {"pixel": [0.073 * w, 0.926 * h], "world": [-30.0, -11.0]},
        {"pixel": [0.927 * w, 0.926 * h], "world": [30.0, -11.0]},
        {"pixel": [0.667 * w, 0.241 * h], "world": [30.0, 11.0]},
        {"pixel": [0.333 * w, 0.241 * h], "world": [-30.0, 11.0]},
    ]
    from .ingest import parse_spot_config
    return parse_spot_config({
        "spot_id": spot_id,
        "crosswalk_length_m": 14.0,
        "lanes": 2,
        "signalized": signalized,
        "school_zone": True,
        "speed_camera": False,
        "speed_limit_kmh": 30.0,
        "frame_size": list(frame_size),
        "fps": fps,
        "frame_skip": frame_skip,
        "calibration": correspondences,
        "crosswalk_polygon_world": [[-2.0, -7.0], [2.0, -7.0],
                                    [2.0, 7.0], [-2.0, 7.0]],
        "sidewalk_polygons_world": [
            [[-30.0, 7.0], [30.0, 7.0], [30.0, 11.0], [-30.0, 11.0]],
            [[-30.0, -11.0], [30.0, -11.0], [30.0, -7.0], [-30.0, -7.0]],
        ],
        "approach_direction_world": [1.0, 0.0],
        "cia_buffer_m": 3.0,
    })


def _segment_intersection(a1, a2, b1, b2):
    """Proper segment-segment intersection with both parameters in [0,1]."""
    dax, day = a2[0] - a1[0], a2[1] - a1[1]
    dbx, dby = b2[0] - b1[0], b2[1] - b1[1]
    denom = dax * dby - day * dbx
    if abs(denom) < 1e-15:
        return None
    s = ((b1[0] - a1[0]) * dby - (b1[1] - a1[1]) * dbx) / denom
    u = ((b1[0] - a1[0]) * day - (b1[1] - a1[1]) * dax) / denom
    if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return (a1[0] + s * dax, a1[1] + s * day, s, u)
    return None


def analytic_psm(vehicle: AgentScript, pedestrian: AgentScript) -> float | None:
    """Continuous arrival-time gap where the scripted paths intersect.

    Positive when the pedestrian passes the intersection first. None when
    the paths never meet.
    """
    hits = []
    vw, pw = vehicle.waypoints, pedestrian.waypoints
    for k in range(len(vw) - 1):
        a1, a2 = (vw[k][1], vw[k][2]), (vw[k + 1][1], vw[k + 1][2])
        for i in range(len(pw) - 1):
            b1, b2 = (pw[i][1], pw[i][2]), (pw[i + 1][1], pw[i + 1][2])
            hit = _segment_intersection(a1, a2, b1, b2)
            if hit is None:
                continue
            _, _, s, u = hit
            t_veh = vw[k][0] + s * (vw[k + 1][0] - vw[k][0])
            t_ped = pw[i][0] + u * (pw[i + 1][0] - pw[i][0])
            hits.append((t_veh, t_veh - t_ped))
    if not hits:
        return None
    return min(hits)[1]


def _scripted_stop(vehicle: AgentScript, crosswalk_min_x: float) -> bool:
    """Whether the script holds the vehicle still before the crosswalk."""
    for (t0, x0, y0), (t1, x1, y1) in zip(vehicle.waypoints, vehicle.waypoints[1:]):
        if (t1 - t0) > 0.5 and math.hypot(x1 - x0, y1 - y0) < 1e-9 \
                and x0 < crosswalk_min_x:
            return True
    return False


def generate(spec: ScenarioSpec) -> tuple[list[DetectionRecord], GroundTruth]:
    """Emit the detection stream and exact ground truth for one scenario.

    Work is vectorized per agent, so cost scales with the number of emitted
    detections, not frames times agents.
    """
    config = spec.config
    calib = config.build_calibration()
    inv_h = np.linalg.inv(calib.homography)
    w, h = config.frame_size
    fps, skip = config.fps, config.frame_skip
    rng = np.random.default_rng(spec.seed)

    tracks: dict[str, TrueTrack] = {}
    provenance: dict[tuple[int, str], str] = {}
    emitted_frames: dict[str, list[int]] = {a.agent_id: [] for a in spec.agents}
    keyed: list[tuple[int, str, DetectionRecord]] = []

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
        px = homog[:, 0] / homog[:, 2]
        py = homog[:, 1] / homog[:, 2]
        inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
        if not inside.all():
            bad = int(np.argmin(inside))
            raise InvalidSpec(
                f"{spec.name}: agent {agent.agent_id} projects outside the "
                f"frame at t={t[bad]:.2f} ({px[bad]:.0f}, {py[bad]:.0f})")

        tracks[agent.agent_id] = TrueTrack(
            agent_id=agent.agent_id, object_class=agent.object_class,
            frames=[int(f) for f in frames],
            world=list(zip(wx.tolist(), wy.tolist())),
            pixel=list(zip(px.tolist(), py.tolist())))

        visible = np.ones(len(frames), dtype=bool)
        for b0, b1 in agent.blackouts:
            visible &= ~((t >= b0) & (t <= b1))
        if spec.drop_probability > 0:
            visible &= rng.random(len(frames)) >= spec.drop_probability
        ex = px.copy()
        ey = py.copy()
        if spec.noise_sigma > 0:
            ex = np.clip(ex + rng.normal(0.0, spec.noise_sigma, len(frames)),
                         0.0, w - 1e-6)
            ey = np.clip(ey + rng.normal(0.0, spec.noise_sigma, len(frames)),
                         0.0, h - 1e-6)
        for k in np.nonzero(visible)[0]:
            frame = int(frames[k])
            keyed.append((frame, agent.agent_id, DetectionRecord(
                spot_id=config.spot_id, frame_index=frame,
                object_class=agent.object_class,
                contact_point_px=(float(ex[k]), float(ey[k])),
                detection_id=agent.agent_id)))
            provenance[(frame, agent.agent_id)] = agent.agent_id
            emitted_frames[agent.agent_id].append(frame)

    keyed.sort(key=lambda item: (item[0], item[1]))
    records = [item[2] for item in keyed]
    spans = segment_scenes(records, params=MotionParams.for_config(config))

    vehicles = [a for a in spec.agents if a.object_class is ObjectClass.VEHICLE]
    peds = [a for a in spec.agents if a.object_class is ObjectClass.PEDESTRIAN]
    psm_value = None
    if vehicles and peds:
        for ped in sorted(peds, key=lambda p: p.agent_id):
            psm_value = analytic_psm(vehicles[0], ped)
            if psm_value is not None:
                break
    stopped = bool(vehicles) and _scripted_stop(
        vehicles[0], min(p[0] for p in config.crosswalk_polygon_world))

    truth = GroundTruth(tracks=tracks, provenance=provenance,
                        emitted_frames=emitted_frames, spans=spans,
                        psm_seconds=psm_value, stopped=stopped, fps=fps)
    return records, truth


# --- the standard named scenarios -------------------------------------------


def _vehicle(agent_id: str, t0: float, speed: float, y: float,
             x0: float = -26.0, x1: float = 26.0) -> AgentScript:
    return AgentScript(agent_id, ObjectClass.VEHICLE, (
        (t0, x0, y), (t0 + (x1 - x0) / speed, x1, y)))


def _standard_scripts() -> dict[str, tuple[AgentScript, ...]]:
    lane = -3.5
    return {
        "single_pass": (
            _vehicle("v0", 0.0, 8.0, lane),
        ),
        "stop_and_go": (
            AgentScript("v0", ObjectClass.VEHICLE, (
                (0.0, -26.0, lane), (2.0, -10.0, lane), (4.0, -6.0, lane),
                (6.0, -6.0, lane), (10.0, 26.0, lane))),
            AgentScript("p0", ObjectClass.PEDESTRIAN, (
                (3.0, 0.0, 9.0), (15.0, 0.0, -9.0))),
        ),
        "crossing_pair": (
            AgentScript("v0", ObjectClass.VEHICLE, (
                (0.0, -25.0, -5.0), (6.25, 25.0, 5.0))),
            AgentScript("v1", ObjectClass.VEHICLE, (
                (0.5, -25.0, 5.0), (6.75, 25.0, -5.0))),
        ),
        "parallel_pair": (
            _vehicle("v0", 0.0, 8.0, -3.5, -25.0, 25.0),
            _vehicle("v1", 0.3, 8.0, 3.5, -25.0, 25.0),
        ),
        "occlusion_gap": (
            AgentScript("v0", ObjectClass.VEHICLE,
                        ((0.0, -26.0, lane), (6.5, 26.0, lane)),
                        blackouts=((2.8, 3.9),)),
        ),
        "near_miss": (
            _vehicle("v0", 6.0, 8.0, lane),
            AgentScript("p0", ObjectClass.PEDESTRIAN, (
                (0.0, 0.0, 9.0), (12.0, 0.0, -9.0))),
        ),
        "vehicle_first": (
            _vehicle("v0", 0.0, 8.0, lane),
            AgentScript("p0", ObjectClass.PEDESTRIAN, (
                (1.0 / 6.0, 0.0, -9.0), (1.0 / 6.0 + 15.0, 0.0, 9.0))),
        ),
        "multi_pedestrian": (
            _vehicle("v0", 0.0, 8.0, lane),
            AgentScript("p0", ObjectClass.PEDESTRIAN, (
                (0.0, 0.0, 9.0), (12.0, 0.0, -9.0))),
            AgentScript("p1", ObjectClass.PEDESTRIAN, (
                (0.0, -10.0, 8.0), (13.0, 16.0, 8.0))),
        ),
    }


def standard_corpus(noise_sigma: float = 0.0, drop_probability: float = 0.0,
                    seed: int = 0) -> list[tuple[ScenarioSpec, GroundTruth]]:
    """The eight named scenarios, each on its own synthetic spot.

    Scenario highlights: stop_and_go holds still less than 10 m short of
    the crosswalk; near_miss has a true PSM inside the riskiest positive
    range (0, 1.25); vehicle_first has a true PSM of -1.5; crossing_pair
    and occlusion_gap stress identity keeping and connectivity.
    """
    corpus = []
    for i, (name, agents) in enumerate(_standard_scripts().items()):
        spec = ScenarioSpec(
            name=name,
            config=synthetic_spot_config(spot_id=name),
            agents=agents,
            noise_sigma=noise_sigma,
            drop_probability=drop_probability,
            seed=seed + i,
        )
        _, truth = generate(ScenarioSpec(
            name=name, config=spec.config, agents=agents,
            noise_sigma=0.0, drop_probability=0.0, seed=0))
        corpus.append((spec, truth))
    return corpus


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
        (offset, cross_x - span, cy + dy), (offset + 2 * t_cross, cross_x + span, cy - dy)))
    return ScenarioSpec(
        name=f"crossing{index:04d}",
        config=synthetic_spot_config(spot_id=f"crossing{index:04d}"),
        agents=(a0, a1),
        noise_sigma=noise_sigma,
        drop_probability=0.0,
        seed=seed * 100003 + index,
    )


def traffic_spec(n_scenes: int, seed: int = 0, spot_id: str = "bulk",
                 noise_sigma: float = 1.0,
                 interactive_every: int = 3) -> ScenarioSpec:
    """One long stream of staggered scenes for throughput runs.

    Every scene is a vehicle pass; every interactive_every-th scene adds a
    crossing pedestrian.
    """
    rng = np.random.default_rng(seed)
    agents = []
    t0 = 0.0
    for i in range(n_scenes):
        speed = float(rng.uniform(5.0, 12.0))
        lane = float(rng.choice((-3.5, -1.5, 1.5, 3.5)))
        agents.append(_vehicle(f"v{i:05d}", t0, speed, lane))
        if i % interactive_every == 0:
            walk = float(rng.uniform(1.0, 1.8))
            start = t0 + float(rng.uniform(0.0, 2.0))
            agents.append(AgentScript(f"p{i:05d}", ObjectClass.PEDESTRIAN, (
                (start, 0.0, 9.0), (start + 18.0 / walk, 0.0, -9.0))))
        t0 += 52.0 / speed + 2.0
    return ScenarioSpec(name=spot_id, config=synthetic_spot_config(spot_id=spot_id),
                        agents=tuple(agents), noise_sigma=noise_sigma,
                        drop_probability=0.0, seed=seed)
