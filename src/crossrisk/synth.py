"""Synthetic corpora with exact ground truth.

Scenarios script agents as piecewise-linear world paths with timestamps.
Generation projects the scripted positions through a genuinely oblique
camera (so the rectification path is always exercised), samples them at
the spot's stride, adds Gaussian pixel noise, and applies dropouts. It
works on numpy columns per agent and orders the whole stream with one
`np.lexsort`, so it builds no per-detection list and sorts nothing in
Python; the stream comes back as an `ingest.DetectionTable`. The
scripts are the ground truth: `AgentScript.world_at` and
`AgentScript.speed_list_kmh` give an agent's exact position and speed at
any time or frames, so no sampled position is stored. `GroundTruth` keeps
what the scripts alone do not give: the frames at which each agent was
emitted (and from them the provenance of every detection) and the scene
spans of the emitted stream. The PSM and stop truths come straight from
the scripts, independent of any pipeline code path: `analytic_psm` for a
vehicle-pedestrian pair and `_scripted_stop` for a vehicle.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpec
from .ingest import DetectionTable, ObjectClass, SpotConfig, parse_spot_config
from .motion_gate import SceneSpan, hangover_frames_at, segment_scenes

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

    def world_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """World (x, y) in meters at the time(s) t in seconds: linear
        between waypoints, held at the ends."""
        ts, xs, ys = np.array(self.waypoints).T
        return np.interp(t, ts, xs), np.interp(t, ts, ys)

    def speed_list_kmh(self, frames: list[int], fps: float) -> list[float]:
        """Analytic speeds between consecutive frames of any frame subset."""
        xs, ys = self.world_at(np.asarray(frames) / fps)
        pos = list(zip(xs.tolist(), ys.tolist()))
        return [math.dist(a, b) / ((f1 - f0) / fps) * MPS_TO_KMH
                for (a, b, f0, f1) in zip(pos, pos[1:], frames, frames[1:])]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    config: SpotConfig
    agents: tuple[AgentScript, ...]
    noise_sigma: float = 0.0
    drop_probability: float = 0.0
    seed: int = 0


@dataclass
class GroundTruth:
    """What the scripts alone do not give about one generated scenario:
    the frames at which each agent was emitted, after blackouts and drops,
    and the scene spans of the emitted stream. PSM and stops follow from
    the scripts (`analytic_psm`, `_scripted_stop`).

    The emitted frames are held compactly, 8 bytes a frame: `agent_ids`
    lists the agents in id order, the int64 column `frames` holds each
    agent's frames in turn, and agent k's are
    `frames[offsets[k]:offsets[k + 1]]`. `emitted_frames` gives them as a
    dict of lists, built each time it is read.
    """

    agent_ids: tuple[str, ...]
    frames: array
    offsets: array
    spans: list[SceneSpan]

    def agent_frames(self):
        """(agent id, its emitted frames as an int64 `array`) for each
        agent, in id order."""
        for aid, lo, hi in zip(self.agent_ids, self.offsets, self.offsets[1:]):
            yield aid, self.frames[lo:hi]

    @property
    def emitted_frames(self) -> dict[str, list[int]]:
        """Agent id -> the frames with a detection of that agent."""
        return {aid: frames.tolist() for aid, frames in self.agent_frames()}

    @cached_property
    def provenance(self) -> dict[tuple[int, str], str]:
        """(frame, detection_id) -> agent for every emitted detection;
        synthetic detection ids are agent ids."""
        return {(frame, aid): aid for aid, frames in self.agent_frames()
                for frame in frames}


def synthetic_spot_config(spot_id: str = "synthA",
                          signalized: bool = False) -> SpotConfig:
    """A crosswalk spot seen from an oblique camera.

    World frame: the road runs along x, vehicles travel +x; the crosswalk
    spans the road at x in [-2, 2]; sidewalks flank the road beyond
    |y| = 7. The camera looks down the road: the near curb fills the
    bottom of the frame, the far end narrows toward the top. The camera
    gives 1920x1080 frames at 25 fps, of which every fifth is kept.
    """
    w, h = 1920, 1080
    correspondences = [
        {"pixel": [0.073 * w, 0.926 * h], "world": [-30.0, -11.0]},
        {"pixel": [0.927 * w, 0.926 * h], "world": [30.0, -11.0]},
        {"pixel": [0.667 * w, 0.241 * h], "world": [30.0, 11.0]},
        {"pixel": [0.333 * w, 0.241 * h], "world": [-30.0, 11.0]},
    ]
    return parse_spot_config({
        "spot_id": spot_id,
        "crosswalk_length_m": 14.0,
        "lanes": 2,
        "signalized": signalized,
        "school_zone": True,
        "speed_camera": False,
        "speed_limit_kmh": 30.0,
        "frame_size": [w, h],
        "fps": 25.0,
        "frame_skip": 5,
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


def generate(spec: ScenarioSpec) -> tuple[DetectionTable, GroundTruth]:
    """Emit the detection stream and exact ground truth for one scenario.

    Work is vectorized per agent, so cost scales with the number of emitted
    detections, not frames times agents, and no Python object is made per
    detection: each agent's visible frames go onto the truth's frame
    column and its points stay numpy columns, one stable sort of the frame
    column orders them all (ties in agent id order), and the stream is
    returned as a `DetectionTable` of the sorted columns, each numpy
    column let go once copied. Agents that share an id raise InvalidSpec,
    since their detections could not be told apart.
    """
    config = spec.config
    calib = config.build_calibration()
    inv_h = np.linalg.inv(calib.homography)
    w, h = config.frame_size
    fps, skip = config.fps, config.frame_skip
    rng = np.random.default_rng(spec.seed)

    agents = sorted(spec.agents, key=lambda a: a.agent_id)
    for a, b in zip(agents, agents[1:]):
        if a.agent_id == b.agent_id:
            raise InvalidSpec(
                f"{spec.name}: two agents share the id {a.agent_id!r}")
    # Agent k's visible frames are emitted[offsets[k]:offsets[k + 1]].
    emitted, offsets = array("q"), array("q")
    xs, ys = [np.empty(0)], [np.empty(0)]

    for agent in agents:
        offsets.append(len(emitted))
        first = int(math.ceil(agent.t_start * fps / skip)) * skip
        last = int(math.floor(agent.t_end * fps / skip)) * skip
        if last < first:
            continue
        frames = np.arange(first, last + 1, skip, dtype=np.int64)
        t = frames / fps
        wx, wy = agent.world_at(t)
        homog = np.column_stack([wx, wy, np.ones_like(wx)]) @ inv_h.T
        px = homog[:, 0] / homog[:, 2]
        py = homog[:, 1] / homog[:, 2]
        inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
        if not inside.all():
            bad = int(np.argmin(inside))
            raise InvalidSpec(
                f"{spec.name}: agent {agent.agent_id} projects outside the "
                f"frame at t={t[bad]:.2f} ({px[bad]:.0f}, {py[bad]:.0f})")

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
        emitted.frombytes(frames[visible].tobytes())
        xs.append(ex[visible])
        ys.append(ey[visible])
    offsets.append(len(emitted))

    # A stable sort on frames keeps each frame's detections in agent id
    # order, as the columns were appended. Rebinding each name lets go of
    # its numpy column before the next one is copied.
    frames = np.frombuffer(emitted, dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    frames = array("q", frames[order].tobytes())
    xs = np.concatenate(xs)
    xs = array("d", xs[order].tobytes())
    ys = np.concatenate(ys)
    ys = array("d", ys[order].tobytes())
    ranks = np.repeat(np.arange(len(agents)), np.diff(offsets))[order]
    del order
    records = DetectionTable(
        frames, xs, ys,
        np.array([a.object_class for a in agents], dtype=object)[ranks].tolist(),
        np.array([a.agent_id for a in agents], dtype=object)[ranks].tolist())
    del ranks
    spans = segment_scenes(records, hangover_frames_at(fps))
    return records, GroundTruth(
        agent_ids=tuple(a.agent_id for a in agents), frames=emitted,
        offsets=offsets, spans=spans)


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
    and occlusion_gap stress identity keeping and connectivity. Each spec
    comes with the truth `generate` gives for it.
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
        corpus.append((spec, generate(spec)[1]))
    return corpus


def traffic_spec(n_scenes: int, seed: int = 0,
                 noise_sigma: float = 1.0) -> ScenarioSpec:
    """One long stream of staggered scenes for throughput runs, on the
    spot "bulk".

    Every scene is a vehicle pass; every third scene adds a crossing
    pedestrian.
    """
    rng = np.random.default_rng(seed)
    agents = []
    t0 = 0.0
    for i in range(n_scenes):
        speed = float(rng.uniform(5.0, 12.0))
        lane = float(rng.choice((-3.5, -1.5, 1.5, 3.5)))
        agents.append(_vehicle(f"v{i:05d}", t0, speed, lane))
        if i % 3 == 0:
            walk = float(rng.uniform(1.0, 1.8))
            start = t0 + float(rng.uniform(0.0, 2.0))
            agents.append(AgentScript(f"p{i:05d}", ObjectClass.PEDESTRIAN, (
                (start, 0.0, 9.0), (start + 18.0 / walk, 0.0, -9.0))))
        t0 += 52.0 / speed + 2.0
    return ScenarioSpec(name="bulk", config=synthetic_spot_config(spot_id="bulk"),
                        agents=tuple(agents), noise_sigma=noise_sigma,
                        drop_probability=0.0, seed=seed)
