"""Kalman-filter object tracking, indexing, and trajectory validation.

Each object keeps a constant-velocity filter over its pixel contact point.
Per frame the tracker predicts every live track one step ahead, then
`assign` returns the matches {track id: detection}: among the same-class
(track, detection) pairs within a per-class pixel gate, the matching with
the most pairs and, of those, the least total distance (the optimal
assignment of SORT, solved by the Hungarian method). Unmatched detections
spawn tracks; unmatched tracks coast a few steps before closing.

Association against the prediction (rather than the last seen position) is
what keeps identities apart when paths cross: the prediction carries the
object's momentum through the crossing. A nearest-neighbor mode without
prediction is kept for comparison.

The filter runs in separable form, in plain floats. The state is
(x, y, vx, vy) with the 4x4 transition F = [[I, I], [0, I]] and the
position-only measurement H = [I, 0]. When the process noise is q*I, the
measurement noise r*I and the start covariance diag(r, r, V, V), F and H
act on the x and y axes alike and never mix them, so the 4x4 covariance
stays two equal 2x2 blocks over (x, vx) and (y, vy) with zero cross
terms. A track therefore keeps one symmetric 2x2 covariance (pp, pv, vv),
and predict and update are exact scalar forms of the matrix ones: their
operations run in the order of the dense products, which gives the same
floats. TrackState.state_mean and state_covariance are the 4-vector and
4x4 matrix derived from that state, read-only.

Validation scores tracks against ground truth, given as the true object
behind each (frame, detection id), so it applies to synthetic corpora. It
counts three kinds of trajectory defects: breaks in one object's coverage
(connectivity), mutual identity exchanges between two tracks (crossing),
and tracks containing points from several true objects (directivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Calibration
from .ingest import DetectionRecord, ObjectClass, _integer, _real

# Fresh tracks know their position to measurement accuracy but nothing
# about velocity; a huge velocity variance lets the first updates lock it.
_INITIAL_VELOCITY_VAR = 1e6


@dataclass(frozen=True)
class TrackerParams:
    gate_threshold_vehicle: float = 60.0
    gate_threshold_pedestrian: float = 20.0
    process_noise: float = 1.0
    measurement_noise: float = 2.0
    max_coast_frames: int = 3
    use_prediction: bool = True      # False: associate on last seen position

    def __post_init__(self):
        """Each field checked, not coerced: TypeError for a value of the
        wrong type (a bool is not a number), ValueError out of range."""
        if type(self.use_prediction) is not bool:
            raise TypeError(f"use_prediction must be true or false, "
                            f"got {self.use_prediction!r}")
        if not (_real(self.gate_threshold_vehicle, "gate_threshold_vehicle") > 0
                and _real(self.gate_threshold_pedestrian,
                          "gate_threshold_pedestrian") > 0):
            raise ValueError("gate thresholds must be > 0")
        if not 0 <= _real(self.process_noise, "process_noise") < math.inf:
            raise ValueError("process_noise must be finite and >= 0")
        # kalman_update divides by the square of pp + r, where pp >= 0.
        r = _real(self.measurement_noise, "measurement_noise")
        if not (r > 0 and 0 < r * r < math.inf):
            raise ValueError("measurement_noise must be > 0, with a finite "
                             "nonzero square")
        if _integer(self.max_coast_frames, "max_coast_frames") < 0:
            raise ValueError("max_coast_frames must be >= 0")


@dataclass(slots=True)
class TrackState:
    """One live track: filter state plus the points it has consumed, each
    as (frame, raw pixel, smoothed pixel, detection id).

    The filter state is the position (x, y) and velocity (vx, vy), in
    pixels and px/step, and one symmetric 2x2 covariance (pp, pv, vv) of
    (position, velocity) that both axes share: with Q = q*I, R = r*I and an
    isotropic start the x and y blocks of the 4x4 covariance never couple
    and stay equal (see the module docstring). state_mean and
    state_covariance are the 4-vector and 4x4 matrix derived from it.
    """

    object_id: str
    object_class: ObjectClass
    x: float
    y: float
    vx: float
    vy: float
    pp: float
    pv: float
    vv: float
    points: list[tuple] = field(default_factory=list)
    misses: int = 0

    @property
    def state_mean(self) -> np.ndarray:
        """(x, y, vx, vy)."""
        return np.array([self.x, self.y, self.vx, self.vy])

    @property
    def state_covariance(self) -> np.ndarray:
        """The 4x4 covariance of (x, y, vx, vy); off-block terms are 0."""
        pp, pv, vv = self.pp, self.pv, self.vv
        return np.array([[pp, 0.0, pv, 0.0],
                         [0.0, pp, 0.0, pv],
                         [pv, 0.0, vv, 0.0],
                         [0.0, pv, 0.0, vv]])


def new_track(object_id: str, detection: DetectionRecord,
              params: TrackerParams) -> TrackState:
    """A track started at `detection`, its first raw and smoothed point."""
    frame, cls, point, det_id = detection
    return TrackState(object_id, cls, point[0], point[1], 0.0, 0.0,
                      float(params.measurement_noise), 0.0,
                      _INITIAL_VELOCITY_VAR, [(frame, point, point, det_id)])


def kalman_predict(state: TrackState, process_noise: float) -> TrackState:
    """Propagate one step with the constant-velocity model.

    Per axis F = [[1, 1], [0, 1]], so P' = F P F^T + q*I.
    """
    pp, pv, vv = state.pp, state.pv, state.vv
    return TrackState(state.object_id, state.object_class,
                      state.x + state.vx, state.y + state.vy,
                      state.vx, state.vy,
                      ((pp + pv) + (pv + vv)) + process_noise, pv + vv,
                      vv + process_noise,
                      state.points, state.misses)


def kalman_update(state: TrackState, measurement: tuple[float, float],
                  measurement_noise: float) -> TrackState:
    """Fold a position measurement into a predicted state (Joseph form).

    Per axis H = [1, 0], so the innovation variance s = pp + r is a scalar
    and the gain is K = (pp, pv) / s. The covariance is
    (I - K H) P (I - K H)^T + r K K^T, then symmetrised.
    """
    pp, pv, vv = state.pp, state.pv, state.vv
    r = measurement_noise
    s = pp + r
    # s / s^2 rather than 1 / s: the inverse of S = s*I as adjugate over
    # determinant, rounded as the matrix form rounds it.
    inv = s / (s * s)
    k1 = pp * inv
    k2 = pv * inv
    ik = 1.0 - k1
    # M = (I - K H) P, then M (I - K H)^T + r K K^T, entry by entry; its
    # two off-diagonal entries differ in rounding only.
    m00 = ik * pp
    m01 = ik * pv
    m10 = -k2 * pp + pv
    m11 = -k2 * pv + vv
    upper = (m00 * -k2 + m01) + r * (k1 * k2)
    lower = m10 * ik + r * (k2 * k1)
    dx = measurement[0] - state.x
    dy = measurement[1] - state.y
    return TrackState(state.object_id, state.object_class,
                      state.x + k1 * dx, state.y + k1 * dy,
                      state.vx + k2 * dx, state.vy + k2 * dy,
                      m00 * ik + r * (k1 * k1), (upper + lower) / 2.0,
                      (m10 * -k2 + m11) + r * (k2 * k2),
                      state.points, state.misses)


def assign(tracks: dict[str, TrackState], detections: list[DetectionRecord],
           params: TrackerParams) -> dict[str, DetectionRecord]:
    """Match same-class detections to tracks and return the matches as
    {track id: detection}.

    `tracks` are the live tracks predicted to this frame; without
    prediction each is matched from its last consumed point instead.
    Detection ids are unique within the frame. Of the (track, detection)
    pairs within their class's gate, the matches are the matching with the
    most pairs and, among those, the least total distance. When no track
    and no detection is in two such pairs, they are that matching as they
    stand; otherwise each class is solved as an assignment problem over
    rows and columns in id order, so input order does not matter.
    """
    # Bucket by class once. Two lists picked by identity: hashing an enum
    # member runs Python code and costs more than the pair test it saves.
    vehicles: list[DetectionRecord] = []
    pedestrians: list[DetectionRecord] = []
    for det in detections:
        (vehicles if det.object_class is ObjectClass.VEHICLE
         else pedestrians).append(det)
    candidates = []
    for tid, track in tracks.items():
        ref = ((track.x, track.y) if params.use_prediction
               else track.points[-1][1])
        if track.object_class is ObjectClass.VEHICLE:
            gate, same_class = params.gate_threshold_vehicle, vehicles
        else:
            gate, same_class = params.gate_threshold_pedestrian, pedestrians
        for det in same_class:
            d = math.dist(ref, det.contact_point_px)
            if d <= gate:
                candidates.append((d, det.detection_id, tid, det))

    if (len({c[1] for c in candidates}) == len({c[2] for c in candidates})
            == len(candidates)):
        return {tid: det for _, _, tid, det in candidates}
    matches: dict[str, DetectionRecord] = {}
    for cls in ObjectClass:
        pairs = [c for c in candidates if c[3].object_class is cls]
        by_id = {det_id: det for _, det_id, _, det in pairs}
        tids, det_ids = sorted({tid for _, _, tid, _ in pairs}), sorted(by_id)
        row = {tid: i for i, tid in enumerate(tids)}
        col = {det_id: j for j, det_id in enumerate(det_ids)}
        # A pair left out costs more than all in-gate pairs together, so
        # the least total also takes the most pairs.
        missing = sum(c[0] for c in pairs) + 1.0
        n = max(len(tids), len(det_ids))
        cost = [[missing] * n for _ in range(n)]
        for d, det_id, tid, _ in pairs:
            cost[row[tid]][col[det_id]] = d
        for i, j in _min_cost_assignment(cost):
            if cost[i][j] < missing:
                matches[tids[i]] = by_id[det_ids[j]]
    return matches


def _min_cost_assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """The (row, column) pairs of a least-total perfect matching of the
    square matrix `cost`: the Hungarian method, which adds one row at a
    time along a shortest augmenting path under dual potentials."""
    n = len(cost)
    u = [0.0] * (n + 1)          # row potentials, 1-based
    v = [0.0] * (n + 1)          # column potentials; column 0 is the root
    owner = [0] * (n + 1)        # the row matched to each column, 0: none
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        dist = [math.inf] * (n + 1)  # reduced shortest-path length to a column
        prev = [0] * (n + 1)         # the column before it on that path
        tree, free = [0], list(range(1, n + 1))  # columns reached, the rest
        while owner[j0]:
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in free:
                reduced = row[j - 1] - ui - v[j]
                if reduced < dist[j]:
                    dist[j], prev[j] = reduced, j0
                if dist[j] < delta:
                    delta, j1 = dist[j], j
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                dist[j] -= delta
            free.remove(j1)
            tree.append(j1)
            j0 = j1
        while j0:
            owner[j0] = owner[prev[j0]]
            j0 = prev[j0]
    return [(owner[j] - 1, j - 1) for j in range(1, n + 1)]


class TrackPoint(NamedTuple):
    """One trajectory sample: raw and smoothed pixels plus world meters."""

    frame: int
    t: float
    raw_px: tuple[float, float]
    smooth_px: tuple[float, float]
    world: tuple[float, float]
    detection_id: str


@dataclass
class Trajectory:
    """An indexed object's ordered track through a run of scenes, or
    through one scene window as the extract stage reads it back."""

    object_id: str
    object_class: ObjectClass
    points: list[TrackPoint]

    def __len__(self):
        return len(self.points)

    @property
    def frames(self) -> list[int]:
        return [p.frame for p in self.points]

    def world_array(self) -> np.ndarray:
        return np.array([p.world for p in self.points])

    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])


def track_scene(detections, params: TrackerParams, calib: Calibration,
                fps: float, frame_stride: int = 1) -> list[Trajectory]:
    """Run the full predict/assign/update loop over one run of scenes.

    detections: frame-ordered DetectionRecord sequence, the detections of
    one run of overlapping scene windows (a single scene when its window
    overlaps no other), with ids unique within each frame (ingest rejects
    a repeat); the track stage cuts the tracks back to each window. Frames
    are walked at the sampling stride from the first to the last detected
    frame, so every frame must lie on that grid (ingest rejects frames off
    it); a stride with no detections coasts every live track.
    Returns one Trajectory per object identity in object id order,
    world-projected, with both the raw contact points and the
    Kalman-smoothed ones.
    """
    records = list(detections)
    if not records:
        return []
    by_frame: dict[int, list[DetectionRecord]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame_index, []).append(rec)
    first, last = records[0].frame_index, records[-1].frame_index

    live: dict[str, TrackState] = {}
    finished: list[TrackState] = []
    counter = 0

    for frame in range(first, last + 1, frame_stride):
        dets = sorted(by_frame.get(frame, ()), key=lambda d: d.detection_id)
        predicted = {tid: kalman_predict(t, params.process_noise)
                     for tid, t in live.items()}
        matches = assign(predicted, dets, params)

        live = {}
        taken = set()
        for tid, state in predicted.items():
            det = matches.get(tid)
            if det is not None:
                state = kalman_update(state, det.contact_point_px,
                                      params.measurement_noise)
                state.misses = 0
                state.points.append((frame, det.contact_point_px,
                                     (state.x, state.y), det.detection_id))
                taken.add(det.detection_id)
            else:
                state.misses += 1
                if state.misses > params.max_coast_frames:
                    finished.append(state)
                    continue
            live[tid] = state

        for det in dets:
            if det.detection_id not in taken:
                tid = f"t{counter:04d}"
                counter += 1
                live[tid] = new_track(tid, det, params)

    finished.extend(live.values())

    trajectories = []
    for state in sorted(finished, key=lambda s: s.object_id):
        world = calib.to_world_many(np.array([p[1] for p in state.points]))
        pts = [TrackPoint(frame, frame / fps, raw, smooth, tuple(w), det_id)
               for (frame, raw, smooth, det_id), w in zip(
                   state.points, world.tolist())]
        trajectories.append(Trajectory(state.object_id, state.object_class,
                                       pts))
    return trajectories


# --- validation -------------------------------------------------------------


@dataclass
class SceneValidation:
    """Violation counts for one scene."""

    connectivity: int = 0
    crossing: int = 0
    directivity: int = 0

    @property
    def clean(self) -> bool:
        return self.connectivity == 0 and self.crossing == 0 and self.directivity == 0


@dataclass
class TrajectoryReport:
    """Corpus-level validation summary in the shape of a results table."""

    scenes_total: int
    connectivity: int
    crossing: int
    directivity: int
    violating_scenes: int

    @property
    def accuracy(self) -> float:
        if self.scenes_total == 0:
            return 1.0
        return 1.0 - self.violating_scenes / self.scenes_total


def _dominant_sequence(traj: Trajectory, truth: dict) -> list[str]:
    """Per-point true identities for a track, via detection provenance."""
    out = []
    for p in traj.points:
        agent = truth.get((p.frame, p.detection_id))
        if agent is not None:
            out.append(agent)
    return out


def validate_trajectories(trajectories: list[Trajectory], truth: dict,
                          params: TrackerParams | None = None,
                          frame_stride: int = 1) -> SceneValidation:
    """Count connectivity/crossing/directivity violations for one scene.

    truth maps (frame_index, detection_id) to the true object identity.
    frame_stride converts raw frame gaps into sampled steps for the
    connectivity check.
    """
    params = params or TrackerParams()
    result = SceneValidation()

    # Directivity: a track containing points of two or more true objects.
    ids_per_track = {}
    for traj in trajectories:
        seq = _dominant_sequence(traj, truth)
        ids_per_track[traj.object_id] = seq
        if len(set(seq)) >= 2:
            result.directivity += 1

    # Crossing: a pair of tracks that exchanged a pair of true identities.
    tids = sorted(ids_per_track)
    counted = set()
    for i in range(len(tids)):
        for j in range(i + 1, len(tids)):
            a, b = ids_per_track[tids[i]], ids_per_track[tids[j]]
            if not a or not b:
                continue
            pair = frozenset((a[0], b[0]))
            if (len(pair) == 2 and a[-1] != a[0] and b[-1] != b[0]
                    and a[-1] == b[0] and b[-1] == a[0]
                    and pair not in counted):
                result.crossing += 1
                counted.add(pair)

    # Connectivity: one true object's coverage split across several track
    # ids with a gap longer than the coast allowance between the pieces.
    coverage: dict[str, list[tuple[int, str]]] = {}
    for traj in trajectories:
        for p in traj.points:
            agent = truth.get((p.frame, p.detection_id))
            if agent is not None:
                coverage.setdefault(agent, []).append((p.frame, traj.object_id))
    for agent, hits in coverage.items():
        hits.sort()
        split = False
        for (f0, t0), (f1, t1) in zip(hits, hits[1:]):
            missing_steps = (f1 - f0) // frame_stride - 1
            if t0 != t1 and missing_steps > params.max_coast_frames:
                split = True
        if split:
            result.connectivity += 1
    return result


def summarize_validations(validations: list[SceneValidation]) -> TrajectoryReport:
    """Aggregate per-scene counts into the corpus-level report."""
    return TrajectoryReport(
        scenes_total=len(validations),
        connectivity=sum(v.connectivity for v in validations),
        crossing=sum(v.crossing for v in validations),
        directivity=sum(v.directivity for v in validations),
        violating_scenes=sum(0 if v.clean else 1 for v in validations),
    )
