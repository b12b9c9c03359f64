"""Seeded corpora for the three benchmark workloads.

Each workload is a list of spots; a spot is a synth ScenarioSpec. The
workload seed picks every random choice here and the noise seed of each
spec, so the same seed always gives byte-identical spot files. The
program only ever sees the generated files.

- bulk: the reference workload of the roadmap, one unsignalized spot of
  sequential single-vehicle passes (synth.traffic_spec).
- crowd: four spots, two signalized and two unsignalized, with
  overlapping traffic in all four lanes and pedestrian groups.
- lossy: the crowd generator on one unsignalized spot with a 5 %
  per-detection miss rate.
"""

from __future__ import annotations

import json

import numpy as np

from crossrisk import stages, synth
from crossrisk.ingest import ObjectClass, format_detection, spot_config_to_dict

BULK_SCENES = 1850
BULK_NOISE_SIGMA = 1.0

LANES_M = (-3.5, -1.5, 1.5, 3.5)
ROAD_X_M = (-26.0, 26.0)
VEHICLE_SPEED_MPS = (6.0, 11.0)
ARRIVAL_GAP_S = (0.8, 2.2)
# Entry and exit in one lane at least this far apart: no overtaking.
LANE_HEADWAY_S = 1.0
GROUP_EVERY = 3
GROUP_SIZE = (1, 3)
CROSSING_X_M = (-1.5, 1.5)
CURB_Y_M = 9.0
WALK_SPEED_MPS = (1.0, 1.8)
NOISE_SIGMA = 1.0
CROWD_VEHICLES = 150
LOSSY_DROP = 0.05


def crowd_spec(spot_id: str, signalized: bool, n_vehicles: int,
               seed: int, drop_probability: float = 0.0) -> synth.ScenarioSpec:
    """Interactive traffic: a vehicle every 0.8-2.2 s in one of four lanes,
    and a group of 1-3 pedestrians crossing after every third vehicle."""
    rng = np.random.default_rng(seed)
    x0, x1 = ROAD_X_M
    agents = []
    lane_last: dict[float, tuple[float, float]] = {}
    clock = 0.0
    for i in range(n_vehicles):
        clock += float(rng.uniform(*ARRIVAL_GAP_S))
        lane = float(rng.choice(LANES_M))
        travel = (x1 - x0) / float(rng.uniform(*VEHICLE_SPEED_MPS))
        t0 = clock
        if lane in lane_last:
            entry, exit_ = lane_last[lane]
            t0 = max(t0, entry + LANE_HEADWAY_S, exit_ + LANE_HEADWAY_S - travel)
        lane_last[lane] = (t0, t0 + travel)
        agents.append(synth.AgentScript(f"v{i:04d}", ObjectClass.VEHICLE, (
            (t0, x0, lane), (t0 + travel, x1, lane))))
        if i % GROUP_EVERY == GROUP_EVERY - 1:
            side = float(rng.choice((-1.0, 1.0)))
            start = clock + float(rng.uniform(0.0, 2.0))
            for k in range(int(rng.integers(GROUP_SIZE[0], GROUP_SIZE[1] + 1))):
                x = float(rng.uniform(*CROSSING_X_M))
                t = start + float(rng.uniform(0.0, 1.0))
                walk = 2 * CURB_Y_M / float(rng.uniform(*WALK_SPEED_MPS))
                agents.append(synth.AgentScript(
                    f"p{i:04d}_{k}", ObjectClass.PEDESTRIAN, (
                        (t, x, side * CURB_Y_M), (t + walk, x, -side * CURB_Y_M))))
    return synth.ScenarioSpec(
        name=spot_id,
        config=synth.synthetic_spot_config(spot_id=spot_id, signalized=signalized),
        agents=tuple(agents), noise_sigma=NOISE_SIGMA,
        drop_probability=drop_probability, seed=seed)


def specs(workload: str, seed: int) -> list[synth.ScenarioSpec]:
    """The scenario of every spot of a workload, all fixed by seed."""
    if workload == "bulk":
        return [synth.traffic_spec(BULK_SCENES, seed=seed,
                                   noise_sigma=BULK_NOISE_SIGMA)]
    if workload == "crowd":
        spots = [("crowd_sig0", True), ("crowd_sig1", True),
                 ("crowd_uns0", False), ("crowd_uns1", False)]
        return [crowd_spec(spot_id, signalized, CROWD_VEHICLES,
                           seed=seed * len(spots) + k)
                for k, (spot_id, signalized) in enumerate(spots)]
    if workload == "lossy":
        return [crowd_spec("lossy", False, CROWD_VEHICLES, seed=seed,
                           drop_probability=LOSSY_DROP)]
    raise ValueError(f"unknown workload {workload!r}")


def write_spot(out_dir, spec: synth.ScenarioSpec) -> synth.GroundTruth:
    """Generate one spot and write the files the segment stage reads, in
    the layout the synth stage uses."""
    records, truth = synth.generate(spec)
    spot_dir = out_dir / spec.config.spot_id
    spot_dir.mkdir(parents=True, exist_ok=True)
    (spot_dir / "config.json").write_text(
        json.dumps(spot_config_to_dict(spec.config), sort_keys=True, indent=1))
    with open(spot_dir / "detections.jsonl", "w") as fh:
        fh.write(json.dumps({"schema": stages.SCHEMAS["detections"]}) + "\n")
        for rec in records:
            fh.write(format_detection(rec) + "\n")
    return truth


def build(workload: str, seed: int, out_dir) -> dict[str, dict[str, list[int]]]:
    """Write the workload's corpus under out_dir.

    Returns, per spot written here, the frames at which each agent was
    emitted. bulk goes through the synth stage, which keeps the same in
    each spot's truth.json; see emitted_frames.
    """
    if workload == "bulk":
        # crossrisk synth --corpus bulk --scenes 1850 --noise-sigma 1.0
        stages.run_synth(stages.PipelineConfig(
            out_dir=out_dir, seed=seed, corpus="bulk", bulk_scenes=BULK_SCENES,
            noise_sigma=BULK_NOISE_SIGMA))
        return {}
    return {spec.config.spot_id: write_spot(out_dir, spec).emitted_frames
            for spec in specs(workload, seed)}


def emitted_frames(out_dir, built: dict) -> dict[str, dict[str, list[int]]]:
    """Per spot and agent, the frames with a detection of that agent.

    This is the ground-truth provenance of every detection, since
    synthetic detection ids are agent ids.
    """
    frames = dict(built)
    for path in sorted(out_dir.glob("*/truth.json")):
        frames[path.parent.name] = json.loads(path.read_text())["emitted_frames"]
    return frames
