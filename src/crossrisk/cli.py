"""Command-line front end: synth | segment | track | extract | analyze |
report | all.

Each stage reads the previous stage's files from the output directory and
writes its own; any stage can be re-run in isolation. Exit codes: 0 on
success, 1 on a data error (a machine-readable diagnostic goes to
stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .errors import PipelineError
from .features import FeatureParams
from .stages import (
    PipelineConfig,
    run_all,
    run_analyze,
    run_extract,
    run_report,
    run_segment,
    run_synth,
    run_track,
)
from .tracker import TrackerParams

log = logging.getLogger(__name__)

STAGES = {
    "synth": run_synth,
    "segment": run_segment,
    "track": run_track,
    "extract": run_extract,
    "analyze": run_analyze,
    "report": run_report,
    "all": run_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="Crosswalk camera analytics: trajectories, behavioral "
                    "features, and pedestrian safety margins.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--out-dir", default="out",
                       help="pipeline directory (default: ./out)")
        p.add_argument("--config", default=None,
                       help="JSON file with parameter overrides")
        p.add_argument("--spot", default=None,
                       help="restrict the stage to one spot")
        p.add_argument("--seed", type=int, default=0,
                       help="seed fixing all randomness end to end")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel workers for scene stages")
        p.add_argument("--baseline-m", type=float, default=10.0,
                       help="stop-distance baseline in meters")
        p.add_argument("--epsilon-kmh", type=float, default=0.5,
                       help="acceleration dead-band per step")
        p.add_argument("--alpha", type=float, default=0.3,
                       help="low-pass smoothing factor")
        p.add_argument("-v", "--verbose", action="store_true")
        if name in ("synth", "all"):
            p.add_argument("--corpus", choices=["standard", "bulk"],
                           default="standard")
            p.add_argument("--scenes", type=int, default=400,
                           help="scene count for the bulk corpus")
            p.add_argument("--noise-sigma", type=float, default=0.0,
                           help="detection pixel noise")
            p.add_argument("--drop-probability", type=float, default=0.0,
                           help="missed-detection probability")
    return parser


# FeatureParams fields set by their own flag, not by --config.
_FLAGGED = {"alpha": "--alpha", "epsilon_kmh": "--epsilon-kmh"}


def _load_overrides(path: str) -> dict:
    """The --config document: optional "tracker" and "features" objects of
    TrackerParams and FeatureParams fields. ValueError names the first
    problem."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        for key, section in doc.items():
            params = {"tracker": TrackerParams, "features": FeatureParams}.get(key)
            if params is None or not isinstance(section, dict):
                raise ValueError(f"{key!r} is not a tracker or features object")
            for name in section:
                if name not in {f.name for f in fields(params)}:
                    raise ValueError(f"unknown key {key}.{name}")
                if name in _FLAGGED:
                    raise ValueError(f"{key}.{name} is set by {_FLAGGED[name]}")
    except (OSError, ValueError) as exc:
        raise ValueError(f"--config {path}: {exc}") from exc
    return doc


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = _load_overrides(args.config) if args.config else {}
    tracker_params = TrackerParams(**overrides.get("tracker", {}))
    feature_params = FeatureParams(
        alpha=args.alpha, epsilon_kmh=args.epsilon_kmh,
        **overrides.get("features", {}))
    return PipelineConfig(
        out_dir=Path(args.out_dir),
        seed=args.seed,
        workers=args.workers,
        corpus=getattr(args, "corpus", "standard"),
        bulk_scenes=getattr(args, "scenes", 400),
        noise_sigma=getattr(args, "noise_sigma", 0.0),
        drop_probability=getattr(args, "drop_probability", 0.0),
        spot=args.spot,
        baseline_m=args.baseline_m,
        tracker=tracker_params,
        features=feature_params,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        cfg = config_from_args(args)
    except (TypeError, ValueError) as exc:   # a bad --config or flag value
        parser.error(str(exc))
    try:
        STAGES[args.command](cfg)
    except PipelineError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc),
            "stage": args.command}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({
            "error": "IoFailure", "message": str(exc),
            "stage": args.command}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
