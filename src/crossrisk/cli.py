"""Command-line front end: synth | segment | track | extract | analyze |
report | all.

Each stage reads the previous stage's files from the output directory and
writes its own; any stage can be re-run in isolation. Segment and track
skip a spot whose output `run.json` shows made from the files, code and
tracker parameters there now, and extract then only derives the features
again (see `stages`). To make a stage run again on such a spot, delete
its output file (`scenes.jsonl`, `trajectories.jsonl` or
`features.jsonl`), or delete `run.json` to make every stage run again.
A stage whose recorded input was made from spot files that have changed
since refuses the spot before any work (`StaleInput`, exit 1) and names
the stage to run again; analyze refuses features whose scenes or tracks
have been made again since.
Exit codes: 0 on success, 1 on a data error (a machine-readable
diagnostic goes to stderr), 2 on usage errors.

Every subcommand takes --out-dir and -v. Beyond those, each takes only
the flags its stage reads, and a flag it does not read is a usage error:

    synth    --seed --corpus --scenes --noise-sigma --drop-probability
    segment  --spot
    track    --spot --workers --config
    extract  --spot --workers --alpha --epsilon-kmh --config
    analyze  --spot --baseline-m
    report   (none)
    all      every flag above

Likewise a --config file holds only the sections its stage reads: a
"tracker" object for track, a "features" object for extract, both for all.
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


# Every stage flag: the stages besides `all` that read it, then its argparse
# options. A flag not given keeps the default of the field named by its dest.
_FLAGS = (
    ("--seed", ("synth",),
     dict(type=int, help="seed fixing all randomness end to end")),
    ("--corpus", ("synth",), dict(choices=["standard", "bulk"])),
    ("--scenes", ("synth",), dict(type=int, dest="bulk_scenes", metavar="N",
                                  help="scene count for the bulk corpus")),
    ("--noise-sigma", ("synth",),
     dict(type=float, help="detection pixel noise")),
    ("--drop-probability", ("synth",),
     dict(type=float, help="missed-detection probability")),
    ("--spot", ("segment", "track", "extract", "analyze"),
     dict(help="restrict the stage to one spot")),
    ("--workers", ("track", "extract"),
     dict(type=int, help="parallel workers for scene stages")),
    ("--config", ("track", "extract"),
     dict(help="JSON file with parameter overrides")),
    ("--alpha", ("extract",),
     dict(type=float, help="low-pass smoothing factor")),
    ("--epsilon-kmh", ("extract",),
     dict(type=float, help="acceleration dead-band per step")),
    ("--baseline-m", ("analyze",),
     dict(type=float, help="stop-distance baseline in meters")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrisk",
        description="Crosswalk camera analytics: trajectories, behavioral "
                    "features, and pedestrian safety margins.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage",
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--out-dir", type=Path, default=Path("out"),
                       help="pipeline directory (default: ./out)")
        for flag, stages, options in _FLAGS:
            if name == "all" or name in stages:
                p.add_argument(flag, **options)
        p.add_argument("-v", "--verbose", action="store_true", default=False)
    return parser


# FeatureParams fields set by their own flag, not by --config.
_FLAGGED = {"alpha": "--alpha", "epsilon_kmh": "--epsilon-kmh"}

# Each --config section: the stage besides `all` that reads it, and the
# fields it sets.
_SECTIONS = {"tracker": ("track", TrackerParams),
             "features": ("extract", FeatureParams)}


def _load_overrides(path: str, command: str) -> dict:
    """The --config document: optional "tracker" and "features" objects of
    TrackerParams and FeatureParams fields, each only for a stage that
    reads it. ValueError names the first problem."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        for key, section in doc.items():
            stage, params = _SECTIONS.get(key, (None, None))
            if params is None or not isinstance(section, dict):
                raise ValueError(f"{key!r} is not a tracker or features object")
            if command not in (stage, "all"):
                raise ValueError(f"{command} does not read {key!r}")
            for name in section:
                if name not in {f.name for f in fields(params)}:
                    raise ValueError(f"unknown key {key}.{name}")
                if name in _FLAGGED:
                    raise ValueError(f"{key}.{name} is set by {_FLAGGED[name]}")
    except (OSError, ValueError) as exc:
        raise ValueError(f"--config {path}: {exc}") from exc
    return doc


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The PipelineConfig of the flags given; a flag not given keeps the
    default of its PipelineConfig or FeatureParams field."""
    given = vars(args)
    overrides = (_load_overrides(given["config"], args.command)
                 if given.get("config") else {})
    return PipelineConfig(
        **{f.name: given[f.name] for f in fields(PipelineConfig)
           if f.name in given},
        tracker=TrackerParams(**overrides.get("tracker", {})),
        features=FeatureParams(
            **{name: given[name] for name in _FLAGGED if name in given},
            **overrides.get("features", {})),
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
