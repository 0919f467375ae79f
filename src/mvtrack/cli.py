"""Command-line entry points: simulate -> track -> evaluate.

Exit codes: 2 for configuration errors, 3 for input format errors.
The log level is taken from the TRACK_LOG environment variable.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import config as config_mod
from . import metrics, scenarios, simulate, target
from .cascade import Mode
from .geometry import CameraRig, load_calibration, save_calibration
from .pipeline import run_pipeline
from .records import write_json, write_jsonl
from .sv_track import load_detections, save_detections

EXIT_CONFIG_ERROR = 2
EXIT_INPUT_ERROR = 3


def _setup_logging():
    level = os.environ.get("TRACK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(code: int, load, *args):
    """load(*args), exiting with `code` on OSError or ValueError."""
    try:
        return load(*args)
    except (OSError, ValueError) as exc:
        _fail(code, str(exc))


@click.group()
def main():
    """Multi-camera 3D tracking with a triangulation / ray-plane cascade."""
    _setup_logging()


@main.command("simulate")
@click.argument("scenario")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="Output directory for detections/truth/calib/routine files.")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
def cmd_simulate(scenario: str, out_dir: str, seed: int | None):
    """Generate a synthetic scene.

    SCENARIO is a scenario JSON file or one of the canned names:
    clean-4cam, opposite-only-episode, crowded-distractors.
    """
    try:
        if scenario in scenarios.CANNED:
            spec = scenarios.get_scenario_spec(scenario)
        else:
            with open(scenario) as fh:
                spec = json.load(fh)
    except FileNotFoundError:
        _fail(EXIT_CONFIG_ERROR, f"scenario not found: {scenario}")
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, f"unreadable scenario file: {exc}")
    if seed is not None:
        spec["seed"] = seed
    scene = _load(EXIT_CONFIG_ERROR, simulate.build_scenario, spec)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    detections, truth = simulate.render_detections(scene)
    save_detections(detections, out / "detections.jsonl")
    write_jsonl(out / "truth.jsonl", truth)
    save_calibration(scene.rig, out / "calib.json")
    cfg = config_mod.PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                                    perf_space=scene.space.perf, beta=scene.space.beta)
    config_mod.save_routine_config(cfg, out / "routine.json")
    click.echo(f"wrote {len(detections)} detections over {scene.duration} frames "
               f"to {out}")


@main.command("track")
@click.option("--detections", "detections_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--calib", "calib_path", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", required=True,
              type=click.Path(dir_okay=False), help="Routine config JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--mode", type=click.Choice([m.value for m in Mode]),
              default=Mode.CASCADE.value, show_default=True)
def cmd_track(detections_path, calib_path, config_path, out_dir, mode):
    """Track a detection stream into target tracklets (tracklets.jsonl)."""
    rig = _load(EXIT_CONFIG_ERROR, lambda: CameraRig(load_calibration(calib_path)))
    cfg = _load(EXIT_CONFIG_ERROR, config_mod.load_routine_config, config_path)
    for pair in cfg.opposite_pairs or ():
        if not set(pair) <= rig.cameras.keys():
            _fail(EXIT_CONFIG_ERROR,
                  f"opposite pair {pair} names a camera absent from calibration")
    detections = _load(EXIT_INPUT_ERROR, load_detections, detections_path, rig.cameras)

    records, _registry = run_pipeline(detections, rig, cfg, Mode(mode))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target.save_target_records(records, out / "tracklets.jsonl")
    click.echo(f"wrote {len(records)} target frames to {out / 'tracklets.jsonl'}")


@main.command("evaluate")
@click.option("--tracklets", "tracklets_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--truth", "truth_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "report_path", default=None, type=click.Path(dir_okay=False),
              help="Report path (default: report.json next to the tracklets).")
@click.option("--config", "config_path", default=None, type=click.Path(dir_okay=False),
              help="Routine config echoed into the report.")
def cmd_evaluate(tracklets_path, truth_path, report_path, config_path):
    """Score tracklets against ground truth into report.json."""
    records = _load(EXIT_INPUT_ERROR, target.load_target_records, tracklets_path)
    truth = _load(EXIT_INPUT_ERROR, simulate.load_truth, truth_path)
    cfg = _load(EXIT_CONFIG_ERROR, config_mod.load_routine_config, config_path) \
        if config_path else None
    report = _load(EXIT_INPUT_ERROR, metrics.evaluate, records, truth,
                   (cfg or config_mod.PipelineConfig()).window_len)
    if cfg is not None:
        report["config"] = asdict(cfg)
    if report_path is None:
        report_path = str(Path(tracklets_path).parent / "report.json")
    write_json(report_path, report)
    click.echo(json.dumps({k: report[k] for k in
                           ("id_switches", "aed_m", "failure_rate", "coverage")},
                          sort_keys=True))


if __name__ == "__main__":
    main()
