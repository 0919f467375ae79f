"""Command-line entry points: simulate -> track -> evaluate.

Exit codes: 2 for configuration errors, 3 for input format errors.
The log level is taken from the TRACK_LOG environment variable.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from pathlib import Path

import click

from . import config as config_mod
from . import metrics, scenarios, simulate, target
from .cascade import Mode
from .geometry import CameraRig, load_calibration, save_calibration
from .pipeline import run_pipeline
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
    try:
        scene = simulate.build_scenario(spec)
    except ValueError as exc:
        _fail(EXIT_CONFIG_ERROR, str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    detections, truth = simulate.render_detections(scene)
    save_detections(detections, out / "detections.jsonl")
    simulate.save_truth(truth, out / "truth.jsonl")
    save_calibration(scene.rig, out / "calib.json")
    cfg = config_mod.PipelineConfig(
        plane_n=tuple(scene.plane.n.tolist()),
        plane_point=tuple(scene.plane.point.tolist()),
        perf_space=tuple(scene.space.perf), beta=scene.space.beta)
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
    for path, label in ((calib_path, "calibration"), (config_path, "routine config")):
        if not os.path.exists(path):
            _fail(EXIT_CONFIG_ERROR, f"missing {label} file: {path}")
    try:
        rig = CameraRig(load_calibration(calib_path))
        cfg = config_mod.load_routine_config(config_path)
    except ValueError as exc:
        _fail(EXIT_CONFIG_ERROR, str(exc))
    for pair in cfg.opposite_pairs or ():
        if not set(pair) <= rig.cameras.keys():
            _fail(EXIT_CONFIG_ERROR,
                  f"opposite pair {pair} names a camera absent from calibration")
    try:
        detections = load_detections(detections_path)
    except FileNotFoundError:
        _fail(EXIT_INPUT_ERROR, f"missing detections file: {detections_path}")
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    if any(det.camera not in rig.cameras for det in detections):
        _fail(EXIT_INPUT_ERROR, "detections reference cameras absent from calibration")

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
    try:
        records = target.load_target_records(tracklets_path)
        truth = simulate.load_truth(truth_path)
    except FileNotFoundError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    except ValueError as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    try:
        report = metrics.evaluate(records, truth)
    except (metrics.EmptyOverlap, ValueError) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    if config_path is not None:
        try:
            report["config"] = config_mod.load_routine_config(config_path).as_dict()
        except ValueError as exc:
            _fail(EXIT_CONFIG_ERROR, str(exc))
    if report_path is None:
        report_path = str(Path(tracklets_path).parent / "report.json")
    metrics.save_report(report, report_path)
    click.echo(json.dumps({k: report[k] for k in
                           ("id_switches", "aed_m", "failure_rate", "coverage")},
                          sort_keys=True))


if __name__ == "__main__":
    main()
