"""mvtrack benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload clean-long --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
./src and everything the run writes goes under ./.bench_work.  The run

1. generates the workload's input files with `mvtrack simulate`, each
   time in a fresh interpreter: SETUP_RUNS times with --seed, which must
   give identical inputs, and once with --seed + 1, which must not; the
   median of the --seed generations, scaled to host speed, is setup_s;
2. runs `mvtrack track` jobs in a closed loop, one client in this process,
   for --seconds: load the three input files, build the CameraRig, call
   run_pipeline on its default serial path, write tracklets.jsonl;
3. checks every job's output: the first must parse with every frame inside
   the clip, and each later one must be byte-identical to the first;
4. scores the output against the truth as `mvtrack evaluate` does.

With --trace 0 every job is untraced and the end-to-end metrics are
reported.  With --trace 1 untraced and traced jobs alternate (traced.py)
and the per-layer metrics are reported.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with the environment, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median, quantiles

import workloads

SETUP_RUNS = 4
SETUP_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 30
# Accuracy every workload reaches on every seed tried; below it a run is
# incorrect whatever its speed.
MIN_COVERAGE = 0.95
MAX_AED_M = 0.1
# Host speed.  On a shared host the same job runs up to 1.8x slower while
# neighbours are busy, and the share of slow time drifts over minutes, far
# more than run-to-run repetition averages out.  A fixed reference kernel,
# run in a process of its own (hostprobe.py) between untraced jobs and
# between set-up generations, measures that drift: each timed wall is
# scaled by REF_NOMINAL_S / (mean kernel time just before and after it).
# REF_NOMINAL_S is the kernel's time on an idle core of the 2-CPU host the
# benchmark was written on, so frames_per_s and setup_s read as they would
# there.
REF_NOMINAL_S = 0.009

# The benchmark contract; run_all.py writes it to BENCHMARK.json.
RUN_SECONDS = 30
# End-to-end metrics of an untraced run: name -> (unit, better, bound).
# A bound is the share of the parent's median by which the metric may
# worsen before a change counts as a regression.
END_TO_END = {
    "frames_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "aed_m": ("m", "lower", 0.25),
}
# Per-layer metrics of a traced run: name -> (unit, better); see README.md
# for the end-to-end metric and workload each should move.
PER_LAYER = {
    "sv_track.load_s": ("s", "lower"),
    "sv_track.track_s": ("s", "lower"),
    "sv_track.segment_s": ("s", "lower"),
    "sv_track.tracklets": ("count", "lower"),
    "sv_track.segments": ("count", "lower"),
    "cross_view.s": ("s", "lower"),
    "cross_view.windows": ("count", "lower"),
    "cross_view.segments_per_window_max": ("count", "lower"),
    "cross_view.pair_distances": ("count", "lower"),
    "cross_view.clusters": ("count", "lower"),
    "cascade.s": ("s", "lower"),
    "cascade.tracks_triangulated": ("count", "lower"),
    "cascade.tracks_plane": ("count", "lower"),
    "cascade.triangulated_frames": ("count", "higher"),
    "cascade.plane_frames": ("count", "higher"),
    "cascade.tracks_per_cluster": ("ratio", "higher"),
    "stitch.s": ("s", "lower"),
    "stitch.live_tracks_mean": ("count", "lower"),
    "stitch.new_ids": ("count", "lower"),
    "stitch.tracks_total": ("count", "lower"),
    "stitch.growth_ratio": ("ratio", "lower"),
    "target.observe_s": ("s", "lower"),
    "target.finalize_s": ("s", "lower"),
    "target.save_s": ("s", "lower"),
    "target.frames": ("count", "higher"),
    "target.tenures": ("count", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "simulate.s": ("s", "lower"),
    "window_ms.p50": ("ms", "lower"),
    "window_ms.p95": ("ms", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def _exit(message: str, code: int):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def setup_inputs(spec: Path, out: Path, src: Path) -> float:
    """Run `mvtrack simulate <spec> --out <out>` in a fresh interpreter and
    return its wall seconds: start-up, import, building the scenario,
    rendering the detections and writing the input files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "mvtrack.cli", "simulate", str(spec),
           "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        _exit(f"{' '.join(cmd)} failed:\n{proc.stderr}", 1)
    return wall


def simulate_seconds(spec: dict) -> float:
    """Seconds the simulator takes to build the scenario and render it."""
    from mvtrack import simulate

    t0 = time.perf_counter()
    simulate.render_detections(simulate.build_scenario(spec))
    return time.perf_counter() - t0


class HostProbe:
    """The reference kernel in its own process (see REF_NOMINAL_S).  Use it
    as a context manager: leaving it ends the process and waits for it."""

    def __init__(self):
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("hostprobe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> HostProbe:
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
        except OSError:  # the probe is already gone
            pass
        try:
            self._proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def probe(self) -> list[float]:
        """Kernel seconds of one probe, timed while this process waits."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with code {self._proc.wait()}")
        seconds = json.loads(line)
        self.samples.extend(seconds)
        return seconds


def host_scaled(wall: float, kernel_s: list[float]) -> float:
    """`wall` at the host speed REF_NOMINAL_S stands for."""
    return wall * REF_NOMINAL_S * len(kernel_s) / sum(kernel_s)


def run_job(inputs: Path, out: Path) -> float:
    """What `mvtrack track` does; returns the job's wall seconds."""
    from mvtrack import config, target
    from mvtrack.geometry import CameraRig, load_calibration
    from mvtrack.pipeline import run_pipeline
    from mvtrack.sv_track import load_detections

    t0 = time.perf_counter()
    detections = load_detections(inputs / "detections.jsonl")
    rig = CameraRig(load_calibration(inputs / "calib.json"))
    cfg = config.load_routine_config(inputs / "routine.json")
    records, _ = run_pipeline(detections, rig, cfg)
    target.save_target_records(records, out / "tracklets.jsonl")
    return time.perf_counter() - t0


def run_traced_job(inputs: Path, out: Path) -> tuple[float, dict, list[float]]:
    """run_job with the pipeline driven stage by stage by traced.py.
    Returns (wall seconds, per-layer values, per-window milliseconds)."""
    from mvtrack import config, target
    from mvtrack.geometry import CameraRig, load_calibration
    from mvtrack.sv_track import load_detections

    import traced

    t0 = time.perf_counter()
    detections = load_detections(inputs / "detections.jsonl")
    load_s = time.perf_counter() - t0
    rig = CameraRig(load_calibration(inputs / "calib.json"))
    cfg = config.load_routine_config(inputs / "routine.json")
    records, layer, window_ms = traced.run_traced(detections, rig, cfg)
    t1 = time.perf_counter()
    target.save_target_records(records, out / "tracklets.jsonl")
    t2 = time.perf_counter()
    layer["sv_track.load_s"] = load_s
    layer["target.save_s"] = t2 - t1
    return t2 - t0, layer, window_ms


def check_records(path: Path, frames: int) -> None:
    """Raise ValueError unless every record parses and lies in the clip,
    widened at its end by the boundary extrapolation: window segments
    extrapolate up to MAX_EXTRAPOLATION frames past a tracklet's last
    observation, so the target track may end that far past the clip."""
    from mvtrack.sv_track import MAX_EXTRAPOLATION
    from mvtrack.target import load_target_records

    records = load_target_records(path)
    if not records:
        raise ValueError("no target records")
    for rec in records:
        f, X = rec["frame"], rec.get("X")
        if not 0 <= f < frames + MAX_EXTRAPOLATION:
            raise ValueError(f"frame {f} outside the clip [0, {frames}) "
                             f"plus {MAX_EXTRAPOLATION} extrapolated frames")
        if not isinstance(rec.get("track_id"), int):
            raise ValueError(f"frame {f}: bad track_id {rec.get('track_id')!r}")
        if not (isinstance(X, list) and len(X) == 3
                and all(isinstance(v, float) and math.isfinite(v) for v in X)):
            raise ValueError(f"frame {f}: bad X {X!r}")
        if not isinstance(rec.get("per_view"), list):
            raise ValueError(f"frame {f}: bad per_view")


@dataclass
class Jobs:
    """What the closed loop measured."""

    attempted: int = 0
    failed: int = 0
    plain_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    window_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    first_output: bytes | None = None


def closed_loop(host: HostProbe, inputs: Path, out: Path, frames: int,
                seconds: float, trace: bool) -> Jobs:
    """Run jobs back to back until the next one would end after `seconds`,
    but at least two untraced jobs.

    The first job is untraced and its output is the one every later job
    must reproduce.  With
    `trace`, untraced and traced jobs alternate.  The host is probed before
    the first job and after every untraced one (see REF_NOMINAL_S).  A job
    that raises or fails a check is counted and left out of the timings."""
    # Every module a job uses is imported before the first one is timed, so
    # that the first job is not the only one to pay for imports; setup_s
    # times them.
    import mvtrack.cli  # noqa: F401

    jobs = Jobs()
    out.mkdir(parents=True, exist_ok=True)
    produced_path = out / "tracklets.jsonl"
    # At least two untraced jobs, so that determinism is always checked.
    min_jobs = 3 if trace else 2
    deadline = time.perf_counter() + seconds
    ref_before = host.probe()
    for traced_turn in itertools.cycle([False, True] if trace else [False]):
        past = jobs.traced_s if traced_turn else jobs.plain_s
        estimate = median(past) if past else 0.0
        if jobs.attempted >= min_jobs and time.perf_counter() + estimate > deadline:
            break
        jobs.attempted += 1
        try:
            if traced_turn:
                wall, layer, window_ms = run_traced_job(inputs, out)
            else:
                wall = run_job(inputs, out)
                ref_after = host.probe()
                ref = ref_before + ref_after
                ref_before = ref_after
            produced = produced_path.read_bytes()
            if jobs.first_output is None:
                check_records(produced_path, frames)
                jobs.first_output = produced
            elif produced != jobs.first_output:
                raise ValueError(
                    "traced run's tracklets.jsonl differs from run_pipeline's"
                    if traced_turn else
                    "tracklets.jsonl differs from the first job's")
        except Exception:  # every failed job is counted, whatever the cause
            jobs.failed += 1
            jobs.errors.append(traceback.format_exc())
            if jobs.first_output is None:
                break
            continue
        past.append(wall)
        if traced_turn:
            jobs.layers.append(layer)
            jobs.window_ms.extend(window_ms)
        else:
            jobs.scaled_s.append(host_scaled(wall, ref))
    return jobs


def evaluate(tracklets: Path, truth: Path) -> tuple[dict, float]:
    """What `mvtrack evaluate` does; returns the report and its seconds."""
    from mvtrack import metrics, simulate, target

    t0 = time.perf_counter()
    report = metrics.evaluate(target.load_target_records(tracklets),
                              simulate.load_truth(truth))
    return report, time.perf_counter() - t0


def per_layer_metrics(jobs: Jobs, simulate_s: float, evaluate_s: float) -> dict:
    """Stage times are medians over the traced jobs; counts repeat exactly
    on every job and are taken from the first."""
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if jobs.layers and name in jobs.layers[0]:
            samples = [layer[name] for layer in jobs.layers]
            values[name] = median(samples) if unit in ("s", "ratio") else samples[0]
    if len(jobs.window_ms) >= 2:
        pct = quantiles(jobs.window_ms, n=100)
        values["window_ms.p50"] = pct[49]
        values["window_ms.p95"] = pct[94]
    if jobs.traced_s and jobs.plain_s:
        values["trace_overhead"] = median(jobs.traced_s) / median(jobs.plain_s)
    values["metrics.evaluate_s"] = evaluate_s
    values["simulate.s"] = simulate_s
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def environment(root: Path) -> dict:
    """Host and code facts stored with every result (not metrics)."""
    import numpy
    import scipy

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "mvtrack").glob("*.py")))
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "src_mvtrack_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one mvtrack benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mvtrack" / "__init__.py").is_file():
        _exit(f"no mvtrack sources under {src}; run from a source checkout", 2)
    sys.path.insert(0, str(src))
    import mvtrack
    if Path(mvtrack.__file__).resolve().parent != (src / "mvtrack").resolve():
        _exit(f"imported mvtrack from {mvtrack.__file__}, not from {src}", 2)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # The seed reaches the program only through the generated files.  The
    # same seed every time must give the same inputs, another seed other
    # ones; that other generation is not timed.
    specs = {}
    for seed in (args.seed, args.seed + 1):
        specs[seed] = work / f"spec-{seed}.json"
        specs[seed].write_text(json.dumps(
            workloads.workload_spec(args.workload, seed), indent=2) + "\n")
    spec = json.loads(specs[args.seed].read_text())
    frames = spec["duration"]
    inputs = work / "inputs0"

    with HostProbe() as host:
        setup_s, setup_scaled_s = [], []
        ref_before = host.probe()
        for i in range(SETUP_RUNS):
            setup_s.append(setup_inputs(specs[args.seed], work / f"inputs{i}", src))
            ref_after = host.probe()
            setup_scaled_s.append(host_scaled(setup_s[-1], ref_before + ref_after))
            ref_before = ref_after
        setup_inputs(specs[args.seed + 1], work / "inputs-other-seed", src)
        digests = [workloads.inputs_digest(work / f"inputs{i}")
                   for i in range(SETUP_RUNS)]
        other_digest = workloads.inputs_digest(work / "inputs-other-seed")
        digests_ok = len(set(digests)) == 1 and other_digest != digests[0]

        jobs = closed_loop(host, inputs, work / "job", frames, args.seconds,
                           bool(args.trace))

    report: dict = {}
    evaluate_s = 0.0
    if jobs.first_output is not None:
        (work / "job" / "tracklets.jsonl").write_bytes(jobs.first_output)
        try:
            report, evaluate_s = evaluate(work / "job" / "tracklets.jsonl",
                                          inputs / "truth.jsonl")
        except Exception:  # an output that cannot be scored is incorrect
            jobs.errors.append(traceback.format_exc())
    accuracy_ok = bool(report) and (report["id_switches"] == 0
                                    and report["coverage"] >= MIN_COVERAGE
                                    and report["aed_m"] <= MAX_AED_M)
    correct = (digests_ok and jobs.failed == 0 and accuracy_ok
               and (not args.trace or bool(jobs.layers)))

    if args.trace:
        metrics = per_layer_metrics(jobs, simulate_seconds(spec), evaluate_s)
    else:
        values = {
            # Total frames ÷ total scaled seconds of the untraced jobs, not
            # the median job: scaled job times still vary by about 10 % and
            # a run holds 4-8 jobs.  Over ten runs of clean-long the spread
            # was 0.098 with the median and 0.057 with this ratio.
            "frames_per_s": frames * len(jobs.scaled_s) / sum(jobs.scaled_s)
                            if jobs.scaled_s else 0.0,
            "setup_s": median(setup_scaled_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "aed_m": report.get("aed_m", 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}

    accuracy = {k: report.get(k) for k in ("aed_m", "id_switches", "failure_rate",
                                           "coverage", "evaluated_boxes")}
    accuracy["job_failure_rate"] = jobs.failed / jobs.attempted
    speed = {"raw_frames_per_s": frames * len(jobs.plain_s) / sum(jobs.plain_s)
                                 if jobs.plain_s else 0.0,
             "median_scaled_job_s": median(jobs.scaled_s) if jobs.scaled_s else 0.0,
             "raw_setup_s": median(setup_s),
             "host_slowdown": fmean(host.samples) / REF_NOMINAL_S}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "frames": frames,
        "detections": (inputs / "detections.jsonl").read_text().count("\n"),
        "input_digests": digests, "other_seed_digest": other_digest,
        "setup_wall_s": setup_s,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "jobs": {"attempted": jobs.attempted, "failed": jobs.failed,
                 "untraced_wall_s": jobs.plain_s,
                 "untraced_scaled_s": jobs.scaled_s, "traced_wall_s": jobs.traced_s},
        "accuracy": accuracy, "host": speed, "environment": environment(root),
        "correct": correct, "metrics": metrics, "errors": jobs.errors,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for err in jobs.errors:
        print(err, file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {frames} frames, "
          f"{jobs.attempted} jobs ({len(jobs.plain_s)} untraced, "
          f"{len(jobs.traced_s)} traced, {jobs.failed} failed), "
          f"input digests {'ok' if digests_ok else 'WRONG'} "
          f"{digests[0][:12]}")
    for name, value in {**accuracy, **speed}.items():
        print(f"  {name:<36} {value}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": jobs.attempted,
                      "failed": jobs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
