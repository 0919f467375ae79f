"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured numbers before asserting."""

import copy
import time
from collections import Counter
from statistics import mean

import numpy as np
from click.testing import CliRunner

from mvtrack.cascade import PROVENANCE, Mode, Provenance
from mvtrack.cli import main as cli_main
from mvtrack.clustering import cluster_with_cutoff
from mvtrack.config import PipelineConfig
from mvtrack.geometry import (CameraRig, PlaneSpec, project,
                              ray_plane_intersect_batch, triangulate_batch)
from mvtrack.metrics import evaluate
from mvtrack.pipeline import run_pipeline
from mvtrack.records import write_jsonl
from mvtrack.scenarios import get_scenario_spec
from mvtrack.simulate import build_scenario, load_truth, make_rig, render_detections
from mvtrack.stitch import assign
from mvtrack.target import (TargetCriteria, TargetMaintainer, load_target_records,
                            save_target_records)

from conftest import look_at_camera
from test_clustering import random_distance_matrix, reference_clustering
from test_stitch import brute_force_min_cost


def _verdict(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {num} {label}{suffix}"


INTERPOLATED = PROVENANCE.index(Provenance.INTERPOLATED)


def _score(records, truth, tmp_path):
    """The report of `records` and the simulator's `truth` as `mvtrack track`
    and `mvtrack simulate` write them and `mvtrack evaluate` reads them back."""
    path, truth_path = tmp_path / "tracklets.jsonl", tmp_path / "truth.jsonl"
    save_target_records(records, path)
    write_jsonl(truth_path, truth)
    return evaluate(load_target_records(path), load_truth(truth_path))


def _scene_config(scene):
    return PipelineConfig(
        plane_n=tuple(scene.plane.n.tolist()),
        plane_point=tuple(scene.plane.point.tolist()),
        perf_space=tuple(scene.space.perf), beta=scene.space.beta)


def test_acceptance_1_geometry_round_trips():
    t0 = time.perf_counter()
    cams = make_rig(6.0, 2.0, 1000.0, (1920, 1080))
    rng = np.random.default_rng(101)

    X = np.array([[rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                   rng.uniform(0.2, 3.0)] for _ in range(10_000)])
    got, tri_ok = triangulate_batch(cams, np.stack([project(c, X) for c in cams], axis=1))
    worst_tri = float(np.linalg.norm(got - X, axis=1).max())

    plane = PlaneSpec(n=[1.0, 0.0, 0.0], point=[0.0, 0.0, 0.0])
    X, side = [], []
    for _ in range(10_000):
        X.append([0.0, rng.uniform(-1.5, 1.5), rng.uniform(0.2, 3.0)])
        side.append(0 if rng.random() < 0.5 else 2)
    X, side = np.array(X), np.array(side)
    worst_plane = 0.0
    plane_ok = True
    for k in (0, 2):
        Xk = X[side == k]
        got, s = ray_plane_intersect_batch(cams[k], project(cams[k], Xk), plane)
        plane_ok &= bool((s > 0).all())
        worst_plane = max(worst_plane, float(np.linalg.norm(got - Xk, axis=1).max()))

    elapsed = time.perf_counter() - t0
    ok = (bool(tri_ok.all()) and plane_ok and worst_tri <= 1e-6
          and worst_plane <= 1e-9 and elapsed < 10.0)
    _verdict(1, "geometry round trips", ok,
             f"tri {worst_tri:.2e} m, plane {worst_plane:.2e} m, "
             f"{elapsed:.1f} s")


def test_acceptance_2_clustering_matches_reference():
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1_000):
        n = int(rng.integers(1, 7))
        cutoff = float(rng.uniform(0.3, 1.5))
        D = random_distance_matrix(rng, n, cutoff)
        got, = cluster_with_cutoff([D], cutoff)
        want = reference_clustering(n, D, cutoff)
        if sorted(map(tuple, got)) != sorted(map(tuple, want)):
            mismatches += 1
    _verdict(2, "clustering reference equivalence", mismatches == 0,
             f"{mismatches} mismatches in 1000 trials")


def test_acceptance_3_assignment_optimality():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1_000):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        pairs, _, _ = assign(cost.tolist(), unmatched_threshold=1e8)
        total = sum(cost[i, j] for i, j in pairs)
        worst = max(worst, abs(total - brute_force_min_cost(cost)))
    _verdict(3, "assignment optimality", worst <= 1e-9,
             f"max deviation {worst:.2e} over 1000 matrices")


def _episode_aed(report, lo=100, hi=190):
    windows = [w for w in report["per_window"] if lo <= w["start"] <= hi]
    frames = sum(w["frames"] for w in windows)
    return sum(w["aed_m"] * w["frames"] for w in windows) / frames


def test_acceptance_4_cascade_beats_ablations(tmp_path):
    t0 = time.perf_counter()
    modes = (Mode.CASCADE, Mode.TRIANGULATION_ONLY, Mode.PLANE_ONLY)
    full = {m: [] for m in modes}
    episode = {m: [] for m in modes}
    for seed in range(20):
        spec = get_scenario_spec("opposite-only-episode")
        spec["seed"] = seed
        scene = build_scenario(spec)
        detections, truth = render_detections(scene)
        rig = CameraRig(scene.rig)
        cfg = _scene_config(scene)
        for mode in modes:
            records, _ = run_pipeline(detections, rig, cfg, mode=mode)
            report = _score(records, truth, tmp_path)
            full[mode].append(report["aed_m"])
            episode[mode].append(_episode_aed(report))
    elapsed = time.perf_counter() - t0

    cascade = mean(full[Mode.CASCADE])
    tri = mean(full[Mode.TRIANGULATION_ONLY])
    plane = mean(full[Mode.PLANE_ONLY])
    ep_cascade = mean(episode[Mode.CASCADE])
    ep_plane = mean(episode[Mode.PLANE_ONLY])
    ok = (cascade <= 0.5 * tri
          and ep_plane <= ep_cascade + 5e-3
          and plane >= cascade
          and elapsed < 120.0)
    _verdict(4, "cascade beats ablations", ok,
             f"full AED cascade {cascade:.4f} tri {tri:.4f} plane {plane:.4f} m; "
             f"episode cascade {ep_cascade:.4f} plane {ep_plane:.4f} m; "
             f"{elapsed:.0f} s")


def test_acceptance_5_clean_scene_quality(tmp_path):
    scene = build_scenario(get_scenario_spec("clean-4cam"))
    detections, truth = render_detections(scene)
    records, _ = run_pipeline(detections, CameraRig(scene.rig),
                              _scene_config(scene))
    report = _score(records, truth, tmp_path)
    ok = (report["id_switches"] == 0
          and report["aed_m"] <= 0.05
          and report["failure_rate"] <= 0.002)
    _verdict(5, "clean scene quality", ok,
             f"switches {report['id_switches']}, AED {report['aed_m']:.4f} m, "
             f"failure rate {report['failure_rate']:.5f}")


def _replay_with_hole(registry, cfg, rig, duration, hole):
    reg = copy.deepcopy(registry)
    counts = Counter()
    for tid, rec in reg.tracks.items():
        counts.update({tid: len(rec.frames)})
    tid = counts.most_common(1)[0][0]
    rec = reg.tracks[tid]
    rows = np.array(hole) - rec.first
    for store in (rec.points, rec.top, rec.bottom):
        store[rows] = np.nan
    maintainer = TargetMaintainer(
        space=cfg.space(),
        criteria=TargetCriteria(h_top=cfg.h_top, h_bot=cfg.h_bot,
                                delta=cfg.identify_delta))
    for start in range(0, duration, 5):
        maintainer.observe(start, cfg.window_len, reg)
    return maintainer.finalize(reg, rig)


def test_acceptance_6_gap_bridging():
    spec = get_scenario_spec("clean-4cam")
    spec["duration"] = 400
    scene = build_scenario(spec)
    detections, _ = render_detections(scene)
    rig = CameraRig(scene.rig)
    cfg = _scene_config(scene)
    _, registry = run_pipeline(detections, rig, cfg)

    short = _replay_with_hole(registry, cfg, rig, 400, range(200, 205))
    short_interp = sorted(short.frame[short.provenance == INTERPOLATED].tolist())
    long = _replay_with_hole(registry, cfg, rig, 400, range(200, 212))
    long_frames = set(long.frame.tolist())
    long_interp = long.frame[long.provenance == INTERPOLATED].tolist()

    ok = (short_interp == list(range(200, 205))
          and long_frames.isdisjoint(range(200, 212))
          and not long_interp)
    _verdict(6, "gap bridging", ok,
             f"5-frame hole interpolated at {short_interp}; "
             f"12-frame hole left open with {len(long_interp)} interpolated")


def test_acceptance_7_deterministic_outputs(tmp_path):
    runner = CliRunner()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(cli_main, ["simulate", "opposite-only-episode",
                                     "--out", str(out)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, [
            "track", "--detections", str(out / "detections.jsonl"),
            "--calib", str(out / "calib.json"),
            "--config", str(out / "routine.json"), "--out", str(out)])
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, [
            "evaluate", "--tracklets", str(out / "tracklets.jsonl"),
            "--truth", str(out / "truth.jsonl")])
        assert r.exit_code == 0, r.output
        outputs.append(((out / "tracklets.jsonl").read_bytes(),
                        (out / "report.json").read_bytes()))
    same_tracklets = outputs[0][0] == outputs[1][0]
    same_report = outputs[0][1] == outputs[1][1]
    _verdict(7, "deterministic outputs", same_tracklets and same_report,
             f"tracklets identical: {same_tracklets}, "
             f"report identical: {same_report}")


def test_acceptance_8_near_opposite_error_anisotropy():
    cam_a = look_at_camera(0, (0.0, 5.0, 1.0), (0.0, 0.0, 1.0))
    cam_b = look_at_camera(1, (0.0, -5.0, 1.0), (0.0, 0.0, 1.0))
    rng = np.random.default_rng(808)
    X, noise = [], []
    for _ in range(1_000):
        X.append(np.array([0.0, 0.0, 1.0]) + rng.uniform(-0.2, 0.2, 3))
        noise.append([[rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)] for _ in range(2)])
    X = np.array(X)
    pixels = np.stack([project(cam, X) for cam in (cam_a, cam_b)], axis=1) + noise
    got, ok = triangulate_batch([cam_a, cam_b], pixels)
    along_sq, perp_sq = [], []
    for err, X_k in zip(got[ok] - X[ok], X[ok]):
        d = X_k - cam_a.center
        d /= np.linalg.norm(d)
        along = float(err @ d)
        along_sq.append(along ** 2)
        perp_sq.append(float(np.sum((err - along * d) ** 2)))
    rms_along = float(np.sqrt(np.mean(along_sq)))
    rms_perp = float(np.sqrt(np.mean(perp_sq)))
    ratio = rms_along / rms_perp
    _verdict(8, "near-opposite error anisotropy", ratio >= 5.0,
             f"along-ray RMS {rms_along:.3f} m vs perpendicular "
             f"{rms_perp:.4f} m, ratio {ratio:.1f}, "
             f"{len(along_sq)} valid trials")
