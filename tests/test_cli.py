import json
import tracemalloc

import pytest
from click.testing import CliRunner

from mvtrack import cli
from mvtrack.cli import main
from mvtrack.config import load_routine_config, save_routine_config
from mvtrack.geometry import CameraRig, load_calibration, save_calibration
from mvtrack.pipeline import run_pipeline
from mvtrack.records import BLOCK_LINES
from mvtrack.scenarios import get_scenario_spec
from mvtrack.sv_track import (MAX_EXTRAPOLATION, MAX_FRAME, Bbox, Detection,
                              load_detections, save_detections)

from conftest import look_at_camera, simulated

SMALL_SCENARIO = {
    "seed": 5,
    "duration": 80,
    "noise_px": 0.5,
    "rig": {"radius": 6.0, "height": 2.0, "focal": 1000.0,
            "resolution": [1920, 1080]},
    "plane": {"n": [1.0, 0.0, 0.0], "point": [0.0, 0.0, 0.0]},
    "perf_space": [-2.0, -2.0, 0.0, 2.0, 2.0, 4.0],
    "beta": 1.0,
    "persons": [
        {"kind": "on_plane_jump", "is_target": True,
         "off_plane_amplitude": 0.05, "on_plane_intervals": []},
        {"kind": "off_plane_walk", "is_target": False, "offset": 1.3},
    ],
    "dropout": [],
}


@pytest.fixture
def runner():
    return CliRunner()


def write_scenario(tmp_path, spec=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec or SMALL_SCENARIO))
    return path


def simulate(runner, tmp_path, out="sim"):
    scenario = write_scenario(tmp_path)
    out_dir = tmp_path / out
    result = runner.invoke(main, ["simulate", str(scenario), "--out",
                                  str(out_dir)])
    assert result.exit_code == 0, result.output
    return out_dir


class TestSimulate:
    def test_writes_all_outputs(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        for name in ("detections.jsonl", "truth.jsonl", "calib.json",
                     "routine.json"):
            assert (out / name).exists()

    def test_canned_scenario_by_name(self, runner, tmp_path):
        out_dir = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "crowded-distractors",
                                      "--out", str(out_dir), "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert (out_dir / "detections.jsonl").exists()

    def test_missing_scenario_file(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2
        assert "scenario not found" in result.output

    def test_unparseable_scenario(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["simulate", str(path), "--out",
                                      str(tmp_path / "sim")])
        assert result.exit_code == 3

    def test_invalid_scenario_contents(self, runner, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"persons": []}))  # no duration
        result = runner.invoke(main, ["simulate", str(path), "--out",
                                      str(tmp_path / "sim")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda spec: spec.update(seed=5.9), "seed must be an integer, got 5.9"),
        (lambda spec: spec.update(duration="20"), "duration must be an integer, got '20'"),
        (lambda spec: spec["persons"][1].update(is_target="no"),
         "persons entry: is_target must be true or false, got 'no'"),
        (lambda spec: spec["persons"][0].update(on_plane_intervals=[[10, 20], [40, 30]]),
         "person 0 on_plane_intervals pair [40, 30] ends before it starts"),
        (lambda spec: spec.update(dropout=[{"cameras": [1], "start": 10, "end": 20},
                                           {"cameras": [0, 2], "start": 50, "end": 49}]),
         "dropout episode 1 [50, 49] ends before it starts"),
    ], ids=["float-seed", "string-duration", "string-is-target", "reversed-interval",
            "reversed-dropout"])
    def test_scenario_field_of_wrong_kind(self, runner, tmp_path, edit, message):
        spec = json.loads(json.dumps(SMALL_SCENARIO))
        edit(spec)
        result = runner.invoke(main, ["simulate", str(write_scenario(tmp_path, spec)),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2
        assert f"invalid scenario spec: {message}" in result.output
        assert not (tmp_path / "sim").exists()

    def test_single_frame_ranges_are_valid(self, runner, tmp_path):
        spec = json.loads(json.dumps(SMALL_SCENARIO))
        spec["persons"][0]["on_plane_intervals"] = [[30, 30]]
        spec["dropout"] = [{"cameras": [1], "start": 40, "end": 40}]
        result = runner.invoke(main, ["simulate", str(write_scenario(tmp_path, spec)),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 0, result.output

    def test_scenario_whose_boxes_overflow_is_config_error(self, runner, tmp_path):
        spec = dict(json.loads(json.dumps(SMALL_SCENARIO)), noise_px=1e308)
        result = runner.invoke(main, ["simulate", str(write_scenario(tmp_path, spec)),
                                      "--out", str(tmp_path / "sim")])
        assert result.exit_code == 2, result.output
        assert "has a box that is not finite" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "sim" / "detections.jsonl").exists()

    def test_scenario_not_an_object_with_seed(self, runner, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[1, 2]")
        result = runner.invoke(main, ["simulate", str(path), "--out",
                                      str(tmp_path / "sim"), "--seed", "3"])
        assert result.exit_code == 2
        assert "error: invalid scenario spec: expected a JSON object" in result.output
        assert "Traceback" not in result.output

    def test_scenario_path_is_a_directory(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path), "--out",
                                      str(tmp_path / "sim")])
        assert result.exit_code == 2
        assert "error: unreadable scenario:" in result.output
        assert "Traceback" not in result.output

    def test_output_under_a_file_is_config_error(self, runner, tmp_path):
        (tmp_path / "X").write_text("")
        result = runner.invoke(main, ["simulate", str(write_scenario(tmp_path)),
                                      "--out", str(tmp_path / "X" / "sub")])
        assert result.exit_code == 2, result.output
        assert f"error: output {tmp_path / 'X' / 'sub'}: {tmp_path / 'X'} is not a " \
            "writable directory" in result.output
        assert "Traceback" not in result.output

    def test_seeded_rerun_identical(self, runner, tmp_path):
        a = simulate(runner, tmp_path, out="a")
        b = simulate(runner, tmp_path, out="b")
        assert (a / "detections.jsonl").read_bytes() == \
            (b / "detections.jsonl").read_bytes()
        assert (a / "truth.jsonl").read_bytes() == (b / "truth.jsonl").read_bytes()


def run_track(runner, out, mode=None):
    args = ["track", "--detections", str(out / "detections.jsonl"),
            "--calib", str(out / "calib.json"),
            "--config", str(out / "routine.json"),
            "--out", str(out)]
    if mode:
        args += ["--mode", mode]
    return runner.invoke(main, args)


class TestTrack:
    def test_end_to_end(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output
        assert (out / "tracklets.jsonl").exists()
        lines = (out / "tracklets.jsonl").read_text().splitlines()
        assert len(lines) > 40
        record = json.loads(lines[0])
        assert set(record) == {"frame", "track_id", "X", "provenance",
                               "per_view"}

    def test_output_under_a_file_fails_before_reading_input(self, runner, tmp_path,
                                                             monkeypatch):
        out = simulate(runner, tmp_path)
        (tmp_path / "X").write_text("")
        monkeypatch.setattr(cli, "load_detections",
                            lambda *_: pytest.fail("detections read before the output check"))
        result = runner.invoke(main, ["track", "--detections", str(out / "detections.jsonl"),
                                      "--calib", str(out / "calib.json"),
                                      "--config", str(out / "routine.json"),
                                      "--out", str(tmp_path / "X" / "sub")])
        assert result.exit_code == 2, result.output
        assert "is not a writable directory" in result.output
        assert "Traceback" not in result.output

    def test_missing_calib_is_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        (out / "calib.json").unlink()
        assert run_track(runner, out).exit_code == 2

    def test_non_finite_calibration_is_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        calib = json.loads((out / "calib.json").read_text())
        calib[1]["t"][0] = float("nan")
        (out / "calib.json").write_text(json.dumps(calib))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert "finite" in result.output

    @pytest.mark.parametrize("edit,message", [
        (lambda calib: [1, 2], "must be an object"),
        (lambda calib: calib[:1] + [{k: v for k, v in calib[1].items() if k != "t"}],
         "keys id, K, R and t"),
        (lambda calib: [dict(calib[0], id="0")] + calib[1:], "id must be an integer"),
        (lambda calib: [dict(calib[0], id=0.0)] + calib[1:], "id must be an integer"),
        (lambda calib: [dict(calib[0], id=True)] + calib[1:], "id must be an integer"),
        (lambda calib: calib + [dict(calib[2], id=1)], "camera id 1 is repeated"),
        (lambda calib: [dict(calib[0], K={"f": 1})] + calib[1:], "calibration entry 0"),
        (lambda calib: [dict(calib[0], id=2**63)] + calib[1:],
         "calibration entry 0: id must fit in a signed 64-bit integer, got 9223372036854775808"),
    ], ids=["not-objects", "missing-t", "string-id", "float-id", "bool-id",
            "repeated-id", "bad-K", "id-beyond-int64"])
    def test_malformed_calibration_is_config_error(self, runner, tmp_path, edit,
                                                   message):
        out = simulate(runner, tmp_path)
        calib = json.loads((out / "calib.json").read_text())
        (out / "calib.json").write_text(json.dumps(edit(calib)))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize("routine,message", [
        ([1, 2], "must be a JSON object"),
        ("null", "must be a JSON object"),
        ({"stich_threshold": 1.0}, "unknown keys ['stich_threshold']"),
        ({"plane_n": [1.0, 0.0, 0.0]}, "unknown keys ['plane_n']"),
    ])
    def test_routine_must_be_object_with_known_keys(self, runner, tmp_path, routine,
                                                     message):
        out = simulate(runner, tmp_path)
        if isinstance(routine, dict):
            routine = {**json.loads((out / "routine.json").read_text()), **routine}
        (out / "routine.json").write_text(
            routine if isinstance(routine, str) else json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.parametrize("key,value", [
        ("window_len", 2.7), ("window_len", 10.0), ("min_segment_obs", True),
        ("max_age", "2"), ("identify_delta", 30.5), ("max_gap_fill", None),
        ("smooth_window", True),
    ])
    def test_non_integer_count_is_config_error(self, runner, tmp_path, key, value):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine[key] = value
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{key} must be an integer" in result.output

    @pytest.mark.parametrize("overrides,message", [
        ({"max_age": -1}, "max_age must be >= 0"),
        ({"max_gap_fill": -3}, "max_gap_fill must be >= 0"),
        ({"min_segment_obs": 0}, "min_segment_obs must be in [1, window_len + 1]"),
        ({"min_segment_obs": 9, "window_len": 4},
         "min_segment_obs must be in [1, window_len + 1]"),
    ])
    def test_count_out_of_range_is_config_error(self, runner, tmp_path, overrides,
                                                message):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine.update(overrides)
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_count_bounds_are_inclusive(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine.update(window_len=4, min_segment_obs=5, max_age=0, max_gap_fill=0)
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output

    def test_invalid_config_is_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        (out / "routine.json").write_text('{"perf_space": [1, 2, 3]}')
        assert run_track(runner, out).exit_code == 2

    def test_corrupt_detections_is_input_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        (out / "detections.jsonl").write_text("{broken\n")
        assert run_track(runner, out).exit_code == 3

    def test_unknown_camera_is_input_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        (out / "detections.jsonl").write_text(json.dumps(
            {"frame": 0, "camera": 9, "x": 1.0, "y": 1.0, "w": 5.0, "h": 5.0,
             "confidence": 1.0}) + "\n")
        assert run_track(runner, out).exit_code == 3

    @pytest.mark.parametrize("key,value", [("frame", "1.5"), ("frame", '"3"'),
                                           ("frame", "true"), ("camera", "1.0"),
                                           ("camera", "null")])
    def test_non_integer_frame_or_camera_is_input_error(self, runner, tmp_path,
                                                         key, value):
        out = simulate(runner, tmp_path)
        lines = (out / "detections.jsonl").read_text().splitlines()
        lines[3] = lines[3].replace(f'"{key}": ', f'"{key}": {value}, "ignored": ', 1)
        (out / "detections.jsonl").write_text("\n".join(lines) + "\n")
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "frame and camera must be integers" in result.output

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_detection_is_input_error(self, runner, tmp_path, value):
        out = simulate(runner, tmp_path)
        lines = (out / "detections.jsonl").read_text().splitlines()
        lines[3] = lines[3].replace('"x": ', f'"x": {value}, "ignored": ', 1)
        (out / "detections.jsonl").write_text("\n".join(lines) + "\n")
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert "finite" in result.output

    @pytest.mark.parametrize("key,value", [("x", '"769.9"'), ("w", "true")])
    def test_non_number_box_field_is_input_error(self, runner, tmp_path, key, value):
        out = simulate(runner, tmp_path)
        lines = (out / "detections.jsonl").read_text().splitlines()
        lines[3] = lines[3].replace(f'"{key}": ', f'"{key}": {value}, "ignored": ', 1)
        (out / "detections.jsonl").write_text("\n".join(lines) + "\n")
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "detections.jsonl:4: bad detection record: x, y, w and h must be " \
               "finite JSON numbers" in result.output

    @pytest.mark.parametrize("boxes, line", [
        # The area 1e-400 underflows to 0, and IoU would divide by it.
        ([(f, 1e-200, 1e-200) for f in range(3)], 1),
        # Extrapolating w beyond 1.1e308 would overflow to inf.
        ([(f, 6e307, 1.0) for f in range(5)] + [(5, 1.1e308, 1.0)], 1),
    ], ids=["area-underflow", "width-overflow"])
    def test_box_beyond_the_pixel_bounds_is_input_error(self, runner, tmp_path,
                                                        boxes, line):
        out = simulate(runner, tmp_path)
        (out / "detections.jsonl").write_text("".join(
            json.dumps({"frame": f, "camera": 0, "x": 0.0, "y": 0.0, "w": w, "h": h}) + "\n"
            for f, w, h in boxes))
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"detections.jsonl:{line}: bad detection record: box needs |x|, |y|, " \
               "w and h at most 1e+09" in result.output

    def test_box_at_the_pixel_bounds_is_tracked(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        (out / "detections.jsonl").write_text("".join(
            json.dumps({"frame": f, "camera": 0, "x": -1e9, "y": 1e9, "w": w, "h": h}) + "\n"
            for f in range(6) for w, h in ((1e9, 1e9), (1e-150, 1e-150))))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output

    def test_box_at_the_epipole_is_tracked(self, runner, tmp_path):
        # Two cameras face each other along x, so each sees the other's
        # center at its principal point, where the epipolar line of a box
        # center is undefined.  That frame is no evidence, not a crash.
        out = simulate(runner, tmp_path)
        cams = [look_at_camera(k, (x, 0.0, 2.0), (0.0, 0.0, 2.0), focal=1024.0,
                               principal=(1024.0, 512.0))
                for k, x in enumerate((-6.0, 6.0))]
        save_calibration(cams, out / "calib.json")
        (out / "detections.jsonl").write_text("".join(
            json.dumps({"frame": f, "camera": c, "x": 1024.0, "y": 512.0,
                        "w": 60.0, "h": 180.0}) + "\n"
            for f in range(12) for c in (0, 1)))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output
        assert (out / "tracklets.jsonl").exists()

    def edit_line(self, out, lineno, edit):
        path = out / "detections.jsonl"
        lines = path.read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit, message", [
        # The area w * h is positive: only the sign of each side rejects it.
        (lambda rec: rec.update(w=-2, h=-3), "box sides must be positive, got w=-2.0, "
                                             "h=-3.0"),
        (lambda rec: rec.update(camera=9), "camera 9 is absent from calibration"),
        (lambda rec: rec.update(frame=MAX_FRAME + 1),
         f"frame index must be at most {MAX_FRAME}, got {MAX_FRAME + 1}"),
        (lambda rec: rec.update(camera=2**63), "camera id must fit in a signed 64-bit "
                                               "integer"),
    ], ids=["negative-sides", "unknown-camera", "frame-beyond-bound", "camera-beyond-int64"])
    def test_bad_detection_names_its_line(self, runner, tmp_path, edit, message):
        out = simulate(runner, tmp_path)

        def edited(line):
            rec = json.loads(line)
            edit(rec)
            return json.dumps(rec)
        self.edit_line(out, 5, edited)
        # A later bad line is not the one reported.
        self.edit_line(out, 9, lambda line: line.replace('"x": ', '"x": NaN, "was": '))
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"detections.jsonl:5: bad detection record: {message}" in result.output

    @pytest.mark.parametrize("earlier", [False, True], ids=["bytes-first", "value-first"])
    def test_bytes_not_utf8_name_their_line(self, runner, tmp_path, earlier):
        out = simulate(runner, tmp_path)
        path = out / "detections.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b'"x"', b'"\xff"')
        lines[8] = lines[8].replace(b'"x": ', b'"x": NaN, "was": ')
        if earlier:
            lines[2] = lines[2].replace(b'"w": ', b'"w": -')
        path.write_bytes(b"\n".join(lines))
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        if earlier:
            assert "detections.jsonl:3: bad detection record: box sides must be positive" \
                in result.output
        else:
            assert "detections.jsonl:5: bad detection record: 'utf-8' codec can't decode " \
                   f"byte 0xff in position {lines[4].index(0xff)}: invalid start byte" \
                in result.output

    def test_extra_json_after_a_record_is_input_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        self.edit_line(out, 4, lambda line: line + " 1")
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "detections.jsonl:4: bad detection record: Extra data" in result.output

    def test_frames_beyond_int64_are_input_error(self, runner, tmp_path):
        # Frames past int64 once crashed association with an OverflowError.
        out = simulate(runner, tmp_path)
        path = out / "detections.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()[:400]]
        path.write_text("".join(json.dumps({**rec, "frame": rec["frame"] + 10**30}) + "\n"
                                for rec in records))
        result = run_track(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "detections.jsonl:1: bad detection record: frame index must be at most " \
               f"{MAX_FRAME}, got {10**30}" in result.output

    def test_frames_up_to_the_bound_are_tracked(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        path = out / "detections.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        shift = MAX_FRAME - max(rec["frame"] for rec in records)
        path.write_text("".join(json.dumps({**rec, "frame": rec["frame"] + shift}) + "\n"
                                for rec in records))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output
        frames = [json.loads(line)["frame"]
                  for line in (out / "tracklets.jsonl").read_text().splitlines()]
        assert frames and min(frames) >= shift - MAX_EXTRAPOLATION
        assert max(frames) <= MAX_FRAME + MAX_EXTRAPOLATION

    def test_episodes_far_apart_keep_the_timeline_sparse(self, runner, tmp_path):
        # Two copies of one episode, the second ending at MAX_FRAME: a dense
        # target timeline from the first target frame to the last would
        # need about 50 GB.
        result = runner.invoke(main, ["simulate", "opposite-only-episode",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        path = tmp_path / "detections.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        last = max(rec["frame"] for rec in records)
        shift = MAX_FRAME - last
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records)
                        + "".join(json.dumps({**rec, "frame": rec["frame"] + shift}) + "\n"
                                  for rec in records))
        result = run_track(runner, tmp_path)
        assert result.exit_code == 0, result.output
        frames = [json.loads(line)["frame"]
                  for line in (tmp_path / "tracklets.jsonl").read_text().splitlines()]
        assert any(f <= last + MAX_EXTRAPOLATION for f in frames)
        assert any(f >= shift - MAX_EXTRAPOLATION for f in frames)

        detections = load_detections(path)
        rig = CameraRig(load_calibration(tmp_path / "calib.json"))
        cfg = load_routine_config(tmp_path / "routine.json")
        tracemalloc.start()
        try:
            records, _ = run_pipeline(detections, rig, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(frames)
        assert peak < 200e6

    def test_no_row_objects_are_built_on_the_track_path(self, runner, tmp_path,
                                                        monkeypatch):
        # Boxes stay arrays from load_detections to the emitted records.
        detections, rig, cfg = simulated(get_scenario_spec("clean-4cam"))
        save_detections(detections, tmp_path / "detections.jsonl")
        save_calibration(list(rig), tmp_path / "calib.json")
        save_routine_config(cfg, tmp_path / "routine.json")

        def built(row):
            raise AssertionError(f"a {type(row).__name__} was built")
        monkeypatch.setattr(Bbox, "__post_init__", built)
        monkeypatch.setattr(Detection, "__post_init__", built)
        result = run_track(runner, tmp_path)
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "tracklets.jsonl").read_text().splitlines()) == 1801

    @pytest.mark.parametrize("key,value", [("window_len", 7), ("window_len", 0),
                                           ("smooth_window", 4),
                                           ("smooth_window", 0)])
    def test_invalid_window_is_config_error(self, runner, tmp_path, key, value):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine[key] = value
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert key in result.output

    def test_smooth_window_takes_effect(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        smoothed = (out / "tracklets.jsonl").read_text()
        routine = json.loads((out / "routine.json").read_text())
        routine["smooth_window"] = 1
        (out / "routine.json").write_text(json.dumps(routine))
        assert run_track(runner, out).exit_code == 0
        raw = (out / "tracklets.jsonl").read_text()
        assert [json.loads(l)["frame"] for l in raw.splitlines()] == \
            [json.loads(l)["frame"] for l in smoothed.splitlines()]
        assert raw != smoothed

    def test_repeated_runs_are_byte_identical(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        first = (out / "tracklets.jsonl").read_bytes()
        assert run_track(runner, out).exit_code == 0
        assert (out / "tracklets.jsonl").read_bytes() == first

    def test_huge_identify_delta_finds_no_target(self, runner, tmp_path):
        # The trigger visits only a track's own frames in the buffer, so a
        # huge buffer costs no more than the clip.
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "opposite-only-episode",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        routine = json.loads((out / "routine.json").read_text())
        routine["identify_delta"] = 1000000
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output
        assert (out / "tracklets.jsonl").read_text() == ""

    @pytest.mark.parametrize("h_top,h_bot", [(0.5, 1.5), (1.5, -0.1),
                                             (float("nan"), 0.5)])
    def test_bad_height_triggers_are_config_error(self, runner, tmp_path,
                                                  h_top, h_bot):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine.update(h_top=h_top, h_bot=h_bot)
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert "h_top >= h_bot >= 0" in result.output

    @pytest.mark.parametrize("pairs,message", [
        ([[0, 2, 5]], "two distinct camera ids"),
        ([[1, 1]], "two distinct camera ids"),
        ([[0]], "two distinct camera ids"),
        ([[0, 9]], "absent from calibration"),
        ([[0, 2.7]], "opposite_pairs must be an integer"),
        ([["0", "2"]], "opposite_pairs must be an integer"),
        ([[0, True]], "opposite_pairs must be an integer"),
    ])
    def test_bad_opposite_pairs_are_config_error(self, runner, tmp_path,
                                                 pairs, message):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine["opposite_pairs"] = pairs
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_valid_opposite_pair_accepted(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine["opposite_pairs"] = [[0, 2]]
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output

    def test_mode_flag_accepted(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out, mode="plane_only").exit_code == 0
        assert run_track(runner, out, mode="triangulation_only").exit_code == 0

    @pytest.mark.parametrize("key,value", [
        *((key, float("nan")) for key in (
            "beta", "nu", "tau", "theta_opp", "lambda_2d", "stitch_threshold",
            "iou_threshold", "buffer_scale")),
        ("nu", float("inf")), ("h_top", float("inf")), ("beta", float("-inf")),
        ("perf_space", [-2.0, -2.0, 0.0, 2.0, 2.0, float("inf")]),
        ("nu", 0.0), ("tau", -0.5), ("lambda_2d", 0.0), ("stitch_threshold", 0.0),
        ("buffer_scale", -1.0), ("iou_threshold", 0.0), ("iou_threshold", 1.5),
        ("theta_opp", 0.0), ("theta_opp", 180.5),
    ])
    def test_bad_threshold_is_config_error(self, runner, tmp_path, key, value):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine[key] = value
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert key in result.output

    @pytest.mark.parametrize("key,value,message", [
        ("nu", "0.5", "nu must be a number"),
        ("tau", True, "tau must be a number"),
        ("beta", None, "beta must be a number"),
        ("plane", {"n": [1.0, 0.0, False], "point": [0.0, 0.0, 0.0]},
         "plane.n must be a number"),
        ("plane", {"n": [1.0, 0.0, 0.0], "point": ["0", 0.0, 0.0]},
         "plane.point must be a number"),
        ("perf_space", [-2.0, -2.0, 0.0, 2.0, 2.0, "4"], "perf_space must be a number"),
        ("nu", 10 ** 400, "too large"),
    ], ids=["string-nu", "bool-tau", "null-beta", "bool-plane-n", "string-plane-point",
            "string-perf-space", "huge-int-nu"])
    def test_non_number_threshold_is_config_error(self, runner, tmp_path, key, value,
                                                   message):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine[key] = value
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_integer_threshold_accepted(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine.update(nu=1, plane={"n": [1, 0, 0], "point": [0, 0, 0]})
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output

    def test_threshold_bounds_are_inclusive(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine.update(iou_threshold=1.0, theta_opp=180.0)
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 0, result.output


class TestEvaluate:
    def evaluate(self, runner, out, **kwargs):
        args = ["evaluate", "--tracklets", str(out / "tracklets.jsonl"),
                "--truth", str(out / "truth.jsonl")]
        for key, value in kwargs.items():
            args += [f"--{key}", str(value)]
        return runner.invoke(main, args)

    def test_full_chain_report(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        result = self.evaluate(runner, out, config=out / "routine.json")
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["id_switches"] == 0
        assert summary["aed_m"] <= 0.05
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau"] == 0.5
        assert report["per_window"]

    def test_perfect_input_scores_zero(self, runner, tmp_path):
        truth_path = tmp_path / "truth.jsonl"
        tracklets_path = tmp_path / "tracklets.jsonl"
        with open(truth_path, "w") as truth, open(tracklets_path, "w") as est:
            for f in range(20):
                X = [0.0, 0.01 * f, 1.5]
                truth.write(json.dumps({"frame": f, "person": 0,
                                        "is_target": True, "X": X,
                                        "boxes": {}}) + "\n")
                est.write(json.dumps({"frame": f, "track_id": 0, "X": X,
                                      "provenance": "triangulated",
                                      "per_view": []}) + "\n")
        result = runner.invoke(main, ["evaluate", "--tracklets",
                                      str(tracklets_path), "--truth",
                                      str(truth_path)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary == {"aed_m": 0.0, "coverage": 1.0,
                           "failure_rate": 0.0, "id_switches": 0}

    def test_shifted_input_reports_shift(self, runner, tmp_path):
        truth_path = tmp_path / "truth.jsonl"
        tracklets_path = tmp_path / "tracklets.jsonl"
        with open(truth_path, "w") as truth, open(tracklets_path, "w") as est:
            for f in range(20):
                truth.write(json.dumps({"frame": f, "person": 0,
                                        "is_target": True,
                                        "X": [0.0, 0.0, 1.5],
                                        "boxes": {}}) + "\n")
                est.write(json.dumps({"frame": f, "track_id": 0,
                                      "X": [0.0, 0.0, 1.6],
                                      "provenance": "triangulated",
                                      "per_view": []}) + "\n")
        result = runner.invoke(main, ["evaluate", "--tracklets",
                                      str(tracklets_path), "--truth",
                                      str(truth_path)])
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["aed_m"] == pytest.approx(0.1, abs=1e-9)

    def test_empty_overlap_is_input_error(self, runner, tmp_path):
        truth_path = tmp_path / "truth.jsonl"
        tracklets_path = tmp_path / "tracklets.jsonl"
        truth_path.write_text(json.dumps(
            {"frame": 0, "person": 0, "is_target": True,
             "X": [0.0, 0.0, 1.0], "boxes": {}}) + "\n")
        tracklets_path.write_text(json.dumps(
            {"frame": 50, "track_id": 0, "X": [0.0, 0.0, 1.0],
             "provenance": "triangulated", "per_view": []}) + "\n")
        result = runner.invoke(main, ["evaluate", "--tracklets",
                                      str(tracklets_path), "--truth",
                                      str(truth_path)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("value", ["1.5", '"3"'])
    def test_non_integer_frame_is_input_error(self, runner, tmp_path, value):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        lines = (out / "tracklets.jsonl").read_text().splitlines()
        lines[3] = lines[3].replace('"frame": ', f'"frame": {value}, "ignored": ', 1)
        (out / "tracklets.jsonl").write_text("\n".join(lines) + "\n")
        result = self.evaluate(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "frame must be an integer" in result.output

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.update(X=[float("nan"), 0.0, 1.0]), "X must be three"),
        (lambda rec: rec.update(X=[1.0, 2.0]), "X must be three"),
        (lambda rec: rec.update(X=[True, 0.0, 1.0]), "X must be three"),
        (lambda rec: rec.update(X=[10**400, 0.0, 1.0]), "X must be three"),
        (lambda rec: rec.update(track_id=1.5), "track_id must be an integer"),
        (lambda rec: rec["per_view"][0].update(x="a"), "per_view entry"),
        (lambda rec: rec["per_view"][0].update(camera=0.5), "per_view entry"),
    ], ids=["nan-X", "short-X", "bool-X", "huge-int-X", "float-track-id",
            "string-view-x", "float-view-camera"])
    def test_malformed_record_is_input_error(self, runner, tmp_path, edit, message):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        records = [json.loads(line) for line in
                   (out / "tracklets.jsonl").read_text().splitlines()]
        i = next(i for i, rec in enumerate(records) if rec["per_view"])
        edit(records[i])
        (out / "tracklets.jsonl").write_text(
            "".join(json.dumps(rec) + "\n" for rec in records))
        result = self.evaluate(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.update(X=[float("nan"), 0.0, 1.0]), "X must be three"),
        (lambda rec: rec["boxes"].update({"0": ["a", 1, 2, 3]}), "box must be four"),
        (lambda rec: rec["boxes"].update({"0": [1.0, 2.0, 0.0, 3.0]}),
         "box must be four"),
        (lambda rec: rec["boxes"].update({"x": [1.0, 2.0, 3.0, 4.0]}),
         "box camera id"),
        (lambda rec: rec.update(top=[0.0, 1.0]), "top must be three"),
        (lambda rec: rec.update(frame=1.5), "frame must be an integer"),
        (lambda rec: rec.update(is_target=1), "is_target must be"),
    ], ids=["nan-X", "string-box", "zero-width-box", "non-integer-camera",
            "short-top", "float-frame", "integer-is-target"])
    def test_malformed_truth_is_input_error(self, runner, tmp_path, edit, message):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        truth_path = out / "truth.jsonl"
        records = [json.loads(line) for line in truth_path.read_text().splitlines()]
        i = next(i for i, rec in enumerate(records) if rec["is_target"])
        edit(records[i])
        truth_path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        result = self.evaluate(runner, out)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{truth_path}:{i + 1}: bad truth record" in result.output
        assert message in result.output
        assert not (out / "report.json").exists()

    def test_report_directory_is_made_or_refused(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        args = ["evaluate", "--tracklets", str(out / "tracklets.jsonl"),
                "--truth", str(out / "truth.jsonl"), "--out"]
        result = runner.invoke(main, args + [str(tmp_path / "nodir" / "report.json")])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "nodir" / "report.json").read_text())["per_window"]
        (tmp_path / "X").write_text("")
        result = runner.invoke(main, args + [str(tmp_path / "X" / "report.json")])
        assert result.exit_code == 2, result.output
        assert "is not a writable directory" in result.output
        assert "Traceback" not in result.output

    def test_missing_tracklets_is_input_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        result = self.evaluate(runner, out)
        assert result.exit_code == 3

    def test_per_window_uses_config_window_len(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        assert self.evaluate(runner, out).exit_code == 0
        default = json.loads((out / "report.json").read_text())["per_window"]
        routine = json.loads((out / "routine.json").read_text())
        routine["window_len"] = 20
        (out / "routine.json").write_text(json.dumps(routine))
        result = self.evaluate(runner, out, config=out / "routine.json")
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["window_len"] == 20
        per_window = report["per_window"]
        assert [w["start"] for w in default] == list(range(0, 80, 10))
        assert [w["start"] for w in per_window] == list(range(0, 80, 20))
        assert sum(w["frames"] for w in per_window) == \
            sum(w["frames"] for w in default)

    def test_missing_config_is_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        assert run_track(runner, out).exit_code == 0
        result = self.evaluate(runner, out, config=tmp_path / "absent.json")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)


def _box(value, key="0"):
    return lambda rec: rec["boxes"].update({key: value})


# One case per truth rule: (id, edit of the record at line 300, whether that
# record is a target row, the message after "path:300: bad truth record: ").
# Every message but the last three is the one the dict-per-line loader gave.
TRUTH_RULES = [
    ("not-an-object", lambda rec: [1, 2], True, "expected a JSON object, got [1, 2]"),
    ("frame-missing", lambda rec: rec.__delitem__("frame"), True, "'frame'"),
    ("frame-float", lambda rec: rec.update(frame=1.5), True,
     "frame must be an integer, got 1.5"),
    ("frame-bool", lambda rec: rec.update(frame=True), True,
     "frame must be an integer, got True"),
    ("is-target-integer", lambda rec: rec.update(is_target=1), True,
     "is_target must be true or false, got 1"),
    ("X-missing", lambda rec: rec.__delitem__("X"), True, "'X'"),
    ("X-short", lambda rec: rec.update(X=[0.0, 1.0]), True,
     "X must be three finite JSON numbers, got [0.0, 1.0]"),
    ("X-string", lambda rec: rec.update(X=[0.0, "1", 2.0]), True,
     "X must be three finite JSON numbers, got [0.0, '1', 2.0]"),
    ("X-huge-integer", lambda rec: rec.update(X=[0.0, 10**400, 2.0]), True,
     "X must be three finite JSON numbers, got [0.0, 1" + "0" * 73 + "... (413 characters)"),
    ("top-nan", lambda rec: rec.update(top=[float("nan"), 0.0, 1.0]), True,
     "top must be three finite JSON numbers, got [nan, 0.0, 1.0]"),
    ("bottom-bool", lambda rec: rec.update(bottom=[True, 0.0, 1.0]), True,
     "bottom must be three finite JSON numbers, got [True, 0.0, 1.0]"),
    ("boxes-list", lambda rec: rec.update(boxes=[[1.0, 2.0, 3.0, 4.0]]), True,
     "boxes must be an object, got [[1.0, 2.0, 3.0, 4.0]]"),
    ("box-key-word", _box([1.0, 2.0, 3.0, 4.0], "cam0"), True,
     "box camera id must be an integer string, got 'cam0'"),
    ("box-key-leading-zero", _box([1.0, 2.0, 3.0, 4.0], "01"), True,
     "box camera id must be an integer string, got '01'"),
    ("box-key-negative-zero", _box([1.0, 2.0, 3.0, 4.0], "-0"), True,
     "box camera id must be an integer string, got '-0'"),
    ("box-three-numbers", _box([1.0, 2.0, 3.0]), True,
     "box must be four finite JSON numbers, got [1.0, 2.0, 3.0]"),
    ("box-string", _box([1.0, "2", 3.0, 4.0]), True,
     "box must be four finite JSON numbers, got [1.0, '2', 3.0, 4.0]"),
    ("box-infinite", _box([1.0, 2.0, float("inf"), 4.0]), True,
     "box must be four finite JSON numbers, got [1.0, 2.0, inf, 4.0]"),
    ("box-zero-width", _box([1.0, 2.0, 0.0, 4.0]), True,
     "box must be four numbers x, y, w, h with positive w and h, got [1.0, 2.0, 0.0, 4.0]"),
    ("box-negative-height", _box([1.0, 2.0, 3.0, -4.0]), True,
     "box must be four numbers x, y, w, h with positive w and h, got [1.0, 2.0, 3.0, -4.0]"),
    ("non-target-X", lambda rec: rec.update(X=[0.0, 1.0]), False,
     "X must be three finite JSON numbers, got [0.0, 1.0]"),
    ("non-target-box-sign", _box([1.0, 2.0, -3.0, 4.0]), False,
     "box must be four numbers x, y, w, h with positive w and h, got [1.0, 2.0, -3.0, 4.0]"),
    ("non-target-box-key", _box([1.0, 2.0, 3.0, 4.0], "x"), False,
     "box camera id must be an integer string, got 'x'"),
    # The dict-per-line loader gave "expected a JSON object, got [[[[..." for
    # this line, and kept the last of two is_target rows for a frame.
    ("nested-100-deep", lambda rec: "[" * 100 + "]" * 100, True,
     "arrays and objects nest more than 64 deep"),
    ("second-is-target-row", lambda rec: rec.update(is_target=True), False,
     "a second is_target row for frame 149"),
    ("second-is-target-row-of-an-earlier-block", lambda rec: rec.update(is_target=True, frame=0),
     False, "a second is_target row for frame 0"),
]


class TestTruthRules:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        """A 200-frame, two-person scene's truth.jsonl lines, and tracklets
        that follow the target exactly."""
        root = tmp_path_factory.mktemp("truth-rules")
        spec = dict(SMALL_SCENARIO, duration=200)
        (root / "scenario.json").write_text(json.dumps(spec))
        result = CliRunner().invoke(main, ["simulate", str(root / "scenario.json"),
                                           "--out", str(root)])
        assert result.exit_code == 0, result.output
        lines = (root / "truth.jsonl").read_text().splitlines(keepends=True)
        (root / "tracklets.jsonl").write_text("".join(
            json.dumps({"frame": rec["frame"], "track_id": 0, "X": rec["X"],
                        "provenance": "triangulated", "per_view": []}) + "\n"
            for rec in map(json.loads, lines) if rec["is_target"]))
        return root, lines

    @pytest.mark.parametrize("edit, target_row, message",
                             [case[1:] for case in TRUTH_RULES],
                             ids=[case[0] for case in TRUTH_RULES])
    def test_bad_line_past_the_first_block_is_named(self, runner, tmp_path, scene, edit,
                                                    target_row, message):
        root, lines = scene
        lines = list(lines)
        assert BLOCK_LINES < 300
        if target_row:  # line 299 holds frame 149's target row, line 300 its other person
            lines[298], lines[299] = lines[299], lines[298]
        rec = json.loads(lines[299])
        assert rec["is_target"] is target_row
        rec = edit(rec) or rec
        lines[299] = (rec if type(rec) is str else json.dumps(rec)) + "\n"
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(lines))
        result = runner.invoke(main, ["evaluate", "--tracklets", str(root / "tracklets.jsonl"),
                                      "--truth", str(truth),
                                      "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: {truth}:300: bad truth record: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_unedited_truth_scores(self, runner, tmp_path, scene):
        root, _ = scene
        result = runner.invoke(main, ["evaluate", "--tracklets", str(root / "tracklets.jsonl"),
                                      "--truth", str(root / "truth.jsonl"),
                                      "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["aed_m"] == 0.0

    @pytest.mark.parametrize("lineno", [3, 180])
    def test_second_tracklets_record_for_a_frame_is_named(self, runner, tmp_path, scene,
                                                          lineno):
        root, _ = scene
        lines = (root / "tracklets.jsonl").read_text().splitlines(keepends=True)
        lines.insert(lineno - 1, lines[1])  # frame 1 again
        tracklets = tmp_path / "tracklets.jsonl"
        tracklets.write_text("".join(lines))
        result = runner.invoke(main, ["evaluate", "--tracklets", str(tracklets),
                                      "--truth", str(root / "truth.jsonl"),
                                      "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 3, result.output
        assert result.output == (f"error: {tracklets}:{lineno}: bad target record: "
                                 f"a second target record for frame 1\n")


class TestCalibrationAndRoutineKinds:
    @pytest.mark.parametrize("edit,message", [
        (lambda calib: calib[1].update(t=["1.0", "2.0", "3.0"]),
         "calibration entry 1: t must be a number, got '1.0'"),
        (lambda calib: calib[0]["K"].__setitem__(8, True),
         "calibration entry 0: K must be a number, got True"),
        (lambda calib: calib[2]["R"].__setitem__(0, 10 ** 400),
         "calibration entry 2: R must be finite, got an integer too large"),
    ], ids=["string-t", "bool-K", "huge-int-R"])
    def test_calibration_entry_not_a_number_is_config_error(self, runner, tmp_path,
                                                            edit, message):
        out = simulate(runner, tmp_path)
        calib = json.loads((out / "calib.json").read_text())
        edit(calib)
        (out / "calib.json").write_text(json.dumps(calib))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_unknown_plane_key_is_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        routine = json.loads((out / "routine.json").read_text())
        routine["plane"]["extra"] = 1
        (out / "routine.json").write_text(json.dumps(routine))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "unknown keys ['extra']" in result.output

    def test_coincident_camera_centers_are_config_error(self, runner, tmp_path):
        out = simulate(runner, tmp_path)
        calib = json.loads((out / "calib.json").read_text())
        calib[3] = dict(calib[1], id=3)
        (out / "calib.json").write_text(json.dumps(calib))
        result = run_track(runner, out)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "cameras 1 and 3 share a center" in result.output
