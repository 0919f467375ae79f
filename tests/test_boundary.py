"""Property tests of the input boundary: a malformed number, or a value
nested at any depth, in any file that `simulate`, `track` or `evaluate`
reads gives that file's exit code through SystemExit, never a traceback,
and an error names its path, and a JSON-lines error its line, as does any
byte string put in place of a detection line; `records.Fields.check`
accepts exactly what its per-value rules accept; the columnar detection
loader reads exactly the values a per-record parse gives; an empty or
one-camera stream finds no target in every mode; and the output does not
depend on the camera ids."""

import dataclasses
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtrack.cascade import Mode
from mvtrack.cli import main
from mvtrack.config import PipelineConfig, save_routine_config
from mvtrack.geometry import CameraModel, save_calibration
from mvtrack.records import BOOL, FLOAT, INT, NUM, Fields, is_finite, read_json
from mvtrack.simulate import build_scenario, make_rig, render_detections
from mvtrack.sv_track import MAX_BOX_PX, MAX_FRAME, load_detections, save_detections

from conftest import look_at_camera
from test_cli import SMALL_SCENARIO, run_track

# Exit code of a malformed file: 2 for configuration, 3 for input.
EXIT_CODES = {"detections.jsonl": 3, "tracklets.jsonl": 3, "truth.jsonl": 3,
              "calib.json": 2, "routine.json": 2}
# Truth fields that `evaluate` does not read.
UNREAD = {"person"}
NOT_NUMBERS = ["1.0", True, None, math.nan, [1.0]]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A directory with one small simulation and the `track` output for it."""
    out = tmp_path_factory.mktemp("valid")
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(SMALL_SCENARIO))
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", str(scenario), "--out", str(out)]).exit_code == 0
    result = run_track(runner, out)
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def valid_files(scene):
    """The text of one valid file of each kind, from one small simulation."""
    return {name: (scene / name).read_text() for name in EXIT_CODES}


def copy_scene(scene, out, relabel=None, kept=None):
    """Copy the inputs of `scene` to `out`, each camera id mapped by
    `relabel`, and only the detections of the (old) camera ids in `kept`."""
    relabel = relabel or {}
    out.mkdir()
    calib = json.loads((scene / "calib.json").read_text())
    for cam in calib:
        cam["id"] = relabel.get(cam["id"], cam["id"])
    (out / "calib.json").write_text(json.dumps(calib))
    (out / "routine.json").write_text((scene / "routine.json").read_text())
    lines = []
    for line in (scene / "detections.jsonl").read_text().splitlines():
        detection = json.loads(line)
        if kept is None or detection["camera"] in kept:
            detection["camera"] = relabel.get(detection["camera"], detection["camera"])
            lines.append(json.dumps(detection) + "\n")
    (out / "detections.jsonl").write_text("".join(lines))
    return out


@pytest.mark.parametrize("mode", [m.value for m in Mode])
@pytest.mark.parametrize("kept", [(), (0,)], ids=["empty", "one-camera"])
def test_empty_or_one_camera_stream_finds_no_target(scene, tmp_path, kept, mode):
    # The plane branch drops single-camera clusters, so no track is made.
    out = copy_scene(scene, tmp_path / "in", kept=kept)
    assert bool(kept) == bool((out / "detections.jsonl").read_text())
    result = run_track(CliRunner(), out, mode)
    assert result.exit_code == 0, result.output
    assert "wrote 0 target frames" in result.output
    assert (out / "tracklets.jsonl").read_text() == ""


@pytest.mark.parametrize("ids", [[10, 11, 12, 13], [2**40 + k for k in range(4)]],
                         ids=["10-13", "2**40+k"])
def test_monotone_camera_relabelling_keeps_the_bytes(scene, tmp_path, ids):
    # A cell's cameras are taken in rig order, which a monotone map keeps.
    relabel = dict(enumerate(ids))
    out = copy_scene(scene, tmp_path / "in", relabel)
    assert run_track(CliRunner(), out).exit_code == 0
    back = {new: old for old, new in relabel.items()}
    lines = []
    for line in (out / "tracklets.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert [view["camera"] for view in record["per_view"]] == sorted(
            view["camera"] for view in record["per_view"])
        for view in record["per_view"]:
            view["camera"] = back[view["camera"]]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    want = (scene / "tracklets.jsonl").read_text()
    assert want and "".join(lines) == want


def test_camera_permutation_keeps_frames_and_ids(scene, tmp_path):
    # Rig order changes with the ids, so X moves only by summation order.
    out = copy_scene(scene, tmp_path / "in", {0: 2, 1: 0, 2: 3, 3: 1})
    assert run_track(CliRunner(), out).exit_code == 0
    got, want = ([json.loads(line) for line in (path / "tracklets.jsonl").read_text().splitlines()]
                 for path in (out, scene))
    assert want and [(r["frame"], r["track_id"], r["provenance"]) for r in got] == \
        [(r["frame"], r["track_id"], r["provenance"]) for r in want]
    assert np.abs(np.array([r["X"] for r in got]) - [r["X"] for r in want]).max() <= 1e-12


def number_paths(value, path=()):
    """Paths to the numeric leaves of a decoded JSON value."""
    if isinstance(value, dict):
        return [p for key, item in value.items() if key not in UNREAD
                for p in number_paths(item, path + (key,))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in number_paths(item, path + (i,))]
    return [path] if type(value) in (int, float) else []


def replace(value, path, new):
    for step in path[:-1]:
        value = value[step]
    old, value[path[-1]] = value[path[-1]], new
    return old


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_number_exits_with_the_file_code(valid_files, data):
    name = data.draw(st.sampled_from(sorted(EXIT_CODES)), label="file")
    text = valid_files[name]
    lines = text.splitlines()
    lineno = data.draw(st.integers(1, len(lines)), label="line") if name.endswith(".jsonl") else None
    record = json.loads(lines[lineno - 1] if lineno else text)
    path = data.draw(st.sampled_from(number_paths(record)), label="path")
    old = replace(record, path, None)
    # An integer beyond float range is a valid integer, so it is bad only
    # where a float stands; a float is bad where an integer stands.
    bad = data.draw(st.sampled_from(NOT_NUMBERS + ([10 ** 400] if type(old) is float else [0.5])),
                    label="value")
    replace(record, path, bad)
    if lineno:
        lines[lineno - 1] = json.dumps(record)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(record)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for other, other_text in valid_files.items():
            (tmp / other).write_text(text if other == name else other_text)
        if name in ("tracklets.jsonl", "truth.jsonl"):
            args = ["evaluate", "--tracklets", str(tmp / "tracklets.jsonl"),
                    "--truth", str(tmp / "truth.jsonl"), "--out", str(tmp / "report.json")]
        else:
            args = ["track", "--detections", str(tmp / "detections.jsonl"),
                    "--calib", str(tmp / "calib.json"),
                    "--config", str(tmp / "routine.json"), "--out", str(tmp)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == EXIT_CODES[name], result.output
        assert isinstance(result.exception, SystemExit)
        if lineno:
            assert f"{tmp / name}:{lineno}: bad " in result.output


def reference_fits(value, kind) -> bool:
    """Each kind's rule, written out value by value."""
    if kind == INT:
        return type(value) is int
    if kind == BOOL:
        return type(value) is bool
    if type(value) is int:
        return abs(value) <= 1.7976931348623157e308
    return type(value) is float and (kind == FLOAT or math.isfinite(value))


SCALARS = st.one_of(st.integers(-3, 3), st.just(10 ** 400), st.floats(), st.booleans(),
                    st.none(), st.just("1.0"), st.just([1.0]))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(SCALARS, min_size=5, max_size=5),
       kinds=st.lists(st.sampled_from([INT, NUM, FLOAT, BOOL]), min_size=2, max_size=2))
# Finite numbers whose sum overflows, and infinities whose sum is NaN.
@example(values=[1, 2, 1e308, 1e308, 1e308], kinds=[INT, NUM])
@example(values=[1, 2, math.inf, -math.inf, 0.0], kinds=[INT, NUM])
def test_fields_check_agrees_with_the_per_value_rules(values, kinds):
    fields = Fields({("a", "b"): kinds[0], ("c", "d", "e"): kinds[1]})
    rec = dict(zip("abcde", values))
    want = all(reference_fits(v, kinds[0]) for v in values[:2]) and \
        all(reference_fits(v, kinds[1]) for v in values[2:])
    try:
        fields.check(rec)
    except ValueError:
        assert not want
    else:
        assert want


def test_is_finite():
    assert is_finite(1) and is_finite(-2.5) and is_finite(10 ** 300)
    for value in (True, math.nan, math.inf, 10 ** 400, "1", None, [1.0]):
        assert not is_finite(value)


finite_px = st.floats(-MAX_BOX_PX, MAX_BOX_PX, allow_nan=False) | st.integers(-10**9, 10**9)
side_px = st.floats(1e-150, MAX_BOX_PX) | st.integers(1, 10**9)


@st.composite
def detection_lines(draw):
    """A valid detection line: its record, with an extra key maybe, keys in
    any order, and JSON whitespace around it."""
    rec = {"frame": draw(st.integers(0, MAX_FRAME)),
           "camera": draw(st.integers(-2**63, 2**63 - 1)),
           "x": draw(finite_px), "y": draw(finite_px), "w": draw(side_px), "h": draw(side_px)}
    if draw(st.booleans()):
        rec["confidence"] = draw(st.floats(0.0, 1.0))
    keys = draw(st.permutations(sorted(rec)))
    text = json.dumps({key: rec[key] for key in keys})
    lead, trail = draw(st.sampled_from(["", " ", "\t "])), draw(st.sampled_from(["", " "]))
    return lead + text + trail, rec


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(detection_lines(), max_size=12),
       blank=st.sampled_from(["", "\n", " \n"]), end=st.sampled_from(["\n", "\r\n"]))
def test_valid_detection_file_loads_the_per_record_values(lines, blank, end):
    # Sides whose float area underflows are no valid box.
    texts = [text for text, rec in lines
             if float(rec["w"]) * float(rec["h"]) >= sys.float_info.min]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "detections.jsonl"
        path.write_bytes((blank + end.join(texts) + end).encode())
        loaded = load_detections(path)
    # The per-record parse of each line: json.loads, then float() of the box.
    want = [json.loads(text) for text in texts]
    assert loaded.frame.tolist() == [rec["frame"] for rec in want]
    assert loaded.camera.tolist() == [rec["camera"] for rec in want]
    assert loaded.frame.dtype == loaded.camera.dtype == np.int64
    assert np.array_equal(loaded.boxes.reshape(-1, 4).view(np.int64),
                          np.array([[float(rec[k]) for k in "xywh"] for rec in want],
                                   dtype=float).reshape(-1, 4).view(np.int64))


DEEP = "[" * 1000 + "]" * 1000
# Every file a command reads, its exit code when bad, and whether it is read
# line by line.
NESTED = [("detections.jsonl", 3), ("tracklets.jsonl", 3), ("truth.jsonl", 3),
          ("calib.json", 2), ("routine.json", 2), ("config.json", 2), ("scenario.json", 3)]


def command(tmp: Path, name: str) -> list[str]:
    """The command that reads the file `name` of `tmp`."""
    if name == "scenario.json":
        return ["simulate", str(tmp / name), "--out", str(tmp / "sim")]
    if name in ("tracklets.jsonl", "truth.jsonl", "config.json"):
        return ["evaluate", "--tracklets", str(tmp / "tracklets.jsonl"),
                "--truth", str(tmp / "truth.jsonl"), "--out", str(tmp / "report.json"),
                "--config", str(tmp / "config.json")]
    return ["track", "--detections", str(tmp / "detections.jsonl"),
            "--calib", str(tmp / "calib.json"),
            "--config", str(tmp / "routine.json"), "--out", str(tmp / "out")]


@pytest.mark.parametrize("name, code", NESTED, ids=[name for name, _ in NESTED])
def test_deep_nesting_exits_with_the_file_code_and_names_it(scene, tmp_path, name, code):
    for other in (*EXIT_CODES, "scenario.json"):
        (tmp_path / other).write_text((scene / other).read_text())
    (tmp_path / "config.json").write_text((scene / "routine.json").read_text())
    path = tmp_path / name
    if name.endswith(".jsonl"):
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = DEEP + "\n"
        path.write_text("".join(lines))
        where = f"error: {path}:3: bad "
    else:
        path.write_text(DEEP)
        where = f"error: {path}: bad "
    result = CliRunner().invoke(main, command(tmp_path, name))
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith(where), result.output


def test_every_nesting_depth_is_a_bad_record(tmp_path):
    # Near the recursion limit a value can decode at one call depth and be
    # too deep for repr at the deeper one where its error is written.
    path, scenario = tmp_path / "detections.jsonl", tmp_path / "scenario.json"
    valid = '{"frame": 0, "camera": 0, "x": 1.0, "y": 1.0, "w": 2.0, "h": 2.0}\n'
    for depth in range(1, sys.getrecursionlimit() + 1):
        deep = "[" * depth + "]" * depth
        for line in (deep, f'{{"frame": {deep}}}'):
            path.write_text(valid + line + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad detection "):
                load_detections(path)
        scenario.write_text(f'{{"duration": {deep}}}')
        with pytest.raises(ValueError, match=f"^({re.escape(str(scenario))}: bad scenario file"
                                             "|invalid scenario spec): "):
            build_scenario(read_json(scenario, "scenario"))


@pytest.mark.parametrize("limit", [None, 20_000], ids=["default-limit", "raised-limit"])
def test_nesting_bound_is_a_property_of_the_file(tmp_path, limit):
    # Under a raised recursion limit a 990-deep line decoded, and failed
    # later as "expected a JSON object": the message hung on the caller.
    old = sys.getrecursionlimit()
    if limit:
        sys.setrecursionlimit(limit)
    try:
        path, scenario = tmp_path / "detections.jsonl", tmp_path / "scenario.json"
        valid = '{"frame": 0, "camera": 0, "x": 1.0, "y": 1.0, "w": 2.0, "h": 2.0}\n'
        brackets = "[" * 200 + "{" * 200
        for line, message in [
                ("[" * 65 + "]" * 65, "arrays and objects nest more than 64 deep"),
                ("[" * 990 + "]" * 990, "arrays and objects nest more than 64 deep"),
                ('{"frame": ' + "[" * 64 + "]" * 64 + "}",
                 "arrays and objects nest more than 64 deep"),
                ("[" * 64 + "]" * 64, "expected a JSON object, got [[[["),
                ('{"frame": ' + "[" * 63 + "]" * 63 + "}", "'camera'"),
                # Brackets in a string, closed or not, are not nesting.
                (f'{{"frame": 0, "camera": 0, "x": "{brackets}", "y": 1, "w": 2, "h": 2}}',
                 "x, y, w and h must be finite JSON numbers"),
                (f'["{brackets}\\\\\\"]"]', "expected a JSON object"),
                (f'["{brackets}', "Invalid control character")]:
            path.write_text(valid + line + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad detection "
                                                 f"record: {re.escape(message)}"):
                load_detections(path)
        scenario.write_text('{"duration": ' + "[" * 990 + "]" * 990 + "}")
        with pytest.raises(ValueError, match=f"^{re.escape(str(scenario))}: bad scenario file: "
                                             "arrays and objects nest more than 64 deep$"):
            read_json(scenario, "scenario")
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="module")
def short_detections(scene):
    """The first frames of the scene's detections, as bytes."""
    return b"".join((scene / "detections.jsonl").read_bytes().splitlines(keepends=True)[:24])


@settings(max_examples=200, deadline=None)
# With no LF, the one line end: a CR is part of its line, as grep -n counts.
@given(lineno=st.integers(1, 24), raw=st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")))
# Hypothesis raises the recursion limit while a test runs, so the nesting
# that no decode can reach is deeper than DEEP.
@example(lineno=5, raw=b"[" * 100_000 + b"]" * 100_000)
@example(lineno=3, raw=b"\r0")
def test_any_bytes_as_a_line_exit_0_or_name_that_line(scene, short_detections, lineno, raw):
    lines = short_detections.splitlines(keepends=True)
    lines[lineno - 1] = raw + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("calib.json", "routine.json"):
            (tmp / name).write_text((scene / name).read_text())
        (tmp / "detections.jsonl").write_bytes(b"".join(lines))
        result = CliRunner().invoke(main, command(tmp, "detections.jsonl"))
        assert result.exit_code in (0, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 3:
            assert result.output.startswith(f"error: {tmp / 'detections.jsonl'}:{lineno}: "), \
                result.output


def finite_floats(value) -> bool:
    """Whether every number in a decoded JSON value is finite."""
    if type(value) is dict:
        return all(map(finite_floats, value.values()))
    if type(value) is list:
        return all(map(finite_floats, value))
    return type(value) is not float or math.isfinite(value)


# Boxes the loader accepts: |x| and |y| at most MAX_BOX_PX, sides in
# (0, MAX_BOX_PX] and an area of at least the smallest normal float.
IN_RANGE_BOXES = st.tuples(
    st.floats(-MAX_BOX_PX, MAX_BOX_PX), st.floats(-MAX_BOX_PX, MAX_BOX_PX),
    st.floats(0.0, MAX_BOX_PX, exclude_min=True), st.floats(0.0, MAX_BOX_PX, exclude_min=True),
).filter(lambda box: box[2] * box[3] >= sys.float_info.min)


IN_RANGE_LINES = st.lists(st.tuples(st.integers(0, 10**6), IN_RANGE_BOXES), min_size=1,
                          max_size=20)


@settings(max_examples=150, deadline=None)
@given(boxes=IN_RANGE_LINES)
def test_in_range_boxes_exit_0_with_finite_output_or_3(scene, boxes):
    assert_in_range_boxes_exit_0_with_finite_output_or_3(scene, boxes)


def _rig(ids=(0, 1, 2, 3)) -> list[CameraModel]:
    """The small scene's four cameras, with the ids `ids` in position order."""
    return [dataclasses.replace(cam, id=i)
            for cam, i in zip(make_rig(6.0, 2.0, 1000.0, (1920, 1080)), ids)]


# Rigs other than the small scene's: a fifth camera overhead; ids far apart
# in int64, whose id order is not the position order; and a camera beside
# the plane x = 0, looking along it, for which a box on its image's left
# half has a ray meeting the plane behind the camera.
OTHER_RIGS = {
    "five-cameras": _rig() + [look_at_camera(4, (0.5, -3.0, 6.0), (0.0, 0.0, 1.2))],
    "ids-far-apart": _rig((2**62 - 1, -2**62, 0, -1)),
    "camera-behind-the-plane": _rig()[:3] + [look_at_camera(3, (-1.0, -6.0, 1.2),
                                                            (-1.0, 0.0, 1.2))],
}


@pytest.fixture(scope="module")
def rig_scenes(tmp_path_factory):
    """Per rig of OTHER_RIGS, a directory with the small scenario rendered
    from it, written as `mvtrack simulate` writes its inputs."""
    scenes = {}
    for name, rig in OTHER_RIGS.items():
        out = scenes[name] = tmp_path_factory.mktemp(name)
        scene = dataclasses.replace(build_scenario(SMALL_SCENARIO), rig=rig)
        detections, _ = render_detections(scene)
        assert set(detections.camera.tolist()) == {cam.id for cam in rig}
        save_detections(detections, out / "detections.jsonl")
        save_calibration(rig, out / "calib.json")
        save_routine_config(PipelineConfig(plane_n=scene.plane.n, plane_point=scene.plane.point,
                                           perf_space=scene.space.perf, beta=scene.space.beta),
                            out / "routine.json")
    return scenes


@pytest.mark.parametrize("rig", OTHER_RIGS)
@settings(max_examples=100, deadline=None)
@given(boxes=IN_RANGE_LINES)
def test_in_range_boxes_on_other_rigs_exit_0_with_finite_output_or_3(rig_scenes, rig, boxes):
    assert_in_range_boxes_exit_0_with_finite_output_or_3(rig_scenes[rig], boxes)


def assert_in_range_boxes_exit_0_with_finite_output_or_3(scene, boxes):
    """`track` of the scene's inputs with each (k, box) of `boxes` put in
    line k (mod the line count) of its detections exits 0 with finite
    output or 3, never with a traceback."""
    lines = (scene / "detections.jsonl").read_text().splitlines(keepends=True)
    for k, (x, y, w, h) in boxes:
        rec = json.loads(lines[k % len(lines)])
        lines[k % len(lines)] = json.dumps({**rec, "x": x, "y": y, "w": w, "h": h}) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("calib.json", "routine.json"):
            (tmp / name).write_text((scene / name).read_text())
        (tmp / "detections.jsonl").write_text("".join(lines))
        result = CliRunner().invoke(main, command(tmp, "detections.jsonl"))
        assert result.exit_code in (0, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            with open(tmp / "out" / "tracklets.jsonl") as fh:
                for line in fh:
                    assert finite_floats(json.loads(line, parse_constant=float)), line


# A detection value shown in full would make an error line of its size.
LONG_VALUES = {"string-of-100000": json.dumps("x" * 100_000),
               "list-nested-900-deep": "[" * 900 + "]" * 900}


@pytest.mark.parametrize("value", LONG_VALUES.values(), ids=LONG_VALUES)
def test_error_line_shows_a_bounded_value(scene, tmp_path, value):
    for name in ("calib.json", "routine.json"):
        (tmp_path / name).write_text((scene / name).read_text())
    lines = (scene / "detections.jsonl").read_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    lines[2] = json.dumps({**rec, "x": None}).replace('"x": null', f'"x": {value}') + "\n"
    path = tmp_path / "detections.jsonl"
    path.write_text("".join(lines))
    result = CliRunner().invoke(main, command(tmp_path, "detections.jsonl"))
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {path}:3: bad detection record: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert len(result.stderr.encode()) <= 300, result.stderr
