"""Property tests of the input boundary: a malformed number in any file
that `track` or `evaluate` reads gives that file's exit code through
SystemExit, never a traceback, and a JSON-lines error names its path and
line; the fast path of `records.Fields` never accepts what its per-field
rules reject; and the columnar detection loader reads exactly the values
a per-record parse gives."""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtrack.cli import main
from mvtrack.records import BOOL, FLOAT, INT, NUM, Fields, is_finite
from mvtrack.sv_track import MAX_BOX_PX, MAX_FRAME, load_detections

from test_cli import SMALL_SCENARIO

# Exit code of a malformed file: 2 for configuration, 3 for input.
EXIT_CODES = {"detections.jsonl": 3, "tracklets.jsonl": 3, "truth.jsonl": 3,
              "calib.json": 2, "routine.json": 2}
# Truth fields that `evaluate` does not read.
UNREAD = {"person"}
NOT_NUMBERS = ["1.0", True, None, math.nan, [1.0]]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The text of one valid file of each kind, from one small simulation."""
    out = tmp_path_factory.mktemp("valid")
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(SMALL_SCENARIO))
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", str(scenario), "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["track", "--detections", str(out / "detections.jsonl"),
                                  "--calib", str(out / "calib.json"),
                                  "--config", str(out / "routine.json"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return {name: (out / name).read_text() for name in EXIT_CODES}


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
def test_fields_fast_path_agrees_with_the_rules(values, kinds):
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
