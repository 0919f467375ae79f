"""The two ends of a `track` job, checked against their per-row forms: the
block-wise column check of `load_detections` against a per-line loader,
`TargetMaintainer._emit` against a per-frame, per-camera loop, and
`save_target_records` against one `json.dumps` per record of the row view
`record_dicts`.  The per-row forms below are kept as oracles only."""

import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtrack import pipeline, records
from mvtrack.cascade import PROVENANCE, Mode, Provenance
from mvtrack.records import decode, read_jsonl, write_jsonl
from mvtrack.scenarios import get_scenario_spec
from mvtrack.stitch import TrackRegistry
from mvtrack.sv_track import (_COMMON_TYPES, _INT64_MAX, _INT64_MIN, DETECTION_FIELDS,
                              MAX_BOX_PX, MAX_FRAME, Bbox, Detections, _detection_values,
                              load_detections)
from mvtrack.target import TargetMaintainer, TargetRecords, project, save_target_records

from conftest import FrameTrack, box_dict, links_of, simulated, to_record, window_segment
from test_boundary import detection_lines
from test_target import CRIT, RIG, SPACE


def reference_line_reader(path, what, parse) -> list:
    """The per-line JSON-lines reader: a line at a time, each ended by an
    LF only, the first bad one raising "path:line: bad <what> record: ..."."""
    out = []
    with open(path, newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                out.append(parse(decode(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return out


def reference_detection(rec, cameras) -> tuple:
    """(frame, camera, x, y, w, h) of one decoded detection record, or the
    error of the first rule it breaks."""
    try:
        frame, camera, x, y, w, h = values = _detection_values(rec)
        common = tuple(map(type, values)) == _COMMON_TYPES and math.isfinite(x + y + w + h)
    except (KeyError, TypeError):
        common = False
    if not common:
        frame, camera, x, y, w, h = values = _detection_values(DETECTION_FIELDS.check(rec))
    if w <= 0 or h <= 0:
        raise ValueError(f"box sides must be positive, got w={float(w)}, h={float(h)}")
    if not (-MAX_BOX_PX <= x <= MAX_BOX_PX and -MAX_BOX_PX <= y <= MAX_BOX_PX
            and w <= MAX_BOX_PX and h <= MAX_BOX_PX and w * h >= sys.float_info.min):
        raise ValueError(f"box needs |x|, |y|, w and h at most {MAX_BOX_PX:g} and an "
                         f"area w * h of at least {sys.float_info.min:g}, got x={x!r}, "
                         f"y={y!r}, w={w!r}, h={h!r}")
    if frame < 0:
        raise ValueError("frame index must be >= 0")
    if frame > MAX_FRAME:
        raise ValueError(f"frame index must be at most {MAX_FRAME}, got {frame}")
    if not _INT64_MIN <= camera <= _INT64_MAX:
        raise ValueError(f"camera id must fit in a signed 64-bit integer, got {camera}")
    if cameras is not None and camera not in cameras:
        raise ValueError(f"camera {camera} is absent from calibration")
    return values


def reference_load_detections(path, cameras=None) -> Detections:
    """The per-line detection loader: each line decoded and checked as it
    is read."""
    rows = reference_line_reader(path, "detection", lambda rec: reference_detection(rec, cameras))
    table = np.array(rows, dtype=float).reshape(-1, 6)
    return Detections(table[:, 0].astype(np.int64),
                      np.fromiter((row[1] for row in rows), dtype=np.int64, count=len(rows)),
                      table[:, 2:].copy())


def outcome(load, path, cameras):
    """(frame, camera, box bits) of a load, or its error text."""
    try:
        got = load(path, cameras)
    except ValueError as exc:
        return str(exc)
    assert got.frame.dtype == got.camera.dtype == np.int64 and got.boxes.shape == (len(got), 4)
    assert got.boxes.flags.c_contiguous
    return got.frame.tolist(), got.camera.tolist(), got.boxes.view(np.int64).tolist()


FIELDS = ("frame", "camera", "x", "y", "w", "h")


def _set(**values):
    return lambda text, rec, draw: json.dumps({**rec, **values})


def _field(value):
    """Put `value` in a drawn field."""
    return lambda text, rec, draw: json.dumps({**rec, draw(st.sampled_from(FIELDS)): value})


def _drop(text, rec, draw):
    key = draw(st.sampled_from(FIELDS))
    return json.dumps({k: v for k, v in rec.items() if k != key})


# Each way to break a line: (text, record, draw) -> the bad line.
CORRUPTIONS = {
    "not JSON": lambda text, rec, draw: text.rstrip()[:-1],
    "two values": lambda text, rec, draw: text + " " + text,
    "string": _field("1.0"),
    "true": _field(True),
    "huge": _field(10**400),
    "missing key": _drop,
    "side": _set(w=0.0),
    "negative side": _set(h=-2),
    "far": _set(x=-2e9),
    "underflow": _set(w=1e-200, h=1e-200),
    "negative frame": _set(frame=-1),
    "late frame": _set(frame=MAX_FRAME + 1),
    "wide camera": _set(camera=2**63),
    "absent camera": _set(camera=-2**63),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), lines=st.lists(detection_lines(), max_size=12),
       rules=st.lists(st.sampled_from(sorted(CORRUPTIONS)), max_size=2, unique=True),
       end=st.sampled_from(["\n", "\r\n"]), block=st.sampled_from([1, 2, 3, 5, 256]),
       calibrated=st.booleans())
def test_column_loader_equals_per_line_loader(tmp_path_factory, data, lines, rules, end, block,
                                              calibrated):
    # The valid records' cameras, less the one "absent camera" writes, are
    # the calibration.
    cameras = {rec["camera"] for _, rec in lines} - {-2**63} if calibrated else None
    texts, rules = [text for text, _ in lines], rules[:len(lines)]
    if texts:
        at = sorted(data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=len(rules),
                                       max_size=len(rules), unique=True), label="at"))
        for i, rule in zip(at, rules):
            texts[i] = CORRUPTIONS[rule](texts[i], lines[i][1], data.draw)
    for i in sorted(data.draw(st.lists(st.integers(0, len(texts)), max_size=3), label="blank"),
                    reverse=True):
        texts.insert(i, data.draw(st.sampled_from(["", " ", "\t "])))
    path = tmp_path_factory.mktemp("lines") / "detections.jsonl"
    path.write_bytes("".join(text + end for text in texts).encode())
    with mock.patch.object(records, "BLOCK_LINES", block):
        got = outcome(load_detections, path, cameras)
    assert got == outcome(reference_load_detections, path, cameras)


def test_first_bad_line_is_named_across_blocks(tmp_path):
    """Bad lines in three blocks of the module's size, each kind of error
    once, fixed one at a time."""
    assert records.BLOCK_LINES < 1100
    rec = {"frame": 0, "camera": 1, "x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0}
    texts = [json.dumps(rec)] * 2500
    texts[2000] = "{"
    texts[1500] = json.dumps({**rec, "frame": "0"})
    texts[1100] = json.dumps({**rec, "w": -1.0})
    path = tmp_path / "detections.jsonl"
    for bad in (1100, 1500, 2000):
        path.write_text("\n".join(texts) + "\n")
        want = outcome(reference_load_detections, path, {1})
        assert want.startswith(f"{path}:{bad + 1}: bad detection record: ")
        assert outcome(load_detections, path, {1}) == want
        texts[bad] = json.dumps(rec)
    assert outcome(load_detections, path, {1}) == outcome(reference_load_detections, path, {1})


UTF8_REC = {"frame": 0, "camera": 1, "x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0}
# A record whose "x" key holds a byte that is not UTF-8, at this offset.
NOT_UTF8 = json.dumps(UTF8_REC).encode().replace(b'"x"', b'"\xff"')
NOT_UTF8_MESSAGE = ("'utf-8' codec can't decode byte 0xff in position "
                    f"{NOT_UTF8.index(0xff)}: invalid start byte")


@pytest.mark.parametrize("block", [4, 256])
@pytest.mark.parametrize("undecodable_first", [True, False], ids=["bytes-first", "bytes-last"])
@pytest.mark.parametrize("other", ["{", json.dumps({**UTF8_REC, "frame": "0"}),
                                   json.dumps({**UTF8_REC, "w": -1.0})],
                         ids=["json", "kind", "value"])
def test_bytes_not_utf8_name_their_line(tmp_path, other, undecodable_first, block):
    """A line that is not UTF-8 is named as any other bad line is: the
    first bad line of the file wins, whatever its error, in one block or
    across blocks."""
    lines = [json.dumps(UTF8_REC).encode()] * 12
    first, second = (5, 9) if undecodable_first else (9, 5)
    lines[first - 1] = NOT_UTF8
    lines[second - 1] = other.encode()
    path = tmp_path / "detections.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with mock.patch.object(records, "BLOCK_LINES", block):
        got = outcome(load_detections, path, {1})
        lines[second - 1] = lines[0]
        path.write_bytes(b"\n".join(lines) + b"\n")
        alone = outcome(load_detections, path, {1})
    want = f"{path}:5: bad detection record: "
    assert got.startswith(want)
    if undecodable_first:
        assert got == want + NOT_UTF8_MESSAGE
    else:
        assert NOT_UTF8_MESSAGE not in got
    assert alone == f"{path}:{first}: bad detection record: {NOT_UTF8_MESSAGE}"


@pytest.mark.parametrize("line", [NOT_UTF8.replace(b"{", b"{{"),
                                  NOT_UTF8.replace(b"3.0", b"-3.0"),
                                  NOT_UTF8.replace(b"0,", b'"0",', 1),
                                  b"\xef\xbb\xbf" + NOT_UTF8, b"\xed\xa0\x80\n"],
                         ids=["json", "value", "kind", "bom", "encoded-surrogate"])
def test_bytes_not_utf8_come_before_the_rest_of_their_line(tmp_path, line):
    good = json.dumps(UTF8_REC).encode()
    path = tmp_path / "records.jsonl"
    path.write_bytes(good + b"\n\n" + line + b"\n" + good + b"\n")
    got = read_outcome(read_jsonl, path)
    assert got.startswith(f"{path}:3: bad target record: 'utf-8' codec can't decode byte ")
    assert outcome(load_detections, path, {1}).startswith(
        f"{path}:3: bad detection record: 'utf-8' codec can't decode byte ")


@pytest.mark.parametrize("line", ['{"a": 1}\n', '{"a": 1}', '{"a": 1}\r\n', ' {"a": 1}\n',
                                  '{"a": 1} \n', '{"a": 1} {"a": 2}\n', '{"a": 1}x\n', '',
                                  '\n', '[1, 2]\n', 'NaN\n', '"\\ud800"\n', '{"a": }\n'])
def test_decode_is_json_loads(line):
    def result(parse):
        try:
            return parse(line)
        except ValueError as exc:
            return type(exc), str(exc)
    assert repr(result(decode)) == repr(result(json.loads))


def read_outcome(read, path):
    try:
        return read(path, "target", lambda rec: rec["frame"])
    except ValueError as exc:
        return str(exc)


def test_record_reader_equals_per_line_reader(tmp_path):
    """read_jsonl, a record parse per line over blocks, names the first bad
    line as the per-line reader does."""
    path = tmp_path / "records.jsonl"
    good = ['{"frame": %d}' % f for f in range(7)]
    for texts in (good, good[:3] + ['{"x": 1}'] + good[3:] + ["{"], good + ["", "{", "[]"]):
        path.write_text("\n".join(texts) + "\n")
        with mock.patch.object(records, "BLOCK_LINES", 2):
            assert read_outcome(read_jsonl, path) == read_outcome(reference_line_reader, path)


def newest_wins(merged) -> dict:
    """{tid: {camera: {frame: Bbox}}} of the (tid, camera, {frame: Bbox})
    boxes of merged window tracks, in merge order: a newer window's box
    replaces an older one's."""
    boxes: dict = {}
    for tid, camera, linked in merged:
        boxes.setdefault(tid, {}).setdefault(camera, {}).update(linked)
    return boxes


def reference_emit(maintainer, frames, X, codes, tids, boxes, rig) -> TargetRecords:
    """`_emit` a frame and a camera at a time, with the boxes linked to each
    track given as `newest_wins` gives them."""
    cameras = list(rig)
    pixels = [project(cam, X).tolist() for cam in cameras]
    last_size: dict[int, float] = {}
    views = np.full((len(cameras), len(frames), 3), np.nan)
    for i, (f, tid) in enumerate(zip(frames.tolist(), tids.tolist())):
        for view, cam, cam_pixels in zip(views, cameras, pixels):
            x, y = cam_pixels[i]
            if math.isnan(x):
                continue
            box = boxes.get(tid, {}).get(cam.id, {}).get(f)
            ox, oy, ow, oh = (box.x, box.y, box.w, box.h) if box else (math.nan,) * 4
            if not math.isnan(ox) and np.hypot(x - ox, y - oy) <= 0.5 * max(ow, oh):
                last_size[cam.id] = max(ow, oh)
            elif cam.id not in last_size:
                continue
            view[i] = x, y, maintainer.buffer_scale * last_size[cam.id]
    return TargetRecords(np.array(frames, np.int64), np.array(tids, np.int64),
                         np.array(X, np.float64), np.array(codes, np.uint8),
                         tuple(cam.id for cam in cameras), views)


def record_dicts(records: TargetRecords) -> list[dict]:
    """The rows of `records` as the dicts a line of tracklets.jsonl holds:
    a view per camera whose x is not NaN, w and h its side."""
    return [{"frame": f, "track_id": tid, "X": x, "provenance": PROVENANCE[code].value,
             "per_view": [{"camera": camera, "x": vx, "y": vy, "w": side, "h": side,
                           "buffered": True}
                          for camera, (vx, vy, side) in zip(records.cameras, views)
                          if not math.isnan(vx)]}
            for f, tid, x, code, *views in zip(
                records.frame.tolist(), records.track_id.tolist(), records.X.tolist(),
                records.provenance.tolist(), *(view.tolist() for view in records.views))]


def reference_save_target_records(records, path) -> None:
    """One json.dumps(sort_keys=True) per record."""
    write_jsonl(path, record_dicts(records))


def assert_same_records(got, want):
    assert isinstance(got, TargetRecords) and len(got) == len(want)
    assert got.cameras == want.cameras
    for name in ("frame", "track_id", "X", "provenance", "views"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def cameras_shown(records, i) -> list[int]:
    return [camera for camera, view in zip(records.cameras, records.views[:, i])
            if not np.isnan(view[0])]


def emit_both(frames, X, tids, tracks, buffer_scale=1.3):
    """`_emit` and the oracle on the registry of the (points, segments)
    `tracks`, the oracle reading the boxes of the segments themselves."""
    frames, X, tids = np.asarray(frames), np.asarray(X, dtype=float), np.asarray(tids)
    codes = np.zeros(len(frames), np.uint8)
    maintainer = TargetMaintainer(space=SPACE, criteria=CRIT, buffer_scale=buffer_scale)
    got = maintainer._emit(frames, X, codes, tids, registry_of(*tracks), RIG)
    boxes = newest_wins((tid, int(seg.camera[0]), box_dict(seg))
                        for tid, (_, segments) in enumerate(tracks) for seg in segments)
    assert_same_records(got, reference_emit(maintainer, frames, X, codes, tids, boxes, RIG))
    return got


def walk(n, z=1.8):
    return np.array([[0.05 * f, -0.02 * f, z] for f in range(n)])


def linked_boxes(points, frames, camera=0, offset=(0.0, 0.0), size=(40.0, 100.0)):
    """{frame: box} centred `offset` pixels from each point's projection."""
    pixels = project(RIG[camera], points)
    return {f: (pixels[f, 0] + offset[0], pixels[f, 1] + offset[1], *size) for f in frames}


def registry_of(*tracks):
    """A registry of (points, segments) tracks from frame 0, ids from 0, each
    linked to the boxes of its one-row segment tables, a later table's
    where two hold a box."""
    reg = TrackRegistry()
    for tid, (points, segments) in enumerate(tracks):
        links = np.full((len(RIG), len(points), 4), np.nan)
        for seg in segments:
            lo = int(seg.start[0])
            window, linked = links[:, lo:lo + seg.boxes.shape[1]], links_of(seg, RIG)
            np.copyto(window, linked, where=~np.isnan(linked))
        reg.tracks[tid] = to_record(FrameTrack(points=dict(enumerate(points))), links=links)
    return reg


class TestEmitEqualsPerFrameLoop:
    def test_views_wait_for_a_first_size(self):
        X = walk(30)
        tracks = [(X, [window_segment(0, linked_boxes(X, range(12, 30)), start=12, span=18)])]
        got = emit_both(range(30), X, [0] * 30, tracks)
        assert cameras_shown(got, 5) == []
        assert cameras_shown(got, 12) == [0]

    def test_far_linked_box_reuses_the_last_size(self):
        X = walk(30)
        near = linked_boxes(X, range(0, 10))
        far = linked_boxes(X, range(10, 20), offset=(60.0, 0.0), size=(30.0, 30.0))
        tracks = [(X, [window_segment(0, {**near, **far}, span=30)])]
        got = emit_both(range(30), X, [0] * 30, tracks)
        assert got.views[0, 15, 2] == 1.3 * 100.0

    def test_point_behind_a_camera_has_no_view_there(self):
        cam = RIG[0]
        behind = cam.center + (cam.center - np.array([0.0, 0.0, cam.center[2]]))
        X = np.vstack([walk(10), [behind], walk(10)[::-1]])
        assert np.isnan(project(cam, X[10:11])).all()
        tracks = [(X, [window_segment(cam.id, linked_boxes(X[:10], range(10), cam.id))
                       for cam in RIG])]
        got = emit_both(range(21), X, [0] * 21, tracks)
        assert 0 not in cameras_shown(got, 10)
        assert 0 in cameras_shown(got, 12)

    def test_several_tracks_and_gaps_in_the_timeline(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            tracks = []
            for _tid in range(3):
                X = walk(60, z=rng.uniform(0.5, 2.0)) + rng.normal(0, 0.2, (60, 3))
                frames = sorted(rng.choice(60, 40, replace=False).tolist())
                segments = [window_segment(c, linked_boxes(
                    X, frames, camera=c, offset=rng.normal(0, 30, 2),
                    size=rng.uniform(20, 120, 2)), span=60)
                    for c in rng.choice(len(RIG), rng.integers(0, len(RIG) + 1),
                                        replace=False).tolist()]
                tracks.append((X, segments))
            frames = np.sort(rng.choice(60, 40, replace=False))
            tids = np.sort(rng.integers(0, 3, 40))
            X = np.array([tracks[t][0][f] for f, t in zip(frames.tolist(), tids.tolist())])
            emit_both(frames, X, tids, tracks, buffer_scale=rng.uniform(1, 2))


@pytest.mark.parametrize("scenario", ["opposite-only-episode", "crowded-distractors"])
def test_emit_equals_per_frame_loop_on_a_scene(monkeypatch, scenario):
    spec = get_scenario_spec(scenario)
    spec["duration"] = min(spec["duration"], 300)
    calls, merged = [], []
    emit, advance = TargetMaintainer._emit, TrackRegistry.advance

    def advance_spy(self, window_start, window_tracks):
        # The boxes of each window track, per camera, under the id of the
        # track it was merged into, read before the merge.
        boxes = [[(cam.id, {wt.first + j: Bbox(*box)
                            for j, box in enumerate(links.tolist()) if not math.isnan(box[0])})
                  for cam, links in zip(wt.rig, wt.links)] for wt in window_tracks]
        advance(self, window_start, window_tracks)
        for tid, rec in self.tracks.items():
            for wt, linked in zip(window_tracks, boxes):
                if any(wt is pending for pending in rec.pending):
                    merged.extend((tid, camera, b) for camera, b in linked)
    monkeypatch.setattr(TrackRegistry, "advance", advance_spy)
    monkeypatch.setattr(TargetMaintainer, "_emit",
                        lambda self, *args: calls.append((self, args)) or emit(self, *args))
    got, _ = pipeline.run_pipeline(*simulated(spec), Mode.CASCADE)
    (maintainer, (frames, X, codes, tids, _, rig)), = calls
    assert len(got) and not np.isnan(got.views).all()
    assert_same_records(got, reference_emit(maintainer, frames, X, codes, tids,
                                            newest_wins(merged), rig))


finite = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = [-0.0, 5e-324, 1e16, 1e-5, 1e22]


@st.composite
def target_records(draw):
    n = draw(st.integers(0, 4))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype)

    cameras = tuple(draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=4, unique=True)))
    # A camera's view at a frame: x, y and side, or NaN for none.
    view = st.tuples(finite, finite, finite) | st.just((math.nan,) * 3)
    return TargetRecords(
        frame=column(st.integers(0, MAX_FRAME), np.int64),
        track_id=column(st.integers(0, 2**40), np.int64),
        X=column(st.tuples(*[finite | st.sampled_from(SPECIAL)] * 3), np.float64).reshape(n, 3),
        provenance=column(st.integers(0, len(PROVENANCE) - 1), np.uint8),
        cameras=cameras,
        views=np.array([column(view, np.float64).reshape(n, 3) for _ in cameras],
                       np.float64).reshape(len(cameras), n, 3))


@settings(max_examples=300, deadline=None)
@given(recs=target_records())
@example(recs=TargetRecords(np.array([0]), np.array([0]), np.array([SPECIAL[:3]]),
                            np.array([PROVENANCE.index(Provenance.INTERPOLATED)], np.uint8), (3,),
                            np.array([[[SPECIAL[3], SPECIAL[4], -0.0]]])))
def test_writer_bytes_equal_json_dumps(tmp_path_factory, recs):
    out = tmp_path_factory.mktemp("records")
    save_target_records(recs, out / "got.jsonl")
    reference_save_target_records(recs, out / "want.jsonl")
    got = (out / "got.jsonl").read_bytes()
    assert got == (out / "want.jsonl").read_bytes()
    assert got.decode().splitlines() == [json.dumps(rec, sort_keys=True)
                                         for rec in record_dicts(recs)]


def test_output_is_columns_in_memory():
    """`run_pipeline` returns the target output as columns: under
    tracemalloc it holds at most 200 B per frame (clean-4cam, 1 800 frames,
    four cameras), where rows of per-view dicts held about 1 750."""
    inputs = simulated(get_scenario_spec("clean-4cam"))
    tracemalloc.start()
    try:
        records, _registry = pipeline.run_pipeline(*inputs)
        frames, held = len(records), tracemalloc.get_traced_memory()[0]
        del records
        size = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert frames > 1000
    assert size <= 200 * frames, f"{size / frames:.0f} B per frame"
