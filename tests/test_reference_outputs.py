"""Every run on the regression grid of `reference_outputs.py` gives the
recorded target output: byte for byte where the numpy version and platform
match the recorded ones, and in its platform-tolerant form everywhere."""

import json
import math

import pytest

import reference_outputs as ref

REFERENCE = json.loads(ref.REFERENCE.read_text())
SAME_PLATFORM = REFERENCE["environment"] == ref.environment()


@pytest.mark.parametrize("name, spec, mode", ref.entries(), ids=[e[0] for e in ref.entries()])
def test_output_equals_reference(name, spec, mode):
    want = REFERENCE["entries"][name]
    got = ref.summary(*ref.run(spec, mode))
    tolerant, want_tolerant = got["tolerant"], want["tolerant"]
    for key in ("frames", "track_ids", "provenance", "cameras", "tenures"):
        assert tolerant[key] == want_tolerant[key], key
    for key in ("x_sums", "box_sums"):
        for a, b in zip(tolerant[key], want_tolerant[key], strict=True):
            assert math.isclose(a, b, rel_tol=0.0, abs_tol=ref.SUM_TOL), (key, a, b)
    if SAME_PLATFORM:
        assert got["tracklets_sha256"] == want["tracklets_sha256"]
        assert got["tenures_sha256"] == want["tenures_sha256"]


def test_grid_is_the_recorded_one():
    assert sorted(REFERENCE["entries"]) == sorted(name for name, _, _ in ref.entries())
