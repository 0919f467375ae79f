"""`mvtrack simulate` writes the recorded bytes: the sha256 of every file it
writes for each canned scene, at the scene's own seed and at 90210, and for
clean-4cam also at two seeds wider than 64 bits.

These files are the inputs of the regression grid (`reference_outputs.py`),
which checks only what `track` makes of them, so a simulator change that
moved an input would show there only as a moved output.  The digests were
recorded with the numpy version and platform in ENVIRONMENT and are
compared only there; elsewhere the test is skipped, naming both.
"""

import hashlib

import pytest
from click.testing import CliRunner

import reference_outputs as ref
from mvtrack.cli import main

ENVIRONMENT = {"numpy": "2.4.6", "platform": "linux-x86_64"}
_RIG_6M = "ee41fbedbc2695bc30d7c9678fcb3c24e163d2b6550ea257e3dcf0df96701f18"
_RIG_10M = "b961c769f6301f266ff1b67bbadaea94585e7fb7d3a6c321263153b48ab007ce"
_ROUTINE = "ed00368d5f23e81240b620775a9ea56a2549a2717a3011160e220ada89ae7613"
DIGESTS = {
    ("clean-4cam", 7): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "d2223638be6ac14555b165dec67d6729609589c8a4b8f87a2e4803637252b213",
        "routine.json": _ROUTINE,
        "truth.jsonl": "9258c80944972b5e4228321056ef2c4445e24580f29c0172f8da6d47847e6842",
    },
    ("clean-4cam", 90210): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "7e0d8326b2016869cccd3a06bfbea0a8b464828384a1b4f17ad5610303f2e424",
        "routine.json": _ROUTINE,
        "truth.jsonl": "38df53276f493d4108c66ab37466151dab8a4669b2f9ccd85103db009da66e71",
    },
    # Seeds of three 32-bit words and of six, more than the four-word pool
    # of numpy's SeedSequence.
    ("clean-4cam", 2**64 + 7): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "308a656a9d061c0091aacbd4d40dfb21528c19090b74205f68fef6765e93404e",
        "routine.json": _ROUTINE,
        "truth.jsonl": "5cb6a18b5bed7af4c106e3a5a7f4c1afadb365e2c99959ce6fd933311f975c10",
    },
    ("clean-4cam", 2**160 + 7): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "52309da0e950f7a627629c1856bd597c0736b21e020365300e705575e2a9e005",
        "routine.json": _ROUTINE,
        "truth.jsonl": "03c9c5fc8aaec565840a1fed59b53a8bdeddf2bb2093646b0c97d9b1307e36e8",
    },
    ("opposite-only-episode", 11): {
        "calib.json": _RIG_10M,
        "detections.jsonl": "5d8ae28a2c796deacac289c541e936eb724e835837800be4304b99c5711a92fb",
        "routine.json": _ROUTINE,
        "truth.jsonl": "83fd63966620c5e7607aa4b7805d901285ef23b9ce2f89046923911f9c307434",
    },
    ("opposite-only-episode", 90210): {
        "calib.json": _RIG_10M,
        "detections.jsonl": "89cd501e6283e9cb4d75a809fa1f893a49e3d518f1694b9c5fc7cdc79a895eba",
        "routine.json": _ROUTINE,
        "truth.jsonl": "ad9bc1b804a7dc8df525c85df18ee3c4b4997ff6387a4c28b6916c8cff902de7",
    },
    ("crowded-distractors", 23): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "ed34d97c8b548f652b46295954797a9e9d2eacdcc8df655403ee690c503f5727",
        "routine.json": _ROUTINE,
        "truth.jsonl": "50af5ef9e255fac3d86e0813f299df8ef583c060e64238590914b2d56df7bce5",
    },
    ("crowded-distractors", 90210): {
        "calib.json": _RIG_6M,
        "detections.jsonl": "14b3884d27b7304c460cbc7f0061652800be378f5ef815e18e136a73cb938654",
        "routine.json": _ROUTINE,
        "truth.jsonl": "a6ec2474024647b8840c39b08e2cdf6d5a6c9173a0327ce132ab668d7b0cca83",
    },
}


@pytest.mark.parametrize("name, seed", list(DIGESTS), ids=[f"{n}-{s}" for n, s in DIGESTS])
def test_simulate_writes_the_recorded_bytes(name, seed, tmp_path):
    if ref.environment() != ENVIRONMENT:
        pytest.skip(f"sha256 not compared: recorded with {ENVIRONMENT}, "
                    f"running with {ref.environment()}")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", name, "--out", str(out),
                                       "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    assert got == DIGESTS[name, seed]
