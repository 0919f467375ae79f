"""No mvtrack command imports scipy: each check runs in a fresh
interpreter, so modules imported by other tests do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT_SCIPY = ("import sys, json; print(json.dumps(sorted("
                "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")


def scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code + "\n" + REPORT_SCIPY],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy():
    assert scipy_modules_after("import mvtrack.cli") == []


def test_simulate_and_track_load_no_scipy(tmp_path):
    out = str(tmp_path)
    code = f"""
from click.testing import CliRunner
from mvtrack.cli import main
runner = CliRunner()
result = runner.invoke(main, ["simulate", "clean-4cam", "--out", {out!r}])
assert result.exit_code == 0, result.output
result = runner.invoke(main, [
    "track", "--detections", {out!r} + "/detections.jsonl",
    "--calib", {out!r} + "/calib.json", "--config", {out!r} + "/routine.json",
    "--out", {out!r}])
assert result.exit_code == 0, result.output
"""
    assert scipy_modules_after(code) == []
