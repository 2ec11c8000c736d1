"""Run code in a fresh interpreter that imports plumbric from this checkout."""

import json
import os
import pathlib
import subprocess
import sys

import plumbric

SRC = str(pathlib.Path(plumbric.__file__).resolve().parent.parent)


def last_json(code: str):
    """The JSON value on the last stdout line of a fresh interpreter running
    ``code``; a failing run raises ``CalledProcessError``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])
