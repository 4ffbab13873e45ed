"""README's library tour runs as written against the installed package."""

import os
import pathlib
import re
import subprocess
import sys

import puriscope

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    package_root = str(pathlib.Path(puriscope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    moment_value, moment_truth = map(float, done.stdout.split("\n")[0].split())
    assert abs(moment_truth - 0.82) < 1e-12 and abs(moment_value - moment_truth) < 0.05
