"""Shared fixtures of the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import elfkit


@pytest.fixture
def run_script():
    """Run a script of ``tests/`` in a fresh process, with the tested ``elfkit``'s source first on ``PYTHONPATH``.

    ``run_script("fingerprint.py", "write", path)`` returns the ``CompletedProcess``, its output as text.
    """
    src = os.path.dirname(os.path.dirname(elfkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(script: str, *args: str) -> subprocess.CompletedProcess:
        argv = [sys.executable, str(Path(__file__).resolve().parent / script), *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    return run
