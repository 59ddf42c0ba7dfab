import os
import random
import subprocess
import sys

import pytest

import radialspec


@pytest.fixture
def rng():
    return random.Random(171717)


@pytest.fixture
def fresh_python():
    """Runs `python *args` in a fresh interpreter that imports radialspec from
    where this session does, asserts that it exits 0 and returns its stdout."""
    src = os.path.dirname(os.path.dirname(radialspec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args: str) -> str:
        proc = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    return run
