import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the shared corpus asserts as the test modules do, also under -O
pytest.register_assert_rewrite("corpus")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def run_python(script, *options):
    """Run ``script`` in a ``python`` subprocess with the given command
    line options, importing fatcob from the same source tree as the
    tests; returns the finished process."""
    import subprocess

    import fatcob
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(fatcob.__file__))))
    return subprocess.run([sys.executable, *options, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def run_optimized(script):
    """:func:`run_python` under ``python -O``."""
    return run_python(script, "-O")
