import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def run_optimized(script):
    """Run ``script`` in a ``python -O`` subprocess that imports fatcob
    from the same source tree as the tests; returns the finished process."""
    import subprocess

    import fatcob
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(fatcob.__file__))))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
