"""Shared fixtures.

The CLI tests start ``python -m subsetlearn`` in a subprocess whose working
directory is the test's temporary directory.  A relative ``PYTHONPATH`` entry
(``PYTHONPATH=src``) would resolve against that directory, not the checkout,
so the child is given the absolute directory that holds the ``subsetlearn``
package this test process imported: ``src/`` in a checkout, ``site-packages``
when installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import subsetlearn
from subsetlearn import pipeline

PACKAGE_ROOT = str(Path(subsetlearn.__file__).resolve().parent.parent)

# Property tests draw the same examples on every run (no example database, no
# random seed) and stop after a fixed number, so tier-1 stays deterministic
# and bounded in time.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def run_cli():
    """``run_cli(*args, cwd=...)`` runs ``python -m subsetlearn *args`` in ``cwd``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")

    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "subsetlearn", *args], capture_output=True, text=True, cwd=cwd, env=env
        )

    return run


@pytest.fixture(autouse=True)
def cold_stage_cache():
    """Each test starts with no stage outputs cached in-process by an earlier test."""
    pipeline._STAGE_CACHE.clear()
