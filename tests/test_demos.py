"""Each demo prints exactly what it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# SHA-256 of each demo's standard output
DEMO_STDOUT = {
    "class_commutators.py":
        "eb743b3b6d3e8e01f8ddae9802eeba9504ed62f6df21696a287b89a6bffa1fdb",
    "involution_pair_scans.py":
        "36115a1b249557229e6e217862658159a623a22b0aa250b37a2323a038dac95e",
    "trace_profiles.py":
        "90bc7be51e603330b830ffdbdbbd4d4e90091db8b0ea0b7f03f8a5de58fa7440",
    "wreath_sections.py":
        "0ccaa76c0ef91ab7983ae6699d4a7186261a981544333c2e91cd0a45f094aef4",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                  if f.endswith(".py")) == \
        sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_output_pinned(name):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[name]
