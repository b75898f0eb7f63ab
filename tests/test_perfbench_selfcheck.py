"""The benchmark harness runs end to end: ``perfbench/selfcheck.py`` runs
every workload once untraced and once traced on tiny scenes, so a change
that breaks a workload, a check or a metric fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selfcheck_ok():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck: ok"
