"""The narrative demos run to completion (all but the ~30 s training one)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import msfser

SRC = Path(msfser.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("name", ["01_textgrid_roundtrip.py",
                                  "02_prosody_features.py",
                                  "03_emphasis_detection.py",
                                  "04_fusion_model.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
