"""The narrative demos run to completion; the training one takes about 6 s
on a 2 vCPU Intel Xeon."""

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
                                  "04_fusion_model.py",
                                  "05_train_eval_ablation.py"])
def test_demo_runs(name, tmp_path):
    # TMPDIR: a demo's temporary files go in tmp_path, where the test can
    # see that none is left behind
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("msfser_demo_*"))
