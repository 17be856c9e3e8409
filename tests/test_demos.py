import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


# 04 trains a model for about 30 s and is left to be run by hand
@pytest.mark.parametrize("demo", ["01_layers_and_gradients.py",
                                  "02_ctc_loss_and_decoding.py",
                                  "03_feature_pipeline.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
