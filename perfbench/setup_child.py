"""Set-up probe: run in a fresh interpreter, it times ``import ringtrap`` and
``load_config`` between two runs of the ``loop`` calibration task, and
prints the three times as a JSON list ``[seconds, before, after]``.

Usage: python3 -I perfbench/setup_child.py <src dir> <config.ini>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibration import calibration_s  # noqa: E402

before = calibration_s("loop")
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ringtrap  # noqa: E402,F401
from ringtrap.config import load_config  # noqa: E402

load_config(sys.argv[2])
seconds = time.perf_counter() - start
print(json.dumps([seconds, before, calibration_s("loop")]))
