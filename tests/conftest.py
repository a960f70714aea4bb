"""Make ``src`` importable for the child interpreters the CLI tests start.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path only, so a bare ``pytest`` from a checkout passes it on here too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
