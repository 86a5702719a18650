"""Rewrite the golden outputs beside this file from the checkout's code.

Usage: ``python tests/golden/regenerate.py``.  It runs each case of
``tests/test_golden.py`` under ``SOURCE_DATE_EPOCH=0`` into a fresh
directory of that case's name here, the files that test compares.
"""

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, GOLDEN, write  # noqa: E402

if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    for name, argv in CASES.items():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        write(argv, GOLDEN / name)
