"""Make the benchmark modules and the checkout's program importable.

Run with:  python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent.parent / "src", HERE.parent):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
