#!/usr/bin/env python3
"""Print the golden SHA-256 digests that tests/test_golden.py pins.

Each preset in PRESET_NAMES runs for STEPS ticks from its own seed, with
a row every SAMPLE_EVERY ticks and a moving-average window of MA_WINDOW
rows (fewer than the rows written, so the window evicts). The metrics
CSV and theta JSON are written to a temporary directory and hashed.

Usage:  python3 scripts/golden_digests.py

The output is the GOLDEN table in the form tests/test_golden.py holds
it. Paste it there only for a change that is meant to alter the output
of some run, and record in CHANGES.md why the digests moved.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradroute.harness import run_experiment
from gradroute.presets import PRESET_NAMES, preset

STEPS = 3000
SAMPLE_EVERY = 7
MA_WINDOW = 50


def golden_digests(name: str, out_dir: str | Path) -> tuple[str, str]:
    """(CSV SHA-256, theta SHA-256) of the golden run of preset `name`."""
    cfg = preset(name).with_overrides(
        steps=STEPS, sample_every=SAMPLE_EVERY, ma_window=MA_WINDOW
    )
    res = run_experiment(cfg, out_dir)
    return tuple(
        hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in (res.config.csv_path, res.config.theta_path)
    )


def main() -> int:
    print("GOLDEN = {")
    for name in PRESET_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            csv_sha, theta_sha = golden_digests(name, tmp)
        print(f'    "{name}": (')
        print(f'        "{csv_sha}",')
        print(f'        "{theta_sha}",')
        print("    ),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
