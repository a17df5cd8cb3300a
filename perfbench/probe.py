"""Set-up probe: a fresh interpreter that does what `gradroute run` does
before its first tick, then prints the monotonic clock.

    python3 perfbench/probe.py <checkout root> <config.json>

The parent reads the same clock (CLOCK_MONOTONIC is system-wide) just
before starting this process, so the difference is interpreter start,
`import gradroute`, `load_config` and `Simulation(cfg)`.
"""
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]) / "src"
    sys.path.insert(0, str(src))
    import gradroute
    from gradroute.config import load_config
    from gradroute.engine import Simulation

    if Path(gradroute.__file__).resolve().parent != (src / "gradroute").resolve():
        print(f"gradroute imported from {gradroute.__file__}, not {src}", file=sys.stderr)
        return 2
    Simulation(load_config(sys.argv[2]))
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    sys.exit(main())
