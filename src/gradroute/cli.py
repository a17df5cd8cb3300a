"""Command-line entry point.

    gradroute run <config.json> [--out DIR]
    gradroute preset <name> [--steps N] [--seed S] [--beta B] [--gamma G] [--out DIR]
    gradroute batch <config.json> --seeds 1,2,3 [--threshold X] [--out DIR]
    gradroute oracle <name> [params...]
    gradroute reproduce [claim ...] [--out DIR]

The default output directory is $GRADROUTE_OUT, falling back to ./runs.
Every run, whichever command starts it, writes the same files per seed
into its directory, whatever the config's `output` section names:
config-seed<S>.json (saved before the run starts), metrics-seed<S>.csv,
theta-seed<S>.json (not for a run that fails) and its manifest
run-seed<S>.json. `batch` writes files only when given --out; without
it, a batch refuses a config that names output files.
`batch --threshold X` ends each seed's run at the first sampled tick at
which the underlying reward's moving average, over a full window,
reaches X, and its table gives that tick per seed and their median.
`batch` exits 1 if a seed's load diverged, after its table, and
`reproduce` if a claim fails. A claim or seed named twice is refused
before anything runs. An error, such as a `run` whose load diverged or
a file that cannot be read or written, prints one line and exits 2.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .engine import SimulationError
from .harness import batch, default_output_dir, run_experiment, summary_line
from .oracles import (
    braess_cost_for_flows,
    braess_expected_cost,
    contention_expected_reward,
    contention_optimal_p,
    expected_optimal_reward,
)
from .presets import PRESET_NAMES, braess_network, preset, triangle_network

# each oracle and the parameters it takes, as its usage line shows them
_ORACLES = {
    "contention-reward": (contention_expected_reward, "P D"),
    "contention-optimal": (contention_optimal_p, "D"),
    "braess-cost": (braess_cost_for_flows, "PATH=COUNT [PATH=COUNT ...]"),
    "braess-expected": (braess_expected_cost, "P_LEFT P_EF"),
    "triangle-optimal": (lambda: expected_optimal_reward(*triangle_network()), ""),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradroute",
        description="Packet routing simulator with policy-gradient learning routers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")

    p_preset = sub.add_parser("preset", help="run a built-in experiment")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--steps", type=int, default=None)
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--beta", type=float, default=None)
    p_preset.add_argument("--gamma", type=float, default=None)

    p_batch = sub.add_parser("batch", help="run one config over several seeds")
    p_batch.add_argument("config")
    p_batch.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_batch.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="end each run at the first tick at which the windowed underlying reward "
        "reaches this value",
    )

    p_oracle = sub.add_parser("oracle", help="evaluate an analytic baseline")
    p_oracle.add_argument("name", choices=list(_ORACLES))
    p_oracle.add_argument("params", nargs="*")
    p_oracle.add_argument(
        "--braess0", action="store_true", help="braess-cost only: the network without the shortcut"
    )

    p_repro = sub.add_parser("reproduce", help="check the paper's claims")
    p_repro.add_argument("claims", nargs="*", metavar="claim")
    for p in (p_run, p_preset, p_batch, p_repro):
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _out_dir(arg: str | None, name: str) -> Path:
    base = Path(arg) if arg else default_output_dir()
    return base / name


def _run_and_save(cfg, out: Path) -> int:
    """Run cfg in `out`, which saves its config first, and print the
    summary."""
    res = run_experiment(cfg, out)
    print(summary_line(res))
    print(f"metrics: {res.config.csv_path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    return _run_and_save(cfg, _out_dir(args.out, Path(args.config).stem + f"-seed{cfg.seed}"))


def _cmd_preset(args) -> int:
    flags = ("steps", "seed", "beta", "gamma")
    overrides = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    cfg = preset(args.name).with_overrides(**overrides)
    return _run_and_save(cfg, _out_dir(args.out, f"{args.name}-seed{cfg.seed}"))


def _cmd_batch(args) -> int:
    cfg = load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValueError(
            f"--seeds takes comma-separated integers, got {args.seeds!r}"
        ) from None
    out = _out_dir(args.out, Path(args.config).stem + "-batch") if args.out else None
    result = batch(cfg, seeds, underlying_threshold=args.threshold, out_dir=out)
    print(result.table())
    return 0 if len(result.finished) == len(seeds) else 1


def _oracle_error(name: str, problem: str) -> ValueError:
    usage = f"gradroute oracle {name} {_ORACLES[name][1]}".rstrip()
    return ValueError(f"oracle {name} {problem}; usage: {usage}")


def _oracle_numbers(name: str, params: list[str]) -> list[float]:
    """The oracle's parameters as finite floats, exactly as many as it takes."""
    want = len(_ORACLES[name][1].split())
    if len(params) != want:
        raise _oracle_error(name, f"takes {want} parameter(s), got {len(params)}")
    values = []
    for item in params:
        try:
            v = float(item)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise _oracle_error(name, f"needs finite numbers, got {item!r}")
        values.append(v)
    return values


def _oracle_flows(name: str, params: list[str]) -> dict[str, int]:
    """PATH=COUNT parameters as {path: count}: at least one, each path
    once, counts >= 0."""
    if not params:
        raise _oracle_error(name, "takes at least one parameter, got 0")
    flows = {}
    for item in params:
        path, _, count = item.partition("=")
        try:
            n = int(count)
        except ValueError:
            n = -1
        if not path or n < 0:
            raise _oracle_error(
                name, f"needs PATH=COUNT with a whole COUNT >= 0, got {item!r}"
            )
        if path in flows:
            raise _oracle_error(name, f"names path {path} twice")
        flows[path] = n
    return flows


def _cmd_oracle(args) -> int:
    name, params = args.name, args.params
    if name == "braess-cost":
        topo, _ = braess_network(augmented=not args.braess0)
        print(braess_cost_for_flows(topo, _oracle_flows(name, params)))
    elif args.braess0:
        raise _oracle_error(name, "does not take --braess0")
    else:
        oracle, _ = _ORACLES[name]
        print(oracle(*_oracle_numbers(name, params)))
    return 0


def _cmd_reproduce(args) -> int:
    from .claims import CLAIMS, check  # builds its oracle targets on import

    for i, name in enumerate(args.claims):
        if name not in CLAIMS:
            raise ValueError(f"unknown claim {name!r}; choose from {', '.join(CLAIMS)}")
        if name in args.claims[:i]:
            raise ValueError(f"claim {name} is given twice; reproduce checks each claim once")
    print(f"{'claim':<17}{'target':<26}per seed  |  summary  |  verdict")
    failed = 0
    for name in args.claims or CLAIMS:
        target, cells, summary, passed = check(name, _out_dir(args.out, "reproduce") / name)
        print(f"{name:<17}{target:<26}{cells}  |  {summary}  |  {'PASS' if passed else 'FAIL'}")
        failed += not passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {
        "run": _cmd_run,
        "preset": _cmd_preset,
        "batch": _cmd_batch,
        "oracle": _cmd_oracle,
        "reproduce": _cmd_reproduce,
    }[args.command]
    try:
        return command(args)
    except (ConfigError, ValueError, OSError, SimulationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
