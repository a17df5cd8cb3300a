"""Run orchestration: metrics sampling, CSV/theta output, multi-seed batches.

run_experiment drives one simulation, sampling a MetricsRow every
cfg.sample_every ticks (and at the final tick). batch repeats a config
over seeds and aggregates, including the ticks-to-threshold statistic
used to compare convergence speed with and without reward shaping: the
first sampled tick at which the moving average (over ma_window samples)
of the *underlying* reward reaches a threshold.
"""
from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import NamedTuple

from .config import ConfigError, ExperimentConfig
from .engine import Simulation
from .metrics import (
    MetricsRow,
    SampledMovingAverage,
    format_row,
    probability_column_names,
    write_header,
)
from .policy import softmax_row

OUTPUT_DIR_ENV = "GRADROUTE_OUT"


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


class RunResult(NamedTuple):
    """One run: its config (with the output paths it wrote), the sampled
    rows, the final logits and the engine's counters at the last tick."""

    config: ExperimentConfig
    steps_run: int
    rows: list[MetricsRow]
    final_theta: dict
    final_running_mean: float
    generated: int
    delivered: int
    dropped: int
    cycles_detected: int
    ticks_to_threshold: int | None


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    underlying_threshold: float | None = None,
    stop_at_threshold: bool = False,
) -> RunResult:
    """Execute one run. Given an out_dir, the run writes
    metrics-seed<S>.csv and theta-seed<S>.json there, whatever paths cfg
    names; without one, it writes to cfg's paths, if any, and otherwise
    keeps its rows in memory only.

    underlying_threshold arms the ticks-to-threshold detector and must be
    finite; with stop_at_threshold the run ends at the first sampled tick
    whose underlying-reward moving average reaches the threshold, and
    without a threshold it is refused.

    An invalid config is refused before out_dir is created.
    """
    if stop_at_threshold and underlying_threshold is None:
        raise ValueError("--stop-at-threshold needs --threshold: no threshold to stop at")
    if underlying_threshold is not None and not math.isfinite(underlying_threshold):
        raise ValueError(
            f"--threshold must be a finite number, got {underlying_threshold!r}"
        )
    sim = Simulation(cfg)
    cfg = _resolve_paths(cfg, out_dir)
    rows: list[MetricsRow] = []
    reward_ma = SampledMovingAverage(cfg.ma_window)
    underlying_ma = SampledMovingAverage(cfg.ma_window)
    tracked = [
        (tp.router, tp.dest, cfg.topology.out_link_indices(tp.router).index(tp.link_index))
        for tp in cfg.tracked
    ]
    ticks_to_threshold: int | None = None

    csv_fh = open(cfg.csv_path, "w", encoding="utf-8", newline="\n") if cfg.csv_path else None
    try:
        if csv_fh:
            write_header(csv_fh, cfg)
        sample_every = cfg.sample_every
        for _ in range(cfg.steps):
            stats = sim.step()
            t = stats.tick
            if t % sample_every == 0 or t == cfg.steps:
                probs = tuple(
                    softmax_row(sim.logits(r, d))[slot] for r, d, slot in tracked
                )
                underlying, shaping, total = stats.reward
                ma = reward_ma.push(total)
                u_ma = underlying_ma.push(underlying)
                row = MetricsRow(
                    t,
                    total,
                    underlying,
                    shaping,
                    ma,
                    sim.running_mean,
                    probs,
                    sim.delivered_total,
                    sim.dropped_total,
                    sim.cycles_total,
                )
                rows.append(row)
                if csv_fh:
                    csv_fh.write(format_row(row) + "\n")
                if (
                    underlying_threshold is not None
                    and ticks_to_threshold is None
                    and u_ma >= underlying_threshold
                ):
                    ticks_to_threshold = t
                    if stop_at_threshold:
                        break
    finally:
        if csv_fh:
            csv_fh.close()

    theta = sim.theta()
    if cfg.theta_path:
        Path(cfg.theta_path).write_text(
            json.dumps(theta, indent=2) + "\n", encoding="utf-8"
        )
    return RunResult(
        config=cfg,
        steps_run=sim.tick_count,
        rows=rows,
        final_theta=theta,
        final_running_mean=sim.running_mean,
        generated=sim.generated_total,
        delivered=sim.delivered_total,
        dropped=sim.dropped_total,
        cycles_detected=sim.cycles_total,
        ticks_to_threshold=ticks_to_threshold,
    )


def summary_line(res: RunResult) -> str:
    parts = [
        f"ticks={res.steps_run}",
        f"running_mean={res.final_running_mean:.4f}",
        f"delivered={res.delivered}",
        f"dropped={res.dropped}",
        f"cycles={res.cycles_detected}",
    ]
    for name, p in zip(probability_column_names(res.config), res.rows[-1].probs):
        parts.append(f"{name}={p:.4f}")
    return "  ".join(parts)


def _resolve_paths(cfg: ExperimentConfig, out_dir: str | Path | None) -> ExperimentConfig:
    if out_dir is None:
        return cfg
    # absolute, so a saved config names the same files wherever it is loaded
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    return cfg._replace(
        csv_path=str(out / f"metrics-seed{cfg.seed}.csv"),
        theta_path=str(out / f"theta-seed{cfg.seed}.json"),
    )


class BatchResult(NamedTuple):
    runs: list[RunResult]  # one per seed, in the order given
    mean_final_reward: float
    median_ticks_to_threshold: float | None

    def table(self) -> str:
        lines = ["seed  ticks_to_threshold  final_running_mean"]
        for r in self.runs:
            ttt = "-" if r.ticks_to_threshold is None else str(r.ticks_to_threshold)
            lines.append(f"{r.config.seed:<6}{ttt:<20}{r.final_running_mean:.4f}")
        med = self.median_ticks_to_threshold
        lines.append(
            f"aggregate: median_ticks_to_threshold="
            f"{'-' if med is None else med}  mean_final_reward={self.mean_final_reward:.4f}"
        )
        return "\n".join(lines)


def batch(
    cfg: ExperimentConfig,
    seeds: list[int],
    *,
    underlying_threshold: float | None = None,
    stop_at_threshold: bool = False,
    out_dir: str | Path | None = None,
) -> BatchResult:
    """Run the config once per seed and aggregate.

    Runs that never reach the threshold are counted at cfg.steps (a lower
    bound on their true crossing time), which can only understate the
    advantage of the faster arm in a comparison.

    Each seed's files go to out_dir; without one, a config that names
    output files is refused, since every seed would write to them.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is given twice; a batch runs each seed once")
    if out_dir is None:
        for key, path in (("output.csv", cfg.csv_path), ("output.theta", cfg.theta_path)):
            if path:
                raise ConfigError(
                    f"{key}: every seed of a batch would write to {path!r}; "
                    "give the batch an output directory instead"
                )
    runs = [
        run_experiment(
            cfg._replace(seed=seed),
            out_dir,
            underlying_threshold=underlying_threshold,
            stop_at_threshold=stop_at_threshold,
        )
        for seed in seeds
    ]
    median = None
    if underlying_threshold is not None:
        median = statistics.median(
            float(r.ticks_to_threshold if r.ticks_to_threshold is not None else cfg.steps)
            for r in runs
        )
    return BatchResult(
        runs=runs,
        mean_final_reward=statistics.fmean(r.final_running_mean for r in runs),
        median_ticks_to_threshold=median,
    )
