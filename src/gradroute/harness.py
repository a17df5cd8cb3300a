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
import os
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from .config import ExperimentConfig
from .engine import Simulation
from .metrics import MetricsRow, SampledMovingAverage, format_row, write_header
from .policy import softmax_row

OUTPUT_DIR_ENV = "GRADROUTE_OUT"


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


@dataclass
class RunResult:
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
    csv_path: str | None
    theta_path: str | None

    def final_window_mean(self, column: str) -> float:
        """Mean of a column over the trailing ma_window sampled rows."""
        rows = self.rows[-self.config.ma_window :]
        if not rows:
            raise ValueError("no sampled rows")
        if column.startswith("p["):
            from .metrics import probability_column_names

            idx = probability_column_names(self.config).index(column)
            return statistics.fmean(r.probs[idx] for r in rows)
        return statistics.fmean(getattr(r, column) for r in rows)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    underlying_threshold: float | None = None,
    stop_at_threshold: bool = False,
    quiet: bool = True,
) -> RunResult:
    """Execute one run. Output files are written when cfg carries paths or
    an out_dir is given; otherwise rows stay in memory only.

    underlying_threshold arms the ticks-to-threshold detector; with
    stop_at_threshold the run ends at the first sampled tick whose
    underlying-reward moving average reaches the threshold.
    """
    cfg = _resolve_paths(cfg, out_dir)
    sim = Simulation(cfg)
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
                ma = reward_ma.push(stats.reward.total)
                u_ma = underlying_ma.push(stats.reward.underlying)
                row = MetricsRow(
                    tick=t,
                    reward_total=stats.reward.total,
                    reward_underlying=stats.reward.underlying,
                    reward_shaping=stats.reward.shaping,
                    reward_ma=ma,
                    running_mean=sim.average_reward.mean,
                    probs=probs,
                    delivered=sim.delivered_total,
                    dropped=sim.dropped_total,
                    cycles=sim.cycles_total,
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

    result = sim.result()
    if cfg.theta_path:
        Path(cfg.theta_path).write_text(
            json.dumps(result.theta, indent=2) + "\n", encoding="utf-8"
        )
    run_result = RunResult(
        config=cfg,
        steps_run=result.steps,
        rows=rows,
        final_theta=result.theta,
        final_running_mean=result.average_reward,
        generated=result.generated,
        delivered=result.delivered,
        dropped=result.dropped,
        cycles_detected=result.cycles_detected,
        ticks_to_threshold=ticks_to_threshold,
        csv_path=cfg.csv_path,
        theta_path=cfg.theta_path,
    )
    if not quiet:
        print(summary_line(run_result))
    return run_result


def summary_line(res: RunResult) -> str:
    parts = [
        f"ticks={res.steps_run}",
        f"running_mean={res.final_running_mean:.4f}",
        f"delivered={res.delivered}",
        f"dropped={res.dropped}",
        f"cycles={res.cycles_detected}",
    ]
    if res.rows and res.rows[-1].probs:
        from .metrics import probability_column_names

        for name, p in zip(probability_column_names(res.config), res.rows[-1].probs):
            parts.append(f"{name}={p:.4f}")
    if res.ticks_to_threshold is not None:
        parts.append(f"ticks_to_threshold={res.ticks_to_threshold}")
    return "  ".join(parts)


def _resolve_paths(cfg: ExperimentConfig, out_dir: str | Path | None) -> ExperimentConfig:
    if out_dir is None:
        return cfg
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return replace(
        cfg,
        csv_path=cfg.csv_path or str(out / f"metrics-seed{cfg.seed}.csv"),
        theta_path=cfg.theta_path or str(out / f"theta-seed{cfg.seed}.json"),
    )


@dataclass
class SeedResult:
    seed: int
    final_running_mean: float
    ticks_to_threshold: int | None
    steps_run: int


@dataclass
class BatchResult:
    seed_results: list[SeedResult]
    mean_final_reward: float
    median_ticks_to_threshold: float | None

    def table(self) -> str:
        lines = ["seed  ticks_to_threshold  final_running_mean"]
        for r in self.seed_results:
            ttt = "-" if r.ticks_to_threshold is None else str(r.ticks_to_threshold)
            lines.append(f"{r.seed:<6}{ttt:<20}{r.final_running_mean:.4f}")
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
    """
    if not seeds:
        raise ValueError("need at least one seed")
    seed_results = []
    for seed in seeds:
        res = run_experiment(
            replace(cfg, seed=seed),
            out_dir,
            underlying_threshold=underlying_threshold,
            stop_at_threshold=stop_at_threshold,
        )
        seed_results.append(
            SeedResult(
                seed=seed,
                final_running_mean=res.final_running_mean,
                ticks_to_threshold=res.ticks_to_threshold,
                steps_run=res.steps_run,
            )
        )
    median = None
    if underlying_threshold is not None:
        median = statistics.median(
            float(r.ticks_to_threshold if r.ticks_to_threshold is not None else cfg.steps)
            for r in seed_results
        )
    return BatchResult(
        seed_results=seed_results,
        mean_final_reward=statistics.fmean(r.final_running_mean for r in seed_results),
        median_ticks_to_threshold=median,
    )
