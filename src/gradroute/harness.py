"""Run orchestration: metrics sampling, CSV/theta output, multi-seed batches.

run_experiment drives one simulation, sampling a MetricsRow every
cfg.sample_every ticks (and at the final tick). batch is the one loop
over seeds: it records a seed whose load diverges, runs the rest and
aggregates those, with the ticks-to-threshold statistic that compares
convergence speed with and without reward shaping: the first sampled
tick at which the mean of the *underlying* reward over the last
ma_window samples, once the window is full, reaches a threshold, else
cfg.steps (censored_ticks).

A run given an output directory saves its config there first, as
config-seed<S>.json (the config with the output paths the run writes, as
save_config writes it), then writes metrics-seed<S>.csv,
theta-seed<S>.json and run-seed<S>.json. run_experiment is the only place
that saves a run's config, so every command's directories share this
layout; a run without a directory saves none.

A run that writes a CSV also writes its manifest, run-seed<S>.json,
beside it: the SHA-256 of the config text save_config writes, the
version, seed, steps and steps_run, the wall time and ticks/s, the final
counters and the stop reason: "steps", "threshold" (stopped at the
threshold), "load_diverged" or "error" (any other SimulationError or
ValueError, such as a non-finite reward). A run stopped by an exception
closes its CSV and writes the manifest, with steps_run the tick that
failed and `error` the message, before raising it again.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from . import __version__
from .config import ConfigError, ExperimentConfig, config_text, save_config
from .engine import LoadDiverged, Simulation, SimulationError
from .metrics import (
    MetricsRow,
    SampledMovingAverage,
    format_row,
    probability_column_names,
    write_header,
)
# not called here: perfbench's tracer patches harness.softmax_row by name,
# and a traced run raises KeyError if the name is missing
from .policy import softmax_row  # noqa: F401

OUTPUT_DIR_ENV = "GRADROUTE_OUT"


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


class RunResult(NamedTuple):
    """One run: its config (with the output paths it wrote), the sampled
    rows, the final logits, the engine's counters at the last tick and
    why the run stopped ("steps" or "threshold", as in the manifest)."""

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
    stop_reason: str


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    underlying_threshold: float | None = None,
    stop_at_threshold: bool = False,
) -> RunResult:
    """Execute one run. Given an out_dir, the run saves
    config-seed<S>.json there first, then writes metrics-seed<S>.csv and
    theta-seed<S>.json, whatever paths cfg names; without one, it saves no
    config, writes to cfg's paths, if any, and otherwise keeps its rows in
    memory only.

    underlying_threshold arms the ticks-to-threshold detector and must be
    finite; with stop_at_threshold the run ends at the first sampled tick
    whose underlying-reward moving average, over a full window, reaches
    the threshold, and without a threshold it is refused.

    An invalid config is refused before out_dir is created. A run with a
    CSV writes its manifest beside it (module doc).
    """
    _check_threshold(underlying_threshold, stop_at_threshold)
    start = perf_counter()
    sim = Simulation(cfg)
    if out_dir is not None:
        cfg = _resolve_paths(cfg, out_dir)
        save_config(cfg, Path(cfg.csv_path).with_name(f"config-seed{cfg.seed}.json"))
    rows: list[MetricsRow] = []
    ticks_to_threshold: int | None = None
    window = cfg.ma_window
    # the underlying-reward average is kept only while a threshold waits
    armed = underlying_threshold is not None
    push_underlying = SampledMovingAverage(window).push
    stop_reason = "steps"

    csv_fh = open(cfg.csv_path, "w", encoding="utf-8", newline="\n") if cfg.csv_path else None
    try:
        if csv_fh:
            write_header(csv_fh, cfg)
        # the loop's per-tick lookups, bound once
        write = csv_fh.write if csv_fh else None
        step = sim.step
        probabilities = sim.probabilities
        push = SampledMovingAverage(window).push
        keep = rows.append
        steps = cfg.steps
        sample_every = cfg.sample_every
        for t in range(1, steps + 1):
            stats = step()
            if t % sample_every and t != steps:
                continue
            underlying, shaping, total = stats.reward
            row = MetricsRow(
                t,
                total,
                underlying,
                shaping,
                push(total),
                sim.running_mean,
                probabilities(),
                sim.delivered_total,
                sim.dropped_total,
                sim.cycles_total,
            )
            keep(row)
            if write:
                write(format_row(row) + "\n")
            if armed:
                u_ma = push_underlying(underlying)
                if len(rows) >= window and u_ma >= underlying_threshold:
                    ticks_to_threshold = t
                    armed = False
                    if stop_at_threshold:
                        stop_reason = "threshold"
                        break
    except (SimulationError, ValueError) as e:
        reason = "load_diverged" if isinstance(e, LoadDiverged) else "error"
        _write_manifest(cfg, sim, reason, perf_counter() - start, str(e))
        raise
    finally:
        if csv_fh:
            csv_fh.close()

    theta = sim.theta()
    if cfg.theta_path:
        Path(cfg.theta_path).write_text(
            json.dumps(theta, indent=2) + "\n", encoding="utf-8"
        )
    _write_manifest(cfg, sim, stop_reason, perf_counter() - start, None)
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
        stop_reason=stop_reason,
    )


def _check_threshold(underlying_threshold: float | None, stop_at_threshold: bool) -> None:
    if stop_at_threshold and underlying_threshold is None:
        raise ValueError("--stop-at-threshold needs --threshold: no threshold to stop at")
    if underlying_threshold is not None and not math.isfinite(underlying_threshold):
        raise ValueError(
            f"--threshold must be a finite number, got {underlying_threshold!r}"
        )


def _write_manifest(
    cfg: ExperimentConfig, sim: Simulation, stop_reason: str, wall_s: float, error: str | None
) -> None:
    """Write run-seed<S>.json beside the CSV (module doc); a run without a
    CSV writes none."""
    if not cfg.csv_path:
        return
    manifest = {
        "version": __version__,
        "config_sha256": hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest(),
        "seed": cfg.seed,
        "steps": cfg.steps,
        "steps_run": sim.tick_count,
        "stop_reason": stop_reason,
        "error": error,
        "wall_s": wall_s,
        "ticks_per_s": sim.tick_count / wall_s,
        "counters": {
            "generated": sim.generated_total,
            "delivered": sim.delivered_total,
            "dropped": sim.dropped_total,
            "cycles_detected": sim.cycles_total,
            "in_flight": sim.in_flight,
        },
    }
    Path(cfg.csv_path).with_name(f"run-seed{cfg.seed}.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
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


def _resolve_paths(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentConfig:
    """cfg with the output paths a run in out_dir writes, which it creates."""
    # absolute, so a saved config names the same files wherever it is loaded
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    return cfg._replace(
        csv_path=str(out / f"metrics-seed{cfg.seed}.csv"),
        theta_path=str(out / f"theta-seed{cfg.seed}.json"),
    )


def censored_ticks(res: RunResult) -> int:
    """Ticks to threshold, else cfg.steps: a lower bound for a run that never
    got there, which can only understate the faster arm's advantage."""
    return res.config.steps if res.ticks_to_threshold is None else res.ticks_to_threshold


class BatchResult(NamedTuple):
    runs: dict[int, RunResult | str]  # by seed, as given: its run, or why its load diverged
    mean_final_reward: float | None  # over the seeds that finished; None if none did
    median_ticks_to_threshold: float | None  # the same, censored; None without a threshold

    @property
    def finished(self) -> dict[int, RunResult]:
        """The runs of the seeds that finished, by seed, as given."""
        return {seed: r for seed, r in self.runs.items() if not isinstance(r, str)}

    def cells(self, show: Callable[[RunResult], str]) -> dict[int, str]:
        """By seed, as given: show(its run), or why its load diverged."""
        return {seed: r if isinstance(r, str) else show(r) for seed, r in self.runs.items()}

    def table(self) -> str:
        def row(r: RunResult) -> str:
            ttt = "-" if r.ticks_to_threshold is None else str(r.ticks_to_threshold)
            return f"{ttt:<20}{r.final_running_mean:.4f}"

        lines = ["seed  ticks_to_threshold  final_running_mean"]
        lines += [f"{seed:<6}{cell}" for seed, cell in self.cells(row).items()]
        med, mean = self.median_ticks_to_threshold, self.mean_final_reward
        lines.append(
            f"aggregate: median_ticks_to_threshold={'-' if med is None else med}  "
            f"mean_final_reward={'-' if mean is None else f'{mean:.4f}'}"
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
    """Run the config once per seed and aggregate the seeds that finished.
    A seed whose load diverges is recorded with its LoadDiverged message,
    and the other seeds still run; any other error stops the batch.

    Each seed writes its four files to out_dir, its config first
    (run_experiment). Without an out_dir, a config that names output files
    is refused, since every seed would write to them."""
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
    runs: dict[int, RunResult | str] = {}
    for seed in seeds:
        try:
            runs[seed] = run_experiment(
                cfg._replace(seed=seed),
                out_dir,
                underlying_threshold=underlying_threshold,
                stop_at_threshold=stop_at_threshold,
            )
        except LoadDiverged as e:
            runs[seed] = str(e)
    done = [r for r in runs.values() if not isinstance(r, str)]
    timed = underlying_threshold is not None and done
    return BatchResult(
        runs,
        statistics.fmean(r.final_running_mean for r in done) if done else None,
        statistics.median(float(censored_ticks(r)) for r in done) if timed else None,
    )
