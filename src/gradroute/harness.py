"""Run orchestration: metrics sampling, CSV/theta output, multi-seed batches.

run_experiment drives one simulation, sampling a row every
cfg.sample_every ticks (and at the final tick). A sampled row is a flat
tuple of its values in column order, which the loop writes to the CSV
through format_row as it is sampled; the run keeps only the last one, as
a MetricsRow built once at the end, and the mean of the last ma_window
sampled underlying rewards (RunResult). It keeps no
logits: the final logits go only to the theta file, written one router
at a time (write_theta), and a run without a theta path builds none.
batch is the one loop over seeds: it records a seed whose load diverges,
runs the rest and aggregates those, with the ticks-to-threshold
statistic that compares convergence speed with and without reward
shaping. A threshold ends its run at the first sampled tick at which the
mean of the *underlying* reward over the last ma_window samples, once the
window is full, reaches it, so a run's steps_run is its ticks to the
threshold, or cfg.steps if it never got there.

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
ValueError, such as a non-finite reward or a reward window whose sum
overflows a float). A run stopped by an exception closes its CSV and
writes the manifest, with steps_run the tick that failed and `error`
the message, before raising it again.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, TextIO

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
from .learner import softmax_row  # noqa: F401

OUTPUT_DIR_ENV = "GRADROUTE_OUT"


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


class RunResult(NamedTuple):
    """One run: its config (with the output paths it wrote), its last
    sampled row (the CSV's last row, taken at the run's last tick, with
    its running mean and cumulative counters), the mean underlying reward
    of its last ma_window sampled rows (math.fsum over their count, fewer
    rows while the window fills) and why it stopped ("steps" or
    "threshold", as in the manifest). The other sampled rows are only in
    the CSV, the generated count only in the manifest, and the final
    logits only in the theta file."""

    config: ExperimentConfig
    final_row: MetricsRow
    final_underlying_ma: float
    stop_reason: str

    @property
    def steps_run(self) -> int:
        return self.final_row.tick

    @property
    def ticks_to_threshold(self) -> int | None:
        """The tick the run reached its threshold, where it stopped; None if
        it did not."""
        return self.final_row.tick if self.stop_reason == "threshold" else None

    @property
    def final_running_mean(self) -> float:
        return self.final_row.running_mean


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    *,
    underlying_threshold: float | None = None,
) -> RunResult:
    """Execute one run. Given an out_dir, the run saves
    config-seed<S>.json there first, then writes metrics-seed<S>.csv and
    theta-seed<S>.json, whatever paths cfg names; without one, it saves no
    config and writes to cfg's paths, if any. Either way it keeps only the
    final row and the window mean of the underlying reward (RunResult).

    underlying_threshold, which must be finite, ends the run at the first
    sampled tick whose underlying-reward moving average, over a full
    window, reaches it.

    An invalid config is refused before out_dir is created. A run with a
    CSV writes its manifest beside it (module doc).
    """
    if underlying_threshold is not None and not math.isfinite(underlying_threshold):
        raise ValueError(f"--threshold must be a finite number, got {underlying_threshold!r}")
    start = perf_counter()
    sim = Simulation(cfg)
    if out_dir is not None:
        cfg = _resolve_paths(cfg, out_dir)
        save_config(cfg, Path(cfg.csv_path).with_name(f"config-seed{cfg.seed}.json"))
    window = cfg.ma_window
    # the last ma_window sampled underlying rewards: their mean is the
    # result's, and their count tells the detector when the window is full
    under: deque[float] = deque(maxlen=window)
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
        keep = under.append
        steps = cfg.steps
        sample_every = cfg.sample_every
        for t in range(1, steps + 1):
            stats = step()
            if t % sample_every and t != steps:
                continue
            underlying = stats.underlying
            # one flat tuple in column order (metrics module doc); format_row
            # is called through this module's global, which perfbench times
            values = (
                t,
                stats.total,
                underlying,
                stats.shaping,
                push(stats.total),
                sim.running_mean,
                *probabilities(),
                sim.delivered_total,
                sim.dropped_total,
                sim.cycles_total,
            )
            keep(underlying)
            if write:
                write(format_row(values))
            if armed and push_underlying(underlying) >= underlying_threshold:
                if len(under) >= window:
                    stop_reason = "threshold"
                    break
    except (SimulationError, ValueError) as e:
        reason = "load_diverged" if isinstance(e, LoadDiverged) else "error"
        _write_manifest(cfg, sim, reason, perf_counter() - start, str(e))
        raise
    finally:
        if csv_fh:
            csv_fh.close()

    if cfg.theta_path:
        with open(cfg.theta_path, "w", encoding="utf-8") as fh:
            write_theta(fh, sim.theta_by_router())
    _write_manifest(cfg, sim, stop_reason, perf_counter() - start, None)
    return RunResult(cfg, MetricsRow.of(values), math.fsum(under) / len(under), stop_reason)


# the values of one logit row as json.dump(..., indent=2) lays them out
# three levels deep, between the row's brackets. Without indent, json
# encodes in C: each float, NaN and infinity included, is the same text as
# the indenting encoder makes, and no call leaves the reference cycles that
# each call of the indenting one does.
_row_values = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def write_theta(fh: TextIO, routers: Iterable[tuple[str, dict[str, list[float]]]]) -> None:
    """Write theta, given router by router as Simulation.theta_by_router
    yields it (no router without a row, no row without a logit), as the
    bytes of json.dump(dict(routers), fh, indent=2) and a newline, holding
    one router's logits at a time. Labels are encoded as json encodes a
    key, each row's values by _row_values."""
    sep = "{"
    for router, dests in routers:
        fh.write(f"{sep}\n  {json.dumps(router)}: {{")
        row_sep = ""
        for dest, logits in dests.items():
            values = _row_values(logits)[1:-1]
            fh.write(f"{row_sep}\n    {json.dumps(dest)}: [\n      {values}\n    ]")
            row_sep = ","
        fh.write("\n  }")
        sep = ","
    fh.write("{}\n" if sep == "{" else "\n}\n")


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
    row = res.final_row
    parts = [
        f"ticks={row.tick}",
        f"running_mean={row.running_mean:.4f}",
        f"delivered={row.delivered}",
        f"dropped={row.dropped}",
        f"cycles={row.cycles}",
    ]
    for name, p in zip(probability_column_names(res.config), row.probs):
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


class BatchResult(NamedTuple):
    runs: dict[int, RunResult | str]  # by seed, as given: its run, or why its load diverged
    mean_final_reward: float | None  # over the seeds that finished; None if none did
    median_ticks_to_threshold: float | None  # their median steps_run; None without a threshold

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
    out_dir: str | Path | None = None,
) -> BatchResult:
    """Run the config once per seed and aggregate the seeds that finished.
    A seed whose load diverges is recorded with its LoadDiverged message,
    and the other seeds still run; any other error stops the batch.

    Each seed writes its four files to out_dir, its config first
    (run_experiment). Without an out_dir, a config that names output files
    is refused, since every seed would write to them. A seed named twice,
    or that the config's rules refuse, is refused before any seed runs.

    underlying_threshold ends each seed's run where it is reached
    (run_experiment), so the median steps_run of the finished runs is the
    batch's median ticks to threshold."""
    if not seeds:
        raise ValueError("need at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is given twice; a batch runs each seed once")
        cfg._replace(seed=seed).validate()
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
                cfg._replace(seed=seed), out_dir, underlying_threshold=underlying_threshold
            )
        except LoadDiverged as e:
            runs[seed] = str(e)
    done = [r for r in runs.values() if not isinstance(r, str)]
    timed = underlying_threshold is not None and done
    return BatchResult(
        runs,
        statistics.fmean(r.final_running_mean for r in done) if done else None,
        statistics.median(float(r.steps_run) for r in done) if timed else None,
    )
