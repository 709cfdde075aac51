#!/usr/bin/env python3
"""Outcome spread of one scenario over master seeds, under one or two configs.

Runs the scenario at master seeds 1 .. K, one run after another, under each
config, and prints one line per seed with:

  recall            the run report's recall ("-" when it has no event)
  false_warnings    the report's officer warnings that matched no event
  officer_warnings  officer warning rows in warnings.jsonl
  failovers         failover rows in the delivery trace
  to_no_broker      failover rows that left their client with no broker

then the mean, the sample standard deviation and the range of each column.
With two configs it also prints each seed's paired delta, B - A, and their
mean and spread: both runs of a seed share every seed-derived draw, so the
delta is the change the config makes at that seed.

  python3 scripts/seed_sweep.py scenarios/example_scenario.json \\
      scenarios/example_sim.json --seeds 8

A bad flag, or a scenario or config file that is missing, is a usage error
(exit 2); a file that does not decode, or a run it describes that cannot
start, fails with its error (exit 1).
"""

import argparse
import math
import statistics
import sys
from dataclasses import replace

from hecsim.errors import InvalidInputError
from hecsim.harness import Scenario, SimConfig, run_scenario_with_logs

COLUMNS = ("recall", "false_warnings", "officer_warnings", "failovers",
           "to_no_broker")


def outcomes(scenario: Scenario, config: SimConfig, seed: int) -> dict:
    """The columns of one run at master seed seed."""
    report, logs = run_scenario_with_logs(replace(scenario, master_seed=seed),
                                          config)
    failovers = [r for r in logs.delivery_trace if r["event"] == "failover"]
    return {"recall": math.nan if report.recall is None else report.recall,
            "false_warnings": report.false_warning_count,
            "officer_warnings": sum(w["kind"] == "officer_message"
                                    for w in logs.warnings),
            "failovers": len(failovers),
            "to_no_broker": sum(r["to"] == "" for r in failovers)}


def cell(value: float) -> str:
    if math.isnan(value):
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def table(title: str, rows: dict[int, dict]) -> None:
    """One line per seed, then the mean, spread and range of each column
    over the seeds where it is defined."""
    print(title)
    print("seed  " + "  ".join(f"{c:>16}" for c in COLUMNS))
    for seed, row in rows.items():
        print(f"{seed:>4}  " + "  ".join(f"{cell(row[c]):>16}"
                                         for c in COLUMNS))
    for name, stat in (("mean", statistics.fmean),
                       ("sd", lambda v: statistics.stdev(v)
                        if len(v) > 1 else math.nan),
                       ("min", min), ("max", max)):
        values = [[row[c] for row in rows.values() if not math.isnan(row[c])]
                  for c in COLUMNS]
        print(f"{name:>4}  " + "  ".join(
            f"{cell(float(stat(v)) if v else math.nan):>16}" for v in values))


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("scenario")
    ap.add_argument("configs", nargs="+", metavar="CONFIG",
                    help="one config, or two to compare (B - A)")
    ap.add_argument("--seeds", type=int, default=8)
    args = ap.parse_args()
    if len(args.configs) > 2:
        ap.error(f"give one or two configs, got {len(args.configs)}")
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    seeds = range(1, args.seeds + 1)
    try:
        scenario = Scenario.load(args.scenario)
        configs = [SimConfig.load(path) for path in args.configs]
        runs = [{seed: outcomes(scenario, config, seed) for seed in seeds}
                for config in configs]
    except (FileNotFoundError, IsADirectoryError) as exc:
        ap.error(str(exc))
    except InvalidInputError as exc:  # a file that decodes to a bad run
        sys.exit(f"seed_sweep.py: {exc}")
    for path, rows in zip(args.configs, runs):
        table(f"{scenario.name} under {path}, seeds 1..{args.seeds}", rows)
        print()
    if len(runs) == 2:
        table("paired delta, B - A", {
            seed: {c: runs[1][seed][c] - runs[0][seed][c] for c in COLUMNS}
            for seed in seeds})


if __name__ == "__main__":
    main()
