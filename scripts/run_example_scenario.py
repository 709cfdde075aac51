#!/usr/bin/env python3
"""Run the bundled river-crossing scenario and print its metrics.

Equivalent to:
    hecsim simulate --scenario scenarios/example_scenario.json \
        --config scenarios/example_sim.json --out out/
"""

import argparse
from pathlib import Path

from hecsim.harness import Scenario, SimConfig, run_scenario_with_logs

REPO = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/example",
                    help="output directory (default out/example)")
    ap.add_argument("--scenario",
                    default=str(REPO / "scenarios" / "example_scenario.json"))
    ap.add_argument("--config",
                    default=str(REPO / "scenarios" / "example_sim.json"))
    args = ap.parse_args()

    scenario = Scenario.load(args.scenario)
    config = SimConfig.load(args.config)
    report, _ = run_scenario_with_logs(scenario, config, out_dir=args.out)
    print(report.dumps(), end="")
    print(f"\nlogs in {args.out}/")


if __name__ == "__main__":
    main()
