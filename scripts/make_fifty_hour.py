#!/usr/bin/env python3
"""Write the 50-node, one-hour scenario, scenarios/fifty_hour.json.

Fifty nodes pn-00 .. pn-49 share two brokers over a link with 5% loss;
broker-a dies at 1800 s. Forty approaches each touch one to three adjacent
nodes with a 3-6 s rumble between -5 and 20 dB. The first ten are thermally
hidden. No node hears a hidden and a visible approach less than 30 s (the
default match_horizon_s) apart. The draws come from random.Random(2026), so
the file is the same on every run:

  python3 scripts/make_fifty_hour.py > scenarios/fifty_hour.json
"""

import argparse
import json
import random


def build() -> dict:
    r = random.Random(2026)
    nodes = [f"pn-{i:02d}" for i in range(50)]
    events = []
    while len(events) < 40:
        onset = round(r.uniform(10, 3500), 3)
        k = r.randint(1, 3)
        start = r.randint(0, 50 - k)
        ids = nodes[start:start + k]
        dur = round(r.uniform(3, 6), 3)
        snr = round(r.uniform(-5, 20), 2)
        vis = len(events) >= 10  # the first 10 are hidden
        if any(set(ids) & set(e["pn_ids"]) and abs(onset - e["t_onset_s"]) < 30
               and vis != e["thermal_visible"] for e in events):
            continue  # no hidden/visible pair on a node
        events.append({"t_onset_s": onset, "pn_ids": ids,
                       "thermal_visible": vis,
                       "rumble": {"duration_s": dur, "snr_db": snr}})
    link = {"latency_s": 0.05, "jitter_s": 0.02, "loss_prob": 0.05}
    return {"name": "fifty-hour", "duration_s": 3600.0,
            "pns": [{"node_id": n} for n in nodes], "events": events,
            "detector": "stochastic", "master_seed": 1,
            "network": {"brokers": ["broker-a", "broker-b"],
                        "default_link": link, "broker_failures":
                        [{"broker_id": "broker-a", "t_s": 1800.0}]}}


def main() -> None:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    print(json.dumps(build(), indent=2))


if __name__ == "__main__":
    main()
