#!/usr/bin/env python3
"""Layered host-time benchmark for hecsim.

    python3 perfbench/run.py --workload field-hour --seed 3 --seconds 20 --trace 0

Runs one seeded workload (field-hour, mesh-storm or eval-sweep) from the
root of a source checkout, against the package under src/. Every job's
outputs are checked: the job at the default seed against the references in
references.json, every other job against the first job of the same seed,
outputs and counts alike.

With --trace 0 the last line of standard output is the JSON result with
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries
the per-layer metrics of a traced run instead. The line before it is a
fuller report: every end-to-end metric of the workload, with units, and
the simulated outcome.

--size smoke runs a tiny size of each workload for the benchmark's own
tests, and --corrupt damages the output of the reference check, which must
then count as failed. --capture-references rewrites references.json from
the current source tree.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

SETUP_CHILDREN = 11
MIN_JOBS = 3
CHILD_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "run_s": "s", "run_ref_s": "s",
    "peak_rss_mb": "MiB",
    "failed_ratio": "ratio",
    "sim_node_hours_per_s": "node-h/s", "publishes_per_s": "msg/s",
    "recall": "ratio", "false_warnings": "count",
    "warning_latency_p50_s": "sim_s", "delivered_ratio": "ratio",
    "msg_latency_p50_s": "sim_s", "msg_latency_p99_s": "sim_s",
    "similarity_min": "score",
}
# the host metrics that BENCHMARK.json gates; the rest are reported only
GATED = ("run_ref_s", "setup_s", "peak_rss_mb")

LAYER_UNITS = {
    "signals.synth_s": "s", "signals.samples": "count",
    "signals.stft_s": "s", "signals.stft_frames": "count",
    "detection.score_s": "s", "detection.windows": "count",
    "detection.us_per_window": "us", "detection.hits": "count",
    "detection.oracle_self_s": "s", "detection.oracle_events": "count",
    "detection.match_s": "s",
    "deterrent.modify_s": "s", "deterrent.similarity_self_s": "s",
    "deterrent.l2_s": "s", "deterrent.draws": "count",
    "peripheral.steps": "count", "peripheral.step_s": "s",
    "central.steps": "count", "central.step_s": "s",
    "central.decisions": "count", "central.decide_s": "s",
    "central.warnings": "count",
    "mesh.loop_s": "s", "mesh.loop_self_s": "s", "mesh.publishes": "count",
    "mesh.publish_s": "s", "mesh.events_scheduled": "count",
    "mesh.us_per_event": "us", "mesh.trace_rows": "count",
    "mesh.heartbeat_share": "ratio", "mesh.trace_write_s": "s",
    "mesh.deliveries": "count", "mesh.retries": "count",
    "mesh.failovers": "count",
    **{f"mesh.drops.{r}": "count" for r in (
        "loss", "session_gone", "disconnected", "unreachable",
        "buffer_overflow", "broker_dead")},
    "mesh.useful_ratio": "ratio",
    "harness.run_s": "s", "harness.self_s": "s", "harness.metrics_s": "s",
    "harness.actions": "count",
    "sigio.write_s": "s", "sigio.bytes_written": "bytes",
    "job.self_s": "s", "trace.overhead_s": "s",
}

TRACE_NOTE = ("mesh.loop_self_s includes the harness node-runtime glue: its "
              "callbacks run inside the mesh event loop and cannot be split "
              "from it without changing the package")


def load_package():
    """Import hecsim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hecsim" / "__init__.py").is_file():
        raise SystemExit(f"no hecsim sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import workloads
    import hecsim
    if Path(hecsim.__file__).resolve().parent != (src / "hecsim").resolve():
        raise SystemExit(f"imported hecsim from {hecsim.__file__}, not {src}")
    return workloads


def job_dir(workload: str, label: str) -> Path:
    path = WORK / workload / label
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------- children

def child_main(args) -> None:
    """Fresh process: time import + input building, optionally run one job.

    A setup child runs the calibration loop right after set-up, to give the
    host speed at that moment. A job child does not, so that the loop's
    arrays stay out of its peak RSS.
    """
    t0 = time.perf_counter()
    W = load_package()
    wl = W.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.size)
    out = {"setup_s": time.perf_counter() - t0}
    if args.child == "setup":
        import calibrate
        out["speed"] = calibrate.REFERENCE_S / calibrate.loop_seconds()
    else:
        d = job_dir(args.workload, "child")
        result = wl.job(inputs, d)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["fingerprint"] = wl.fingerprint(result, d)
        out["counts"] = wl.counts(inputs, result)
    print(json.dumps(out))


def run_child(args, kind: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind,
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checking

def committed_reference(workload: str, size: str) -> dict | None:
    if not REFERENCES.is_file():
        return None
    return json.loads(REFERENCES.read_text()).get(size, {}).get(workload)


class Checker:
    """Counts attempted and failed jobs; each seed's first job is its reference.

    The default seed starts from the committed reference instead. Counts a
    job reports that its seed's reference lacks are adopted from the first
    job that reports them, so traced jobs are compared with traced jobs.
    """

    def __init__(self, W, workload: str, size: str):
        self.W = W
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: dict[int, dict] = {}
        committed = committed_reference(workload, size)
        if committed is not None:
            self.refs[W.DEFAULT_SEED] = {
                "fingerprint": committed["fingerprint"],
                "counts": dict(committed["counts"])}

    def check(self, label: str, seed: int, fingerprint: dict,
              counts: dict) -> bool:
        self.attempted += 1
        ref = self.refs.setdefault(seed, {"fingerprint": fingerprint,
                                          "counts": {}})
        if not self.W.outputs_match(fingerprint, ref["fingerprint"]):
            self._problem(label, f"outputs differ from the seed {seed} reference")
            return False
        diff = sorted(k for k in counts
                      if k in ref["counts"] and counts[k] != ref["counts"][k])
        if diff:
            self._problem(label, f"counts differ from the seed {seed} reference: {diff}")
            return False
        for key, value in counts.items():
            ref["counts"].setdefault(key, value)
        return True

    def fail(self, label: str) -> None:
        self.attempted += 1
        self._problem(label, traceback.format_exc())

    def _problem(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem.splitlines()[-1]}")
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def reference_check(W, wl, args, checker: Checker) -> None:
    """Untimed job at the default seed against references.json; also warms up."""
    label = f"reference job (seed {W.DEFAULT_SEED})"
    try:
        if W.DEFAULT_SEED not in checker.refs:
            raise RuntimeError(f"no reference for {args.workload} at size "
                               f"{args.size} in {REFERENCES.name}")
        inputs = wl.build(W.DEFAULT_SEED, args.size)
        d = job_dir(args.workload, "reference")
        result = wl.job(inputs, d)
        if args.corrupt:
            W.corrupt_output(result, d)
        checker.check(label, W.DEFAULT_SEED, wl.fingerprint(result, d),
                      wl.counts(inputs, result))
    except Exception:
        checker.fail(label)


# ---------------------------------------------------------------- runs

def timed_jobs(W, wl, inputs, args, checker: Checker, tracer=None):
    """Run jobs for --seconds; with a tracer, every other job is traced.

    Each untraced job sits between two runs of the calibration loop, whose
    mean gives the host speed around that job (see calibrate.py). Returns
    (untraced times, their speed factors, traced times, per-layer rows,
    first result).
    """
    # imported here, not at the top: it loads numpy, which a setup child
    # must import inside its timed region
    import calibrate

    d = job_dir(args.workload, "timed")
    plain, speed, traced, layers = [], [], [], []
    cal = calibrate.loop_seconds()
    first = None
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(plain) < MIN_JOBS
           or (tracer is not None and len(traced) < MIN_JOBS)):
        use_tracer = tracer is not None and len(traced) < len(plain)
        label = f"job {checker.attempted + 1}"
        try:
            if use_tracer:
                tracer.counts.clear()
                span0 = len(tracer.spans)
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    result = tracer.root("job", wl.job, inputs, d)
                    dt = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                row = layer_metrics(tracer, span0)
                counts = {**wl.counts(inputs, result), **tracer.counts}
            else:
                t0 = time.perf_counter()
                result = wl.job(inputs, d)
                dt = time.perf_counter() - t0
                counts = wl.counts(inputs, result)
                cal_after = calibrate.loop_seconds()
                cal_mean, cal = (cal + cal_after) / 2, cal_after
            if checker.check(label, args.seed, wl.fingerprint(result, d), counts):
                if use_tracer:
                    traced.append(dt)
                    layers.append({**row, **counts})
                else:
                    plain.append(dt)
                    speed.append(calibrate.REFERENCE_S / cal_mean)
                first = first if first is not None else result
        except Exception:
            checker.fail(label)
        if checker.failed > 3 * MIN_JOBS:
            break
    return plain, speed, traced, layers, first


def median(values):
    return statistics.median(values) if values else None


def end_to_end(W, wl, args) -> tuple[dict, dict, Checker]:
    checker = Checker(W, args.workload, args.size)
    children = []
    rss = None
    for _ in range(SETUP_CHILDREN):
        try:
            children.append(run_child(args, "setup"))
        except Exception:
            checker.fail("setup child")
    try:
        child = run_child(args, "job")
        rss = child["peak_rss_mb"]
        checker.check("peak-RSS child job", args.seed, child["fingerprint"],
                      child["counts"])
    except Exception:
        checker.fail("peak-RSS child job")
    reference_check(W, wl, args, checker)

    inputs = wl.build(args.seed, args.size)
    plain, speed, _, _, first = timed_jobs(W, wl, inputs, args, checker)
    run_s = median(plain)
    run_ref_s = median([t * f for t, f in zip(plain, speed)])
    metrics = {"setup_s": median([c["setup_s"] * c["speed"] for c in children]),
               "setup_wall_s": median([c["setup_s"] for c in children]),
               "run_s": run_s, "run_ref_s": run_ref_s, "peak_rss_mb": rss,
               "failed_ratio": checker.failed / checker.attempted}
    sim = wl.sim_metrics(inputs, first) if first is not None else {}
    if run_s:
        if "sim_node_hours" in sim:
            metrics["sim_node_hours_per_s"] = sim.pop("sim_node_hours") / run_s
        if "app_publishes" in sim:
            metrics["publishes_per_s"] = sim.pop("app_publishes") / run_s
    metrics.update(sim)
    extra = {"run_s_samples": plain, "speed_samples": speed,
             "setup_wall_s_samples": [c["setup_s"] for c in children],
             "setup_speed_samples": [c["speed"] for c in children],
             "seed_reference": checker.refs.get(args.seed)}
    return metrics, extra, checker


def per_layer(W, wl, args) -> tuple[dict, dict, Checker]:
    checker = Checker(W, args.workload, args.size)
    reference_check(W, wl, args, checker)
    inputs = wl.build(args.seed, args.size)
    tracer = Tracer()
    plain, _, traced, layers, _ = timed_jobs(W, wl, inputs, args, checker,
                                          tracer=tracer)
    # times are medians over the traced jobs; counts repeat exactly in each
    metrics = {name: (median([row.get(name, 0) for row in layers])
                      if unit == "s" else layers[0].get(name, 0))
               if layers else None
               for name, unit in LAYER_UNITS.items()}
    if layers:
        # rates from the medians, so that they agree with the printed times
        m = metrics
        m["detection.us_per_window"] = (
            1e6 * m["detection.score_s"] / m["detection.windows"]
            if m["detection.windows"] else 0.0)
        m["mesh.us_per_event"] = (
            1e6 * m["mesh.loop_self_s"] / m["mesh.events_scheduled"]
            if m["mesh.events_scheduled"] else 0.0)
        m["trace.overhead_s"] = median(traced) - median(plain)
    tracer.write(job_dir(args.workload, "trace") / "spans.jsonl")
    extra = {"traced_run_s_samples": traced, "untraced_run_s_samples": plain,
             "note": TRACE_NOTE}
    return metrics, extra, checker


# ---------------------------------------------------------------- entry

def capture_references() -> None:
    W = load_package()
    refs = {}
    for size in ("full", "smoke"):
        for name, wl in W.WORKLOADS.items():
            inputs = wl.build(W.DEFAULT_SEED, size)
            d = job_dir(name, "capture")
            result = wl.job(inputs, d)
            refs.setdefault(size, {})[name] = {
                "seed": W.DEFAULT_SEED,
                "fingerprint": wl.fingerprint(result, d),
                "counts": wl.counts(inputs, result),
                "sim": wl.sim_metrics(inputs, result),
            }
            print(f"captured {size}/{name}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("field-hour", "mesh-storm", "eval-sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--capture-references", action="store_true")
    ap.add_argument("--child", choices=("setup", "job"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.capture_references:
        capture_references()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.child:
        child_main(args)
        return 0

    W = load_package()
    wl = W.WORKLOADS[args.workload]
    if args.trace:
        metrics, extra, checker = per_layer(W, wl, args)
        units = LAYER_UNITS
        printed = list(LAYER_UNITS)
    else:
        metrics, extra, checker = end_to_end(W, wl, args)
        units = E2E_UNITS
        printed = list(GATED)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "attempted": checker.attempted,
        "failed": checker.failed, "problems": checker.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    print(json.dumps(report))
    missing = [k for k in printed if metrics.get(k) is None]
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in printed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
