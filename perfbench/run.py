"""The PeerWindow benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload churn_mcast|steady_maint|live_storm \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each measured process is a fresh
interpreter (``worker.py``, ``PYTHONHASHSEED=0``) importing the program from
``src/``.  With ``--trace 0`` one untraced process measures for ``S``
seconds and the last stdout line carries the end-to-end metrics; with
``--trace 1`` an untraced and a traced process get ``S/2`` each and the
line carries the per-layer metrics.  Either way the outputs are checked
(see ``README.md``) and the exit status is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("churn_mcast", "steady_maint", "live_storm")
#: Each measured process must finish within this many seconds.
WORKER_TIMEOUT_S = 170.0
#: Where a traced run writes its spans (inside the checkout; git-ignored).
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")


def run_worker(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--traced", str(int(traced)),
    ]
    if traced:
        os.makedirs(SPAN_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPAN_DIR, f"spans-{workload}.txt")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(rec: dict) -> tuple:
    """The simulated outcome of one instance: must repeat exactly."""
    lag = rec["lag"]
    return (
        rec["events"], rec["delivered"], rec["accuracy"], rec["bw"], rec["attempted"],
        rec["ok"], lag["p50"], lag["tail"], lag["samples"],
    )


def check(doc: dict, workload: str, problems: list) -> None:
    from workloads import ACCURACY_FLOOR

    recs = doc["instances"]
    tag = "traced" if doc["traced"] else "untraced"
    for rec in recs:
        if rec["accuracy"] < ACCURACY_FLOOR:
            problems.append(f"{tag}: peerlist_accuracy {rec['accuracy']:.4f} < {ACCURACY_FLOOR}")
        if rec["attempted"] < 1:
            problems.append(f"{tag}: no op attempted")
    if workload == "live_storm":
        for rec in recs:
            if rec["malformed"]:
                problems.append(f"{tag}: {rec['malformed']} malformed datagrams")
            if not all(rec["joins"]):
                problems.append(f"{tag}: a join failed")
    else:
        if len({digest(r) for r in recs}) != 1:
            problems.append(f"{tag}: instances of one seed disagree: {sorted({digest(r) for r in recs})}")
        calls = {
            tuple(v["calls"] for k, v in sorted(r["layers"].items()) if k != "extra")
            for r in recs
            if "layers" in r
        }
        if len(calls) > 1:
            problems.append(f"{tag}: per-layer call counts differ between instances")


def scaled(region: dict, key: str) -> float:
    """A timed region's wall or CPU seconds at the reference host speed."""
    from workloads import REFERENCE_S

    return region[key] * REFERENCE_S / region["ref"]


def host_costs(doc: dict) -> dict:
    """Host-time metrics.  Simulated instances repeat the same segments, so
    run and CPU time sum each segment's median over instances.  A live
    storm's CPU sums its windows; its length and the swarm's set-up are
    paced by the clock, not the host, so they are not rescaled.  Set-up
    counts at its median build."""
    recs = doc["instances"]
    setups = [s for r in recs for s in r["setup"]]
    if doc["workload"] == "live_storm":
        return {
            "setup_s": median(s["wall"] for s in setups),
            "run_s": median(r["run_wall"] for r in recs),
            "cpu_us_per_dgram": median(
                1e6 * sum(scaled(w, "cpu") for w in r["segments"]) / r["delivered"]
                for r in recs
            ),
        }
    columns = list(zip(*(r["segments"] for r in recs)))
    return {
        "setup_s": median(scaled(s, "wall") for s in setups),
        "run_s": sum(median(scaled(s, "wall") for s in col) for col in columns),
        "cpu_us_per_dgram": 1e6
        * sum(median(scaled(s, "cpu") for s in col) for col in columns)
        / recs[0]["delivered"],
    }


def end_to_end(doc: dict) -> tuple:
    recs = doc["instances"]
    attempted = sum(r["attempted"] for r in recs)
    ok = sum(r["ok"] for r in recs)
    host = host_costs(doc)
    metrics = {
        "setup_s": (host["setup_s"], "s"),
        "run_s": (host["run_s"], "s"),
        "cpu_us_per_dgram": (host["cpu_us_per_dgram"], "us"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "peerlist_accuracy": (median(r["accuracy"] for r in recs), "ratio"),
        "bw_bps_per_node": (median(r["bw"] for r in recs), "bps"),
        "op_success_ratio": (ok / attempted, "ratio"),
        "op_lag_p50_ms": (1e3 * median(r["lag"]["p50"] for r in recs), "ms"),
        "op_lag_tail_ms": (1e3 * median(r["lag"]["tail"] for r in recs), "ms"),
    }
    return metrics, attempted, attempted - ok


def per_layer(plain: dict, traced: dict) -> dict:
    recs = traced["instances"]
    first = plain["instances"][0]
    out = {}

    def layer(name, field):
        return median(r["layers"][name][field] for r in recs)

    def extra(key):
        return median(r["layers"]["extra"][key] for r in recs)

    for name in recs[0]["layers"]:
        if name == "extra":
            continue
        out[f"{name}.calls"] = (layer(name, "calls"), "count")
        out[f"{name}.self_s"] = (layer(name, "self_s"), "s")
    def per_call(key, name):
        return extra(key) / max(layer(name, "calls"), 1)

    scanned = extra("scanned")
    out["peerlist.multicast_candidates.yield"] = (
        extra("returned") / scanned if scanned else 0.0, "ratio"
    )
    out["multicast.out_degree"] = (per_call("out_degree", "multicast.forward"), "count")
    out["refresh.sweep.expired"] = (extra("expired"), "count")
    out["transport.request.timeouts"] = (extra("timeouts"), "count")
    out["codec.bytes_per_msg"] = (per_call("bytes", "codec.encode_message"), "bytes")
    live = plain["workload"] == "live_storm"
    plain_cost, traced_cost = host_costs(plain), host_costs(traced)
    events = first["events"]
    out["sim.events"] = (events, "count")
    out["sim.ns_per_event"] = (1e9 * plain_cost["run_s"] / events if events else 0.0, "ns")
    out["live.retransmits"] = (median(r.get("retransmits", 0) for r in recs), "count")
    out["live.malformed"] = (max(r.get("malformed", 0) for r in recs), "count")
    out["gen.late_ms_p50"] = (1e3 * median(r.get("late_p50", 0.0) for r in plain["instances"]), "ms")
    out["gen.late_ms_max"] = (1e3 * max(r.get("late_max", 0.0) for r in plain["instances"]), "ms")
    refs = [
        region["ref"] for r in plain["instances"] for region in r["setup"] + r["segments"]
    ]
    out["host.calib_s"] = (median(refs), "s")
    out["op_lag.samples"] = (first["lag"]["samples"], "count")
    out["op_lag.tail_pct"] = (first["lag"]["tail_pct"], "%")
    # Tracing's cost shows in host time on the simulator, in CPU per
    # datagram on the clock-paced live storm.
    cost = "cpu_us_per_dgram" if live else "run_s"
    out["trace.overhead"] = (traced_cost[cost] / plain_cost[cost], "ratio")
    # Raw wall time, on the same clock as the layers' self times.
    out["trace.run_s"] = (median(sum(g["wall"] for g in r["segments"]) for r in recs), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("run from the repository root: src/repro not found\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    problems: list = []
    if args.trace:
        plain = run_worker(args.workload, args.seed, args.seconds / 2, traced=False)
        traced = run_worker(args.workload, args.seed, args.seconds / 2, traced=True)
        for doc in (plain, traced):
            check(doc, args.workload, problems)
        if args.workload != "live_storm" and digest(plain["instances"][0]) != digest(
            traced["instances"][0]
        ):
            problems.append("traced and untraced runs disagree on the simulated outcome")
        metrics = per_layer(plain, traced)
        _, attempted, failed = end_to_end(plain)
    else:
        plain = run_worker(args.workload, args.seed, args.seconds, traced=False)
        check(plain, args.workload, problems)
        metrics, attempted, failed = end_to_end(plain)

    for problem in problems:
        sys.stderr.write(f"CHECK FAILED: {problem}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{args.workload:>13} {name:<40} {value:>14.6g} {unit}\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
