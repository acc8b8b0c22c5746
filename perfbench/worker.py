"""One measured process: repeats instances of one workload for a time budget.

Started by ``run.py`` in a fresh interpreter (``PYTHONHASHSEED`` pinned) so
that ``ru_maxrss`` covers this workload alone.  Prints one JSON document on
its last stdout line; ``run.py`` turns it into metrics and checks it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --traced 0|1 --spans PATH
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from workloads import LiveInstance, ProbeLog, Receipts, SimInstance, lag_stats

#: Timed set-up per instance is repeated until it covers about this many
#: seconds (at most ``MAX_SETUP_REPS`` builds), so that set-ups of a few
#: tens of milliseconds still give a steady median.
SETUP_TARGET_S = 0.5
MAX_SETUP_REPS = 10
#: Builds of the live swarm per instance (each ~0.1 s).
LIVE_SETUP_REPS = 5


def summarize(res: dict) -> dict:
    """Per-instance record: the raw lag list is reduced to its statistics."""
    out = {k: v for k, v in res.items() if k not in ("lags", "late")}
    out["lag"] = lag_stats(res["lags"])
    if "late" in res:
        late = sorted(res["late"])
        out["late_p50"] = late[(len(late) - 1) // 2]
        out["late_max"] = late[-1]
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    receipts = Receipts()
    receipts.install()
    probes = ProbeLog()
    probes.install()

    live = args.workload == "live_storm"
    if live:
        instance = LiveInstance(args.seed, receipts, setup_reps=1 if tracer else LIVE_SETUP_REPS)
    else:
        instance = SimInstance(args.workload, args.seed, receipts, probes)
    setup_reps = None
    records = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
            tracer.recording = not records and args.spans is not None
        if live:
            res = instance.run()
        else:
            setups = [instance.build()]
            if setup_reps is None:
                setup_reps = 1 if tracer else max(
                    1, min(MAX_SETUP_REPS, round(SETUP_TARGET_S / setups[0]["wall"]))
                )
            setups += [instance.build() for _ in range(setup_reps - 1)]
            res = instance.run()
            res["setup"] = setups
        rec = summarize(res)
        if tracer is not None:
            tracer.recording = False
            rec["layers"] = tracer.snapshot()
        records.append(rec)
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "instances": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None and args.spans is not None:
        doc["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
