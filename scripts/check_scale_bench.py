#!/usr/bin/env python3
"""Validate an `ovlp.bench_scale.v1` document (stdlib only, no deps).

Checks the weak-scaling trajectory contract emitted by `scale_bench`:
key presence and types, strictly increasing rank counts, that the
records resident high-water mark stays a small fraction of the records
streamed at every point (sublinear memory: a materialized replay would
have the two equal), and that the grant path made at most
GRANT_STEPS_PER_TRANSFER resource-acquire attempts per transfer (the
wait lists keep it near 1; the first-fit scan they replaced needed ~29
per transfer at 1k ranks and grew with the rank count).

Usage: check_scale_bench.py <BENCH_scale.json> [--min-ranks N]

`--min-ranks N` additionally requires the largest point to reach at
least N ranks (CI's scale-smoke job pins 10000; the committed document
carries 100000).
"""

import json
import sys

POINT_KEYS = {
    "ranks": int,
    "records_total": int,
    "records_peak": int,
    "events": int,
    "transfers": int,
    "grant_steps": int,
    "queue_peak": int,
    "msg_slots": int,
    "req_slots": int,
    "chan_slots": int,
    "wall_s": float,
    "events_per_sec": float,
    "sim_runtime_s": float,
    "efficiency": float,
}

# A streamed replay keeps O(active) records resident. Allow a generous
# margin over "strictly less" so tiny ladders don't flap, while still
# rejecting anything close to full materialization.
RESIDENT_FRACTION_CAP = 0.5

# Resource-acquire attempts per transfer. Every transfer is tried once
# when it is initiated; a waiting one is retried only when a resource
# it needs is released.
GRANT_STEPS_PER_TRANSFER = 2


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, path, msg):
    if not cond:
        fail(path, msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check(path, min_ranks):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    expect(doc.get("schema") == "ovlp.bench_scale.v1", path, f"bad schema id {doc.get('schema')!r}")
    expect(isinstance(doc.get("quick"), bool), path, "quick not a bool")
    expect(isinstance(doc.get("app"), str) and doc["app"], path, "app missing")
    points = doc.get("points")
    expect(isinstance(points, list) and points, path, "points missing or empty")

    prev_ranks = 0
    for i, p in enumerate(points):
        expect(isinstance(p, dict), path, f"point {i} is not an object")
        for key, kind in POINT_KEYS.items():
            v = p.get(key)
            if kind is int:
                expect(isinstance(v, int) and v >= 0, path, f"point {i}: bad {key} {v!r}")
            else:
                expect(is_num(v) and v >= 0, path, f"point {i}: bad {key} {v!r}")
        rss = p.get("rss_peak_bytes")
        expect(rss is None or (isinstance(rss, int) and rss > 0), path, f"point {i}: bad rss_peak_bytes {rss!r}")
        expect(p["ranks"] > prev_ranks, path, f"point {i}: ranks not strictly increasing")
        prev_ranks = p["ranks"]
        expect(
            p["records_peak"] <= RESIDENT_FRACTION_CAP * p["records_total"],
            path,
            f"point {i} ({p['ranks']} ranks): {p['records_peak']} records resident "
            f"of {p['records_total']} streamed — memory is not sublinear",
        )
        expect(
            p["grant_steps"] <= GRANT_STEPS_PER_TRANSFER * p["transfers"],
            path,
            f"point {i} ({p['ranks']} ranks): {p['grant_steps']} grant steps for "
            f"{p['transfers']} transfers — the grant path is no longer linear",
        )

    top = points[-1]["ranks"]
    if min_ranks is not None:
        expect(
            top >= min_ranks,
            path,
            f"largest point is {top} ranks, want >= {min_ranks}",
        )
    frac = points[-1]["records_peak"] / max(points[-1]["records_total"], 1)
    print(
        f"{path}: ok ({len(points)} points, top {top} ranks, "
        f"resident peak {100.0 * frac:.2f}% of streamed records)"
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    min_ranks = None
    if "--min-ranks" in args:
        i = args.index("--min-ranks")
        try:
            min_ranks = int(args[i + 1])
        except (IndexError, ValueError):
            print("--min-ranks needs an integer", file=sys.stderr)
            sys.exit(2)
        del args[i : i + 2]
    if not args:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for p in args:
        check(p, min_ranks)
