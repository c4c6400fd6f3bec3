#!/usr/bin/env python3
"""Gates a BENCH_alloc.json record (usage: check_alloc.py FILE [--smoke]).

Floors, all hard failures:
  * run_phase_steady: a warmed run_phase performs exactly **zero**
    heap allocations — streams, beats, delayed writes and the report
    all reuse the thread's pooled pending-write queue;
  * tenancy_steady: the per-job allocation increment of the multi-
    tenant event loop is identical across matrix sizes (differential
    proof that no allocation scales with the beat count);
  * explore_cache_warm: the warm sweep replays every point (zero
    misses), its published exploration is byte-identical to the cold
    sweep's, and it is >= 10x faster (>= 2x under --smoke, where the
    cold sweep is small enough that process fixed costs dominate).
"""
import json
import sys


def main() -> None:
    path = sys.argv[1]
    smoke = "--smoke" in sys.argv[2:]
    with open(path) as f:
        rec = {r["id"]: r for line in f if line.strip() for r in [json.loads(line)]}
    assert rec, f"{path} is empty"

    r = rec["run_phase_steady"]
    print(
        f"run_phase_steady   n={r['n']} beats={r['beats']} "
        f"warm_allocs={r['warm_allocs']}"
    )
    assert r["warm_allocs"] == 0, (
        f"warmed run_phase allocated {r['warm_allocs']} times "
        f"(the steady state must be allocation-free)"
    )

    t = rec["tenancy_steady"]
    print(
        f"tenancy_steady     inc(n={t['n_small']})={t['per_job_inc_small']} "
        f"inc(n={t['n_large']})={t['per_job_inc_large']}"
    )
    assert t["per_job_inc_small"] == t["per_job_inc_large"], (
        f"per-job allocation increment scales with beats "
        f"(n={t['n_small']}: +{t['per_job_inc_small']}, "
        f"n={t['n_large']}: +{t['per_job_inc_large']})"
    )
    assert t["per_job_inc_small"] > 0, "allocation counter is not counting"

    c = rec["explore_cache_warm"]
    print(
        f"explore_cache_warm n={c['n']} points={c['points']} "
        f"speedup={c['speedup']:8.2f}x identical={c['identical_output']}"
    )
    assert c["identical_output"], "warm sweep diverged from the cold sweep"
    assert c["warm_misses"] == 0, (
        f"warm sweep re-simulated {c['warm_misses']} points "
        f"(every point must replay from the cache)"
    )
    assert c["warm_hits"] == c["points"], (
        f"warm sweep hit {c['warm_hits']} of {c['points']} points"
    )
    floor = 2.0 if smoke else 10.0
    assert c["speedup"] >= floor, (
        f"warm sweep only {c['speedup']:.2f}x faster than cold "
        f"(floor {floor}x)"
    )
    print("alloc record ok")


if __name__ == "__main__":
    main()
