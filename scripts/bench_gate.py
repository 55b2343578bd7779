#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh perf run against the committed
BENCH_*.json baselines and fail when any shared measurement regresses.

Usage:
    python3 scripts/bench_gate.py \
        --baseline BENCH_codecs.json --fresh target/bench-gate/BENCH_codecs.json \
        --baseline BENCH_engine.json --fresh target/bench-gate/BENCH_engine.json \
        --baseline BENCH_cache.json --fresh target/bench-gate/BENCH_cache.json \
        --baseline BENCH_service.json --fresh target/bench-gate/BENCH_service.json \
        --baseline BENCH_scrub.json --fresh target/bench-gate/BENCH_scrub.json

Each --baseline is paired positionally with the matching --fresh file.

A row present in the baseline but *missing* from the fresh measurement
is a hard failure: a silently dropped measurement is indistinguishable
from a silently dropped regression gate (earlier revisions skipped such
rows, which let a renamed or deleted benchmark un-gate itself). Removing
a benchmark on purpose must update the committed baseline in the same
change. Rows present only in the fresh file stay informational ("new"),
so adding a measurement still does not require touching every baseline
atomically.

BENCH_cache.json rows are single-threaded protected-cache hit/miss paths
and are gated like every other row. Rows may additionally carry
"allocs_per_op" (measured when the perf binary is built with
`--features count-allocs`). Allocation counts are near-deterministic, so
they get a *hard* gate where the timing gate is loose: a row whose
baseline pins 0 allocs/op fails the build if a fresh measurement
allocates at all — that is the allocation-regression contract of the
zero-allocation hot paths. Rows with nonzero baseline allocs are
reported informationally (their counts legitimately drift with workload
mix), and rows where either side lacks the field are skipped. The
allocation check runs before the runner-dependent timing skip below, so
a row whose timing is runner noise still hard-fails on any fresh
allocation against a 0-allocs baseline.

BENCH_scrub.json rows cover the self-healing service: incremental-scrub
micro paths (`slice_clean`, `full_pass_clean`, `full_pass_clean_l2`,
`repair_cluster_16x16`) and the campaign's clean-scan throughput
(`row_scan`, measured lock-held so foreground contention cannot inflate
it) are gated like every other row. `slice_clean`, `full_pass_clean`
and `full_pass_clean_l2` are additionally pinned at 0 allocs/op by the
committed baselines: the clean scrub lanes are batched limb sweeps over
engine-owned scratch buffers, and any fresh allocation there is a
regression of that contract (same hard pin as the codec clean paths). The remaining campaign figures
(`campaign_mttr` mean time-to-repair, `campaign_p99` foreground
interference) measure scheduler behaviour — sleep cadences, thread
oversubscription, poll timing — on whatever runner CI happens to get,
the same class of runner-dependent measurement as the multi-threaded
service rows, so they are reported informationally but never failed on
a ratio. `scrub_throughput_gbps` is a derived *rate* (GB/s of storage
swept by the clean slice — the value rides in the mean_ns column but
higher is better, so a ratio gate would fail on improvement): also
informational. All of these ARE still required to be present: a
missing row fails the gate, which is the emission contract the
campaign driver and the perf binary are held to.

BENCH_service.json rows are aggregate wall-clock ns/op of the concurrent
sharded cache service (`service.seq_ops` = lock-free sequential
reference, `service.conc_ops_Nt` = N worker threads over 8 banks,
`service.conc_ops_Nt_zipf` = N worker threads piling skewed Zipf(1.1)
traffic onto 2 banks — the seqlock-contention figure, where the
optimistic clean-read fast path keeps ~90% of ops lock-free). Only the
single-threaded rows (`seq_ops`, `conc_ops_1t`, `conc_ops_1t_zipf`) are
gated: they measure single-threaded code paths, so their ratios are
core-count independent like every other row. The multi-threaded rows
(`conc_ops_{2,4,8}t` and their `_zipf` variants) shrink with the
parallelism actually available — a baseline from a many-core box
against a 2-core CI runner would fail the gate with no code change, and
on a single-CPU runner the hot-bank zipf rows cannot show the
contention win at all (threads never truly contend) — so they are
reported informationally (and summarized as scaling factors) but never
failed on.

Tolerance
---------
A measurement regresses when

    fresh_mean_ns > baseline_mean_ns * TOLERANCE_FACTOR

with TOLERANCE_FACTOR = 5.0 by default (override with --tolerance).

The factor is deliberately loose, for two reasons that make a tight gate
dishonest rather than strict:

* the committed baselines are measured in *full* mode on a developer
  machine, while CI re-measures in *quick* mode (bounded iteration
  budget) on a shared runner — absolute ns/op values differ by both
  machine speed and measurement noise;
* quick mode's statistical floor is ~10 iterations, so slow operations
  carry real variance.

What 5x reliably catches is the class of regression this repo actually
guards against: reintroducing a bit-serial hot loop (the pre-table-driven
encoders were 50-200x slower) or an accidental O(rows^2) recovery scan.
Sub-5x perf changes are reviewed via the uploaded bench artifacts, and a
perf PR that intentionally shifts the floor must refresh the committed
baselines (see README: baseline-refresh policy).

Ops present only in the fresh file (new benchmarks) are reported but do
not fail the gate: adding a measurement must not require regenerating
every baseline atomically. Ops present only in the baseline (dropped
measurements) DO fail the gate — see above.
"""

import argparse
import json
import sys

DEFAULT_TOLERANCE = 5.0


def load_results(path):
    """Return {(name, op): (mean_ns, allocs_per_op | None)} for one
    BENCH_*.json file."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "twod-repro/bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {
        (r["name"], r["op"]): (
            float(r["mean_ns"]),
            float(r["allocs_per_op"]) if "allocs_per_op" in r else None,
        )
        for r in doc["results"]
    }


def service_summary(path):
    """Print derived service figures (scaling, lock overhead) for one
    freshly measured BENCH_service.json. Informational only."""
    results = load_results(path)
    one = results.get(("service", "conc_ops_1t"), (None, None))[0]
    seq = results.get(("service", "seq_ops"), (None, None))[0]
    if one:
        for n in (2, 4, 8):
            nt = results.get(("service", f"conc_ops_{n}t"), (None, None))[0]
            if nt:
                print(f"  [info] service scaling at {n} threads: {one / nt:.2f}x")
    if one and seq:
        print(f"  [info] single-thread lock overhead: {(one / seq - 1) * 100:+.1f}%")
    zipf_one = results.get(("service", "conc_ops_1t_zipf"), (None, None))[0]
    if zipf_one:
        for n in (2, 4, 8):
            nt = results.get(("service", f"conc_ops_{n}t_zipf"), (None, None))[0]
            if nt:
                print(f"  [info] hot-bank zipf scaling at {n} threads: "
                      f"{zipf_one / nt:.2f}x")
        zipf_eight = results.get(("service", "conc_ops_8t_zipf"), (None, None))[0]
        if zipf_eight:
            print(f"  [info] zipf 8t/1t throughput ratio (2 banks, seqlock "
                  f"fast path): {zipf_one / zipf_eight:.2f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", action="append", required=True,
                    help="committed baseline JSON (repeatable)")
    ap.add_argument("--fresh", action="append", required=True,
                    help="freshly measured JSON, paired with --baseline")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help=f"regression factor (default {DEFAULT_TOLERANCE})")
    args = ap.parse_args()
    if len(args.baseline) != len(args.fresh):
        sys.exit("--baseline and --fresh must be paired")

    regressions = []
    for base_path, fresh_path in zip(args.baseline, args.fresh):
        base = load_results(base_path)
        fresh = load_results(fresh_path)
        for key in sorted(base.keys() | fresh.keys()):
            name = f"{key[0]}.{key[1]}"
            if key not in fresh:
                # A baseline row the fresh run failed to produce: hard
                # failure (a dropped measurement is a dropped gate).
                print(f"  [FAIL] {name}: in baseline ({base_path}) but "
                      f"missing from fresh measurement ({fresh_path})")
                regressions.append(
                    (f"{name} (missing)", base[key][0], float("nan"),
                     float("inf")))
                continue
            if key not in base:
                print(f"  [new ] {name}: not in baseline yet "
                      f"({fresh[key][0]:.1f} ns)")
                continue
            base_ns, base_allocs = base[key]
            fresh_ns, fresh_allocs = fresh[key]
            if base_ns > 0:
                ratio = fresh_ns / base_ns
            else:
                # A 0-valued baseline (the allocs/op ratio rows) is a
                # pin, not a divisor: matching it is fine, exceeding it
                # is an unbounded regression.
                ratio = 1.0 if fresh_ns == 0 else float("inf")
            # Allocation gate FIRST, before any runner-dependent skip:
            # allocation counts are near-deterministic even on rows
            # whose *timing* is runner noise, so a 0-allocs baseline is
            # a hard pin regardless of how the timing column is treated
            # (see module docstring).
            if base_allocs is not None and fresh_allocs is not None:
                if base_allocs == 0 and fresh_allocs > 0:
                    print(f"  [FAIL] {name}: allocation regression — "
                          f"baseline 0 allocs/op, fresh {fresh_allocs:.3f}")
                    regressions.append(
                        (f"{name} (allocs/op)", 0.0, fresh_allocs, float("inf")))
                else:
                    print(f"  [info] {name}: {fresh_allocs:.3f} allocs/op "
                          f"(baseline {base_allocs:.3f})")
            runner_dependent = (
                # Multi-threaded rows vary with the runner's core count,
                # not with the code under test (see module docstring).
                (key[0] == "service" and key[1].startswith("conc_ops_")
                 and key[1] not in ("conc_ops_1t", "conc_ops_1t_zipf"))
                # Campaign wall-clock rows vary with scheduler load and
                # sleep-cadence jitter on oversubscribed runners (see
                # module docstring); presence is still enforced above.
                or (key[0] == "scrub" and key[1].startswith("campaign_"))
                # Derived rate row: GB/s lives in the mean_ns column and
                # higher is better, so the ratio gate points the wrong
                # way; presence is still enforced above.
                or key == ("scrub", "scrub_throughput_gbps")
            )
            if runner_dependent:
                print(f"  [info] {name}: baseline {base_ns:.1f} ns, "
                      f"fresh {fresh_ns:.1f} ns ({ratio:.2f}x, not gated)")
                continue
            status = "FAIL" if ratio > args.tolerance else "ok"
            print(f"  [{status:>4}] {name}: baseline {base_ns:.1f} ns, "
                  f"fresh {fresh_ns:.1f} ns ({ratio:.2f}x)")
            if ratio > args.tolerance:
                regressions.append((name, base_ns, fresh_ns, ratio))
        if any(k[0] == "service" for k in fresh):
            service_summary(fresh_path)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.tolerance}x:")
        for name, b, f, r in regressions:
            print(f"  {name}: {b:.1f} -> {f:.1f} ns/op ({r:.2f}x)")
        sys.exit(1)
    print("\nbench gate: no regressions beyond "
          f"{args.tolerance}x across {len(args.baseline)} file(s)")


if __name__ == "__main__":
    main()
