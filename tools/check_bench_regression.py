#!/usr/bin/env python3
"""Perf-regression gate over replay_bench and serve_loadgen JSON.

Dispatches on the input schema: "mosaic-replay-bench/*" files gate
replay throughput (below), "mosaic-serve-bench/*" files gate the serve
daemon's predictions/sec per client stage (--tolerance applies, each
stage matched by client count) and require zero protocol errors in
the fresh run. Baseline and fresh must carry the same schema family.

Compares a freshly measured BENCH_replay.json against the committed
baseline and fails (exit 1) when throughput regressed beyond the
tolerance. Checked, all one-sided (only slowdowns fail, speedups pass):

  * aggregate.records_per_sec       -- the sequential per-cell sweep
  * per-cell records_per_sec        -- each (platform, layout) cell,
                                       at a wider tolerance (cells are
                                       noisier than the aggregate)
  * paged.records_per_sec           -- the demand-paging replay stage
                                       (bounded frame pool); skipped
                                       with a note when the committed
                                       baseline predates the paged
                                       schema (/4). The unbounded hot
                                       path stays guarded by the
                                       aggregate check regardless —
                                       the paged stage is timed
                                       outside the sequential sweep.
  * sampled.effective_records_per_sec -- the interval-sampled replay
                                       stage (full-trace records
                                       covered per second of partial
                                       replay); skipped with a note
                                       when the committed baseline
                                       predates the sampled schema
                                       (/5), like the paged stage.
  * aggregate.host_cycles_per_record -- nominal host cycles the kernel
                                       spends per trace record
                                       (schema /3; TSC-calibrated).
                                       Two one-sided checks: no >20%
                                       growth over the baseline, and
                                       an absolute ceiling
                                       (--cycles-ceiling, default 100)
                                       that engages once the committed
                                       baseline itself is under it —
                                       so the <100-cycles ratchet
                                       cannot silently regress. A
                                       value of 0 means the bench
                                       could not calibrate a clock
                                       (non-x86 host without
                                       MOSAIC_HOST_GHZ); cycle checks
                                       are skipped, throughput checks
                                       still run.

A baseline that predates a schema bump (missing aggregate, paged or
sampled blocks or run-entry keys) skips the affected checks with a
warning instead of crashing; the fresh file, produced by the current
bench binary, is still required to carry the aggregate.

The default tolerance is deliberately wide (20%) because CI runners
are shared and noisy; the bench itself takes the min over repetitions
after a calibration rep, which removes most cold-start noise.

Usage:
  check_bench_regression.py --baseline BENCH_replay.json \
      --fresh fresh.json [--tolerance 0.20] [--cell-tolerance 0.30]
  check_bench_regression.py --self-test

--self-test runs the gate against seeded synthetic bench documents
(no files needed) and verifies that (a) an unregressed pair passes,
(b) a deliberate sampled-throughput regression is red-flagged, and
(c) a pre-/5 baseline skips the sampled check instead of crashing.
It exits 0 only when all three behave.

Exit codes: 0 no regression, 1 regression detected, 2 bad input.
"""

import argparse
import json
import sys


SCHEMA_FAMILIES = ("mosaic-replay-bench/", "mosaic-serve-bench/")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot load {path}: {exc}")
    schema = str(doc.get("schema", ""))
    if not any(schema.startswith(fam) for fam in SCHEMA_FAMILIES):
        sys.exit(f"error: {path}: unexpected schema {schema!r}")
    return doc


def schema_family(doc):
    schema = str(doc.get("schema", ""))
    for family in SCHEMA_FAMILIES:
        if schema.startswith(family):
            return family
    return None


def warn(message):
    print(f"warning: {message}", file=sys.stderr)


def cells(doc, path):
    """Per-cell throughput map, tolerating schema drift.

    A baseline committed before a schema bump may hold run entries
    without the keys this gate reads; those entries are skipped with a
    warning instead of KeyError-ing the whole gate (the remaining
    cells still get checked).
    """
    out = {}
    skipped = 0
    for run in doc.get("runs", []):
        platform = run.get("platform")
        layout = run.get("layout")
        rate = run.get("records_per_sec")
        if platform is None or layout is None or rate is None:
            skipped += 1
            continue
        out[(platform, layout)] = rate
    if skipped:
        warn(f"{path}: skipped {skipped} run entr"
             f"{'y' if skipped == 1 else 'ies'} missing "
             "platform/layout/records_per_sec (older schema?)")
    return out


class Gate:
    def __init__(self):
        self.failures = []
        self.checked = 0

    def check(self, label, fresh, floor, detail=""):
        self.checked += 1
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(f"  {label}: {fresh:,.0f} vs floor {floor:,.0f} "
              f"{detail}-> {verdict}")
        if fresh < floor:
            self.failures.append(label)

    def check_max(self, label, fresh, ceiling, detail=""):
        """Lower-is-better metric (e.g. host cycles/record)."""
        self.checked += 1
        verdict = "ok" if fresh <= ceiling else "REGRESSION"
        print(f"  {label}: {fresh:,.1f} vs ceiling {ceiling:,.1f} "
              f"{detail}-> {verdict}")
        if fresh > ceiling:
            self.failures.append(label)


def gate_serve(baseline, fresh, args, gate):
    """Serve-daemon gate: per-stage predictions/sec floors.

    Stages are matched by client count; a baseline stage missing from
    the fresh run fails hard (coverage must not silently shrink). Any
    protocol errors in the fresh run fail the gate outright — a
    half-broken daemon can post great throughput on the requests that
    survive.
    """
    def stages(doc, path):
        out = {}
        for stage in doc.get("stages", []):
            clients = stage.get("clients")
            if clients is None:
                warn(f"{path}: stage without a client count skipped")
                continue
            out[clients] = stage
        return out

    base_stages = stages(baseline, args.baseline)
    fresh_stages = stages(fresh, args.fresh)
    if not fresh_stages:
        sys.exit("error: fresh serve bench carries no stages")
    missing = sorted(set(base_stages) - set(fresh_stages))
    if missing:
        sys.exit(f"error: fresh run is missing client stages: "
                 f"{missing}")

    for clients in sorted(base_stages):
        base_rate = base_stages[clients].get("predictions_per_sec")
        fresh_stage = fresh_stages[clients]
        fresh_rate = fresh_stage.get("predictions_per_sec")
        if base_rate is None or fresh_rate is None:
            warn(f"stage clients={clients}: no predictions_per_sec; "
                 "skipped")
            continue
        gate.check(f"clients={clients} predictions/sec", fresh_rate,
                   base_rate * (1.0 - args.tolerance),
                   f"(baseline {base_rate:,.0f}, "
                   f"-{args.tolerance:.0%}) ")
        errors = fresh_stage.get("errors", 0)
        gate.checked += 1
        verdict = "ok" if not errors else "REGRESSION"
        print(f"  clients={clients} protocol errors: {errors} "
              f"-> {verdict}")
        if errors:
            gate.failures.append(f"clients={clients} errors")


def gate_replay(baseline, fresh, args, gate):
    """Replay-bench gate: aggregate/paged/sampled/cell floors."""

    def describe(path, doc):
        records = doc.get("records")
        records_text = (f"{records:,} records"
                        if isinstance(records, (int, float))
                        else "record count unknown")
        print(f"{path} ({doc.get('schema')}, {records_text})")

    print("baseline: ", end="")
    describe(args.baseline, baseline)
    print("fresh:    ", end="")
    describe(args.fresh, fresh)

    base_agg = baseline.get("aggregate", {}).get("records_per_sec")
    fresh_agg = fresh.get("aggregate", {}).get("records_per_sec")
    if not fresh_agg:
        # The fresh file comes from the current bench binary; if even
        # it lacks the aggregate, the measurement itself is broken.
        sys.exit("error: fresh file lacks aggregate.records_per_sec")
    if base_agg:
        gate.check("aggregate records/sec", fresh_agg,
                   base_agg * (1.0 - args.tolerance),
                   f"(baseline {base_agg:,.0f}, "
                   f"-{args.tolerance:.0%}) ")
    else:
        # A baseline from before the schema carried the aggregate:
        # skip the check rather than fail the gate on old data.
        warn(f"{args.baseline}: no aggregate.records_per_sec "
             "(pre-aggregate schema?); aggregate check skipped")

    base_cycles = baseline.get("aggregate", {}).get(
        "host_cycles_per_record")
    fresh_cycles = fresh.get("aggregate", {}).get(
        "host_cycles_per_record")
    if not fresh_cycles:
        # 0 or absent: the bench ran without a calibratable clock
        # (non-x86 host, no MOSAIC_HOST_GHZ). Throughput checks above
        # still gate the run.
        warn("fresh run carries no calibrated host_cycles_per_record; "
             "cycle checks skipped")
    elif base_cycles:
        gate.check_max("aggregate host cycles/record", fresh_cycles,
                       base_cycles * (1.0 + args.tolerance),
                       f"(baseline {base_cycles:,.1f}, "
                       f"+{args.tolerance:.0%}) ")
        if base_cycles <= args.cycles_ceiling:
            # The ratchet: once a committed baseline gets under the
            # ceiling, no future PR may climb back above it, even if
            # the relative tolerance would allow it.
            gate.check_max("host cycles/record ceiling", fresh_cycles,
                           args.cycles_ceiling)
    else:
        warn(f"{args.baseline}: no aggregate.host_cycles_per_record "
             "(pre-/3 schema?); cycle checks skipped")

    base_paged = baseline.get("paged", {}).get("records_per_sec")
    fresh_paged = fresh.get("paged", {}).get("records_per_sec")
    if base_paged and fresh_paged:
        gate.check("paged records/sec", fresh_paged,
                   base_paged * (1.0 - args.tolerance),
                   f"(baseline {base_paged:,.0f}, "
                   f"-{args.tolerance:.0%}) ")
    elif fresh_paged and not base_paged:
        # The demand-paging stage landed after this baseline was
        # committed; the gate engages once the baseline is refreshed.
        # The unbounded hot path is still guarded above — the paged
        # stage runs outside the sequential sweep by design.
        print("  paged records/sec: no baseline (pre-paged schema); "
              "skipped")

    base_sampled = baseline.get("sampled", {}).get(
        "effective_records_per_sec")
    fresh_sampled = fresh.get("sampled", {}).get(
        "effective_records_per_sec")
    if base_sampled and fresh_sampled:
        gate.check("sampled effective records/sec", fresh_sampled,
                   base_sampled * (1.0 - args.tolerance),
                   f"(baseline {base_sampled:,.0f}, "
                   f"-{args.tolerance:.0%}) ")
    elif fresh_sampled and not base_sampled:
        # The interval-sampling stage landed in schema /5; a baseline
        # committed before it skips the check (engaging once the
        # baseline is refreshed) exactly like the paged stage above.
        print("  sampled effective records/sec: no baseline "
              "(pre-sampled schema); skipped")

    base_cells = cells(baseline, args.baseline)
    fresh_cells = cells(fresh, args.fresh)
    missing = sorted(set(base_cells) - set(fresh_cells))
    if missing:
        sys.exit(f"error: fresh run is missing cells: {missing}")
    for key in sorted(base_cells):
        platform, layout = key
        gate.check(f"cell {platform}/{layout}", fresh_cells[key],
                   base_cells[key] * (1.0 - args.cell_tolerance))


def run_gate(baseline, fresh, args):
    """Dispatch on schema family; returns the populated Gate."""
    gate = Gate()
    if schema_family(baseline) != schema_family(fresh):
        sys.exit("error: baseline and fresh schemas disagree "
                 f"({baseline.get('schema')!r} vs "
                 f"{fresh.get('schema')!r})")
    if schema_family(fresh) == "mosaic-serve-bench/":
        print(f"baseline: {args.baseline} ({baseline.get('schema')})")
        print(f"fresh:    {args.fresh} ({fresh.get('schema')})")
        gate_serve(baseline, fresh, args, gate)
    else:
        gate_replay(baseline, fresh, args, gate)
    return gate


def self_test(args):
    """Gate-the-gate: seeded synthetic documents prove the sampled
    check fires on a real regression and stays quiet otherwise."""
    import random

    rng = random.Random(0x5A3D11E5)
    # gate_replay labels its warnings with the input paths.
    args.baseline = "<self-test baseline>"
    args.fresh = "<self-test fresh>"

    def synth_doc(schema, sampled_rate):
        base_rate = 18e6 + rng.uniform(-1e5, 1e5)
        doc = {
            "schema": schema,
            "records": 2000000,
            "aggregate": {
                "wall_seconds": 1.3,
                "records_per_sec": base_rate,
                # 0 = "no calibrated clock": cycle checks skip, which
                # keeps the self-test host-independent.
                "host_cycles_per_record": 0,
            },
            "runs": [
                {"platform": "SandyBridge", "layout": "all4k",
                 "records_per_sec": base_rate * 0.7},
                {"platform": "SandyBridge", "layout": "all2m",
                 "records_per_sec": base_rate * 1.3},
            ],
        }
        if sampled_rate is not None:
            doc["sampled"] = {
                "interval_records": 16384,
                "clusters": 8,
                "warmup_records": 4096,
                "replay_fraction": 0.068,
                "wall_seconds": 0.08,
                "effective_records_per_sec": sampled_rate,
            }
        return doc

    failures = []

    def expect(name, gate, want_fail, want_label=None):
        flagged = [f for f in gate.failures
                   if want_label is None or want_label in f]
        ok = bool(flagged) == want_fail
        print(f"self-test [{name}]: "
              f"{'ok' if ok else 'WRONG VERDICT'} "
              f"(failures: {gate.failures or 'none'})")
        if not ok:
            failures.append(name)

    sampled_base = 70e6 + rng.uniform(-1e5, 1e5)

    # (a) An unregressed fresh run passes.
    print("-- self-test: healthy run --")
    base = synth_doc("mosaic-replay-bench/5", sampled_base)
    good = synth_doc("mosaic-replay-bench/5",
                     sampled_base * (1.0 - args.tolerance / 2))
    expect("healthy", run_gate(base, good, args), want_fail=False)

    # (b) A seeded sampled-throughput regression (half the baseline
    # rate, far past any sane tolerance) is red-flagged by name.
    print("-- self-test: sampled regression --")
    slow = synth_doc("mosaic-replay-bench/5", sampled_base * 0.5)
    expect("sampled regression", run_gate(base, slow, args),
           want_fail=True, want_label="sampled")

    # (c) A pre-bump baseline (schema /4, no sampled block) skips the
    # sampled check instead of crashing or failing.
    print("-- self-test: pre-/5 baseline --")
    old = synth_doc("mosaic-replay-bench/4", None)
    expect("pre-bump baseline", run_gate(old, good, args),
           want_fail=False)

    if failures:
        print(f"\nSELF-TEST FAIL: {', '.join(failures)}")
        return 1
    print("\nSELF-TEST OK: the sampled gate fires when and only "
          "when it should")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="replay_bench / serve_loadgen perf-regression gate")
    parser.add_argument("--baseline",
                        help="committed BENCH_replay.json")
    parser.add_argument("--fresh",
                        help="freshly measured replay_bench JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed aggregate slowdown (default 0.20)")
    parser.add_argument("--cell-tolerance", type=float, default=0.30,
                        help="allowed per-cell slowdown (default 0.30)")
    parser.add_argument("--cycles-ceiling", type=float, default=100.0,
                        help="absolute host_cycles_per_record ceiling, "
                             "enforced once the baseline is under it "
                             "(default 100)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate itself against seeded "
                             "synthetic documents, then exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args)
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required unless "
                     "--self-test is given")

    gate = run_gate(load(args.baseline), load(args.fresh), args)
    if gate.failures:
        print(f"\nFAIL: {len(gate.failures)}/{gate.checked} checks "
              f"regressed: {', '.join(gate.failures)}")
        return 1
    print(f"\nOK: {gate.checked} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
