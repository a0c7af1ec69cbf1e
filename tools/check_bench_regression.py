#!/usr/bin/env python3
"""Perf-regression gate over replay_bench JSON.

Compares a freshly measured replay_bench JSON against the committed
BENCH_replay.json and fails (exit 1) when throughput regressed beyond
the tolerance. Both files must carry SCHEMA. Checked, all one-sided
(only slowdowns fail, speedups pass):

  * aggregate.records_per_sec       -- the per-cell sweep, at
                                       TOLERANCE
  * per-cell records_per_sec        -- each (platform, layout) cell of
                                       the baseline, at CELL_TOLERANCE
                                       (cells are noisier than the
                                       aggregate)
  * paged.records_per_sec           -- the demand-paging replay stage
                                       (bounded frame pool), at
                                       TOLERANCE, when the baseline
                                       ran it. The unbounded hot path
                                       stays guarded by the aggregate
                                       check: the paged stage is timed
                                       outside the sweep.
  * aggregate.host_cycles_per_record -- nominal host cycles the kernel
                                       spends per trace record
                                       (TSC-calibrated). Two checks:
                                       no more than TOLERANCE growth
                                       over the baseline, and an
                                       absolute CYCLES_CEILING that
                                       arms once the baseline itself
                                       is at or under it, so the
                                       <100-cycles ratchet cannot
                                       silently regress. A fresh value
                                       of 0 means the bench could not
                                       calibrate a clock (non-x86 host
                                       without MOSAIC_HOST_GHZ): the
                                       cycle checks are skipped, the
                                       throughput checks still run.

The tolerances are deliberately wide because CI runners are shared
and noisy; the bench itself takes the min over repetitions, which
removes most cold-start noise. Parallel and sampled replay, whole
campaigns and the serve daemon are measured end to end, with their
outputs checked, by perfbench (perfbench/run.py).

Usage:
  check_bench_regression.py --baseline BENCH_replay.json \
      --fresh fresh.json
  check_bench_regression.py --self-test

--self-test runs the gate against seeded synthetic bench documents
(written to a temporary directory) and verifies that a healthy pair
passes, that each check above fails by name on a seeded regression,
that a 0-cycle fresh run skips only the cycle checks, and that bad
input exits 2. It exits 0 only when all of them behave.

Exit codes: 0 no regression, 1 regression detected, 2 bad input (an
unreadable file, a schema other than SCHEMA on either side, or a fresh
run missing a number, a cell or a stage the baseline has).
"""

import argparse
import copy
import json
import os
import random
import sys
import tempfile


SCHEMA = "mosaic-replay-bench/6"
TOLERANCE = 0.20
CELL_TOLERANCE = 0.30
CYCLES_CEILING = 100.0


class BadInput(Exception):
    """The two files cannot be compared (exit 2)."""


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BadInput(f"cannot load {path}: {exc}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise BadInput(f"{path}: schema {schema!r}, expected {SCHEMA!r} "
                       "(regenerate it with the current replay_bench)")
    return doc


def number(doc, side, *keys):
    """doc[keys[0]][keys[1]]... as a number; BadInput when absent."""
    value = doc
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadInput(f"{side}: no numeric {'.'.join(keys)}")
    return value


def cells(doc, side):
    """Per-cell throughput by (platform, layout)."""
    out = {}
    for run in doc.get("runs", []):
        key = (run.get("platform"), run.get("layout"))
        out[key] = number(run, f"{side} cell {key}", "records_per_sec")
    return out


class Gate:
    def __init__(self):
        self.failures = []
        self.checked = []

    def check(self, label, fresh, floor, detail=""):
        self.checked.append(label)
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(f"  {label}: {fresh:,.0f} vs floor {floor:,.0f} "
              f"{detail}-> {verdict}")
        if fresh < floor:
            self.failures.append(label)

    def check_max(self, label, fresh, ceiling, detail=""):
        """Lower-is-better metric (e.g. host cycles/record)."""
        self.checked.append(label)
        verdict = "ok" if fresh <= ceiling else "REGRESSION"
        print(f"  {label}: {fresh:,.1f} vs ceiling {ceiling:,.1f} "
              f"{detail}-> {verdict}")
        if fresh > ceiling:
            self.failures.append(label)


def run_gate(baseline, fresh):
    """Every check of the module docstring; returns the populated Gate.
    Raises BadInput before any check runs when the pair is not
    comparable."""
    def both(*keys):
        return (number(baseline, "baseline", *keys),
                number(fresh, "fresh", *keys))

    base_agg, fresh_agg = both("aggregate", "records_per_sec")
    base_cycles, fresh_cycles = both("aggregate", "host_cycles_per_record")
    if base_cycles <= 0:
        raise BadInput("baseline was measured without a calibrated "
                       "clock (host_cycles_per_record 0)")
    paged = both("paged", "records_per_sec") if "paged" in baseline else None
    base_cells = cells(baseline, "baseline")
    fresh_cells = cells(fresh, "fresh")
    missing = sorted(set(base_cells) - set(fresh_cells))
    if missing:
        raise BadInput(f"fresh run is missing cells: {missing}")

    gate = Gate()
    gate.check("aggregate records/sec", fresh_agg,
               base_agg * (1.0 - TOLERANCE),
               f"(baseline {base_agg:,.0f}, -{TOLERANCE:.0%}) ")
    if not fresh_cycles:
        # The one skip that depends on the host, not on an old file.
        print("warning: fresh run carries no calibrated "
              "host_cycles_per_record; cycle checks skipped",
              file=sys.stderr)
    else:
        gate.check_max("aggregate host cycles/record", fresh_cycles,
                       base_cycles * (1.0 + TOLERANCE),
                       f"(baseline {base_cycles:,.1f}, "
                       f"+{TOLERANCE:.0%}) ")
        if base_cycles <= CYCLES_CEILING:
            # The ratchet: once a committed baseline gets under the
            # ceiling, no future PR may climb back above it, even if
            # the relative tolerance would allow it.
            gate.check_max("host cycles/record ceiling", fresh_cycles,
                           CYCLES_CEILING)
    if paged:
        base_paged, fresh_paged = paged
        gate.check("paged records/sec", fresh_paged,
                   base_paged * (1.0 - TOLERANCE),
                   f"(baseline {base_paged:,.0f}, -{TOLERANCE:.0%}) ")
    for key in sorted(base_cells):
        platform, layout = key
        gate.check(f"cell {platform}/{layout}", fresh_cells[key],
                   base_cells[key] * (1.0 - CELL_TOLERANCE))
    return gate


def self_test():
    """Gate-the-gate: seeded synthetic documents prove that every check
    fires on a real regression, and only then, and that bad input is
    told apart from a regression."""
    rng = random.Random(0x5A3D11E5)

    def synth_doc(cycles=116.0):
        rate = 18e6 + rng.uniform(-1e5, 1e5)
        return {
            "schema": SCHEMA,
            "records": 2000000,
            "runs": [
                {"platform": "SandyBridge", "layout": "all4k",
                 "records_per_sec": rate * 0.7},
                {"platform": "SandyBridge", "layout": "all2m",
                 "records_per_sec": rate * 1.3},
            ],
            "paged": {"frames": 8192, "wall_seconds": 0.38,
                      "records_per_sec": 5.2e6 + rng.uniform(-1e4, 1e4)},
            "aggregate": {"wall_seconds": 1.3, "records_per_sec": rate,
                          "host_cycles_per_record": cycles,
                          "host_tsc_ghz": 2.1},
        }

    def altered(doc, edit):
        out = copy.deepcopy(doc)
        edit(out)
        return out

    failures = []

    def expect(name, gate, want_failures):
        ok = sorted(gate.failures) == sorted(want_failures)
        print(f"self-test [{name}]: "
              f"{'ok' if ok else 'WRONG VERDICT'} "
              f"(failures: {gate.failures or 'none'})")
        if not ok:
            failures.append(name)

    # A baseline above the ceiling leaves it unarmed, so the healthy
    # pair also shows that a fresh run above 100 cycles passes then.
    base = synth_doc()
    print("-- self-test: healthy run --")
    healthy = run_gate(base, synth_doc())
    expect("healthy", healthy, [])

    def slower(*keys):
        def edit(doc):
            holder = doc
            for key in keys[:-1]:
                holder = holder[key]
            holder[keys[-1]] *= 0.5
        return edit

    def set_cycles(value):
        def edit(doc):
            doc["aggregate"]["host_cycles_per_record"] = value
        return edit

    seeded = [
        ("aggregate regression",
         altered(base, slower("aggregate", "records_per_sec")), base,
         ["aggregate records/sec"]),
        ("cell regression",
         altered(base, slower("runs", 0, "records_per_sec")), base,
         ["cell SandyBridge/all4k"]),
        ("paged regression",
         altered(base, slower("paged", "records_per_sec")), base,
         ["paged records/sec"]),
        ("cycles/record +30%", altered(base, set_cycles(116.0 * 1.3)),
         base, ["aggregate host cycles/record"]),
        ("ceiling armed at 95, fresh 101",
         altered(base, set_cycles(101.0)),
         altered(base, set_cycles(95.0)),
         ["host cycles/record ceiling"]),
    ]
    for name, fresh, baseline, want in seeded:
        print(f"-- self-test: {name} --")
        expect(name, run_gate(baseline, fresh), want)

    print("-- self-test: fresh run without a calibrated clock --")
    uncalibrated = run_gate(base, altered(base, set_cycles(0)))
    expect("0 cycles", uncalibrated, [])
    skipped = sorted(set(healthy.checked) - set(uncalibrated.checked))
    if skipped != ["aggregate host cycles/record"]:
        print(f"self-test [0 cycles skips only the cycle checks]: "
              f"WRONG, skipped {skipped}")
        failures.append("0 cycles skips only the cycle checks")

    old = altered(base, lambda doc: doc.update(
        schema="mosaic-replay-bench/5"))
    bad_pairs = [
        ("unknown schema", altered(base, lambda doc: doc.update(
            schema="mosaic-serve-bench/1")), base),
        ("/5 baseline", old, base),
        ("/5 fresh", base, old),
        ("fresh missing a cell", base,
         altered(base, lambda doc: doc["runs"].pop())),
        ("fresh missing the paged stage", base,
         altered(base, lambda doc: doc.pop("paged"))),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            return path

        bad_input = [("unreadable file", os.path.join(tmp, "missing.json"),
                      write("base.json", base))]
        bad_input += [(name, write(f"{i}-baseline.json", baseline),
                       write(f"{i}-fresh.json", fresh))
                      for i, (name, baseline, fresh) in enumerate(bad_pairs)]
        for name, baseline_path, fresh_path in bad_input:
            print(f"-- self-test: bad input, {name} --")
            code = main(["--baseline", baseline_path,
                         "--fresh", fresh_path])
            if code != 2:
                print(f"self-test [{name}]: WRONG EXIT {code}")
                failures.append(name)

    if failures:
        print(f"\nSELF-TEST FAIL: {', '.join(failures)}")
        return 1
    print("\nSELF-TEST OK: every check fires when and only when it "
          "should, and bad input exits 2")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="replay_bench perf-regression gate")
    parser.add_argument("--baseline",
                        help="committed BENCH_replay.json")
    parser.add_argument("--fresh",
                        help="freshly measured replay_bench JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate itself against seeded "
                             "synthetic documents, then exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required unless "
                     "--self-test is given")

    try:
        baseline = load(args.baseline)
        fresh = load(args.fresh)
        for side, path, doc in (("baseline", args.baseline, baseline),
                                ("fresh", args.fresh, fresh)):
            print(f"{side + ':':10}{path} ({doc['schema']}, "
                  f"{doc.get('records', '?')} records)")
        gate = run_gate(baseline, fresh)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if gate.failures:
        print(f"\nFAIL: {len(gate.failures)}/{len(gate.checked)} checks "
              f"regressed: {', '.join(gate.failures)}")
        return 1
    print(f"\nOK: {len(gate.checked)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
