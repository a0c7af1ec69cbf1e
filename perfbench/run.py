#!/usr/bin/env python3
"""Benchmark of the mosaic campaign and serve tools.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-full --seed 7 \\
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  campaign-full     CampaignRunner::runReport over 660 cells (gups/8GB,
                    spec06/mcf, graph500/4GB, gapbs/bfs-road on the
                    paper's three platforms, 55 layouts each), jobs 2,
                    full replay, then a Mosmodel fit per pair.
  campaign-sampled  The same cells with interval-sampled replay.
  serve             mosaic_serve (2 workers, Unix socket) loaded with
                    the committed dataset minus two pairs, driven by one
                    closed-loop client: a first query per resident pair,
                    warm queries, then the two missing pairs cold.

--trace 0 prints the end-to-end metrics, measured untraced. --trace 1
runs the workload once untraced and once through the layers' public
functions with a span around every call, and prints the per-layer
metrics (metrics.json says which metric each should move, on which
workload). Every workload reports every metric of its mode; a figure
only one workload has (the serve round-trip tail, the sampling layer's
own timings) is a diagnostic on the context line.

--seed (default 0x9a4d) orders the serve queries. The campaign inputs
do not depend on it: layouts keep the seed the committed
mosaic_dataset.csv was made with, so the accuracy metrics are the same
in every run and every run is checked against that dataset, byte for
byte for full replay, by key for sampled rows, by measured runtime for
serve answers. The traced run's per-cell counters must also equal the
untraced run's.

The program is built from the checkout's sources into .bench_build/,
where all run outputs go too. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it gives
the host (nproc, steal), thread and connection counts, the sample
counts behind the percentiles and the workload's diagnostics. Exit
status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run.
"""

import argparse
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave the source tree as it was
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import measure  # noqa: E402
import selftest  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVE_BIN = os.path.join(BUILD, "tools", "mosaic_serve")
DATASET = os.path.join(ROOT, "mosaic_dataset.csv")

DEFAULT_SEED = 0x9a4d
JOBS = 2
PLATFORMS = ["SandyBridge", "Haswell", "Broadwell"]
CAMPAIGN_WORKLOADS = ["gups/8GB", "spec06/mcf", "graph500/4GB",
                      "gapbs/bfs-road"]
COLD_PAIRS = [("SandyBridge", "gups/8GB"), ("Broadwell", "graph500/4GB")]
# Dataset::sampleSet holds the all-1GB run out of every fit (it is the
# case study's test point), so Eq. 1 is taken over the other 54.
HELD_OUT_LAYOUT = "all-1GB"
# Counter columns of the dataset CSV and the RunResult fields the
# traced run reports them under.
COUNTERS = {
    "runtime": "runtimeCycles", "h": "tlbHitsL2", "m": "tlbMisses",
    "c": "walkCycles", "instructions": "instructions",
    "refs": "memoryRefs", "l1tlbhits": "l1TlbHits",
    "queue": "walkerQueueCycles", "progL1": "progL1dLoads",
    "progL2": "progL2Loads", "progL3": "progL3Loads",
    "progDram": "progDramLoads", "walkL1": "walkL1dLoads",
    "walkL2": "walkL2Loads", "walkL3": "walkL3Loads",
    "walkDram": "walkDramLoads",
}
# A run repeats its campaign once per this many seconds of --seconds
# (at least once). The count depends on --seconds alone, so a slower
# program does not get fewer samples. Throughput is the run's cells over
# the run's campaign time, and timings are medians over its campaigns:
# on a shared host, single campaigns and cold fills swing by up to a
# quarter as the host's load shifts every ten seconds or so.
CAMPAIGN_SECONDS = 15
# Daemon starts per serve run; each gives one set-up, cold-fill and peak
# RSS sample and an equal part of the warm loop, which takes this share
# of --seconds. Three starts are as many as the benchmark's time limit
# allows next to the campaign workloads.
SERVE_SETUPS = 3
SERVE_WARM_SHARE = 1 / 6
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (build, start-up, a crashed child)."""


class Checks:
    """Output checks: every mismatch is recorded and fails the run."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            print("CHECK FAILED: " + message, file=sys.stderr)
        return ok


# --------------------------------------------------------------------
# Building and running the program


def build():
    sources = [os.path.join(ROOT, p) for p in
               ("CMakeLists.txt", "src", "tools/mosaic_serve.cc",
                "mosaic_dataset.csv")]
    missing = [p for p in sources if not os.path.exists(p)]
    if missing:
        raise BenchError("not a mosaic checkout (missing %s); run from "
                         "the repository root" % ", ".join(missing))
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                          "-DCMAKE_PROJECT_INCLUDE=" +
                          os.path.join(HERE, "hook.cmake")])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_driver", "mosaic_serve", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log,
                               cwd=ROOT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def run_child(argv):
    """Run a driver subcommand; return its JSON summary line and its
    peak RSS in KiB. Kills it after CHILD_TIMEOUT_S."""
    proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (argv[1], proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no summary" % argv[1])
    return json.loads(lines[-1]), usage.ru_maxrss


def work(name):
    return os.path.join(WORK, name)


def read_cpu_times():
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return [int(v) for v in fields[1:]]


# --------------------------------------------------------------------
# Data files


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def key_of(row):
    return (row["platform"], row["workload"], row["layout"])


def load_committed():
    """Header, and every committed row (raw line and parsed) by key."""
    with open(DATASET) as f:
        lines = f.read().splitlines()
    header = lines[0]
    rows = {}
    for line, row in zip(lines[1:], csv.DictReader(io.StringIO(
            "\n".join(lines)))):
        rows[key_of(row)] = (line, row)
    return header, rows


def campaign_keys(committed):
    return {k for k in committed
            if k[0] in PLATFORMS and k[1] in CAMPAIGN_WORKLOADS}


# Driver options naming the campaign grid: 12 pairs, 660 cells.
CAMPAIGN_GRID =["--workloads", ",".join(CAMPAIGN_WORKLOADS),
                 "--platforms", ",".join(PLATFORMS)]


def restrict(estimates, references):
    """Both mappings cut to their common keys (a missing key has already
    failed a check; the error metrics still describe the rest)."""
    common = set(estimates) & set(references)
    return ({k: estimates[k] for k in common},
            {k: references[k] for k in common})


def read_predictions(path):
    """Mosmodel predictions by key, for the layouts the fits saw."""
    out = {}
    with open(path) as f:
        for line in f:
            platform, workload, layout, value = line.rstrip("\n").split(",")
            if layout != HELD_OUT_LAYOUT:
                out[(platform, workload, layout)] = float(value)
    return out


def read_spans(path):
    spans = {}
    for row in read_csv(path):
        spans[row["span"]] = {
            "name": row["name"], "id": int(row["id"]),
            "parent": row["parent"] or None,
            "begin": int(row["begin_ns"]), "end": int(row["end_ns"]),
            "work": int(row["work"]),
        }
    own = measure.self_times(spans)
    for key, span in spans.items():
        span["self"] = own[key]
    return spans


def spans_named(spans, name):
    return [s for s in spans.values() if s["name"] == name]


def total_self_ns(spans, name):
    return sum(s["self"] for s in spans_named(spans, name))


def per_work_ns(spans, name, keep=lambda span: True):
    chosen = [s for s in spans_named(spans, name) if keep(s)]
    work_done = sum(s["work"] for s in chosen)
    if not chosen or work_done == 0:
        raise BenchError("no %s spans with work" % name)
    return sum(s["self"] for s in chosen) / work_done


def self_time_table(spans):
    """Per span name: count, summed self time and summed duration."""
    table = {}
    for span in spans.values():
        entry = table.setdefault(span["name"], [0, 0, 0])
        entry[0] += 1
        entry[1] += span["self"]
        entry[2] += span["end"] - span["begin"]
    return {name: {"spans": n, "self_s": own / 1e9, "total_s": total / 1e9}
            for name, (n, own, total) in sorted(table.items())}


# --------------------------------------------------------------------
# Campaign workloads


def run_campaign(mode, tag):
    csv_path = work("campaign-%s-%s.csv" % (mode, tag))
    pred_path = work("campaign-%s-%s.pred" % (mode, tag))
    summary, rss_kb = run_child(
        [DRIVER, "campaign", "--mode", mode, "--jobs", JOBS, "--csv",
         csv_path, "--predictions", pred_path] + CAMPAIGN_GRID)
    summary["rss_kb"] = rss_kb
    with open(csv_path) as f:
        summary["csv"] = f.read()
    summary["predictions"] = read_predictions(pred_path)
    return summary


def check_campaign_run(run, checks, expected_cells):
    checks.expect(run["cells"] == expected_cells,
                  "campaign ran %d cells, expected %d" %
                  (run["cells"], expected_cells))
    checks.expect(run["cell_failures"] == 0,
                  "%d campaign cells failed" % run["cell_failures"])
    checks.expect(run["fits"] == len(PLATFORMS) * len(CAMPAIGN_WORKLOADS)
                  and run["fit_failures"] == 0,
                  "%d of %d Mosmodel fits failed" %
                  (run["fit_failures"], run["fits"]))


def check_campaign_csv(mode, text, committed_header, committed, checks):
    """The campaign CSV against the committed dataset. Full replay: every
    row byte for byte. Sampled: the est_err header and exactly the
    committed keys. Returns the rows parsed, by key."""
    lines = text.splitlines()
    expected_header = committed_header + (",est_err" if mode == "sampled"
                                          else "")
    checks.expect(lines and lines[0] == expected_header,
                  "%s CSV header is %r" % (mode, lines[0] if lines else ""))
    rows = {}
    for line, row in zip(lines[1:], csv.DictReader(io.StringIO(text))):
        key = key_of(row)
        checks.expect(key not in rows, "duplicate row %s" % (key,))
        rows[key] = (line, row)
    wanted = campaign_keys(committed)
    checks.expect(set(rows) == wanted,
                  "%s CSV covers %d keys, %d missing, %d unexpected" %
                  (mode, len(rows), len(wanted - set(rows)),
                   len(set(rows) - wanted)))
    if mode == "full":
        mismatched = sum(1 for k in wanted & set(rows)
                         if rows[k][0] != committed[k][0])
        checks.expect(mismatched == 0,
                      "%d of %d full-replay rows differ from "
                      "mosaic_dataset.csv" % (mismatched, len(wanted)))
    else:
        bad = [k for k, (line, row) in rows.items()
               if len(line.split(",")) != len(expected_header.split(","))
               or not float(row["est_err"]) >= 0]
        checks.expect(not bad, "%d sampled rows lack a valid est_err" %
                      len(bad))
    return {k: row for k, (line, row) in rows.items()}


def campaign_metrics(mode, seconds, checks, context):
    header, committed = load_committed()
    wanted = campaign_keys(committed)
    runs = []
    for i in range(max(1, int(seconds // CAMPAIGN_SECONDS))):
        runs.append(run_campaign(mode, i))
        check_campaign_run(runs[-1], checks, len(wanted))
    checks.expect(all(r["csv"] == runs[0]["csv"] for r in runs),
                  "repeated campaigns wrote different CSVs")
    rows = check_campaign_csv(mode, runs[0]["csv"], header, committed,
                              checks)
    reference = {k: float(committed[k][1]["runtime"]) for k in wanted}
    predictions = runs[0]["predictions"]
    fitted = {k for k in reference if k[2] != HELD_OUT_LAYOUT}
    checks.expect(set(predictions) == fitted,
                  "Mosmodel predicted %d of %d cells" %
                  (len(set(predictions) & fitted), len(fitted)))
    # Full replay writes no est_err column: its R is exact, bound 0.
    reported = {k: float(r["runtime"]) for k, r in rows.items()}
    bounds = {k: float(r.get("est_err", 0)) for k, r in rows.items()}
    estimates, truth = restrict(reported, reference)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "cells_per_s": sum(r["cells"] for r in runs) /
        sum(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in runs),
        # No prediction before the campaign and its fits have finished.
        "prediction_wait_ms": statistics.median(
            1e3 * (r["wall_s"] + r["fit_s"]) for r in runs),
        "mosmodel_max_err_pct": measure.max_error_pct(
            *restrict(predictions, reference)),
        "est_err_coverage_pct": measure.coverage_pct(
            estimates, {k: bounds[k] for k in estimates}, truth),
    }
    if mode == "sampled":
        metrics["sampling.r_err_max_pct"] = measure.max_error_pct(
            estimates, truth)
    context.update(threads=JOBS, connections=0, campaigns=len(runs))
    attempted = sum(r["cells"] + r["fits"] for r in runs)
    failed = sum(r["cell_failures"] + r["fit_failures"] for r in runs)
    return metrics, attempted, failed


def cross_check_cells(cells_path, csv_rows, mode, checks):
    """The traced run's per-cell RunResults against the untraced
    campaign's CSV rows: every counter (and est_err) equal."""
    cells = {key_of(r): r for r in read_csv(cells_path)}
    checks.expect(set(cells) == set(csv_rows),
                  "traced run covers %d cells, the campaign %d" %
                  (len(cells), len(csv_rows)))
    differing = 0
    for key in set(cells) & set(csv_rows):
        cell, row = cells[key], csv_rows[key]
        same = all(int(row[c]) == int(cell[f]) for c, f in COUNTERS.items())
        if mode == "sampled":
            same = same and row["est_err"] == cell["est_err"]
        differing += not same
    checks.expect(differing == 0, "%d traced cells differ from the "
                  "campaign's CSV rows" % differing)
    return list(cells.values())


def simulated_metrics(cells):
    total = {f: sum(int(c[f]) for c in cells) for f in COUNTERS.values()}
    misses = total["tlbMisses"]
    return {
        "vm.l1_tlb_hit_pct": 100 * total["l1TlbHits"] / total["memoryRefs"],
        "vm.l2_tlb_hit_pct": 100 * total["tlbHitsL2"] /
        (total["tlbHitsL2"] + misses),
        "vm.walks_per_krecord": 1000 * misses / total["memoryRefs"],
        "vm.walk_cycles_per_walk": total["walkCycles"] / misses,
        "vm.queue_cycles_per_walk": total["walkerQueueCycles"] / misses,
        "memhier.prog_dram_pct": 100 * total["progDramLoads"] /
        total["progL1dLoads"],
        "memhier.walk_dram_pct": 100 * total["walkDramLoads"] /
        total["walkL1dLoads"],
    }


def fit_metrics(spans, fits_path):
    fits = spans_named(spans, "models.fit")
    rows = read_csv(fits_path)
    return {
        "models.fit_s": sum(s["self"] for s in fits) / 1e9,
        "models.fit_ms": statistics.median(s["self"] for s in fits) / 1e6,
        "stats.lasso_fits": sum(int(r["lasso_fits"]) for r in rows),
        "stats.lasso_iterations": sum(int(r["lasso_iterations"])
                                      for r in rows),
    }


def replay_metrics(spans, cells, span_name):
    """Host ns per replayed record of System::run or System::runSampled
    (whichever @p span_name times), overall, by layout class and by
    workload, with the share of the trace replayed and the share of the
    replayed records that are measured rather than warmup. A span's id
    is the index of its cell row."""
    def layout_class(layout):
        return {"grow-0": "all4k", "grow-8": "all2m",
                "all-1GB": "all1g"}.get(layout, "mosaic")

    by_index = {int(c["index"]): c for c in cells}

    def chosen(test):
        return lambda span: (span["id"] in by_index and
                             test(by_index[span["id"]]))

    prefix = "cpu.replay_ns_per_record"
    out = {prefix: per_work_ns(spans, span_name)}
    for cls in ("all4k", "all2m", "mosaic", "all1g"):
        out[prefix + "." + cls] = per_work_ns(
            spans, span_name,
            chosen(lambda c, cls=cls: layout_class(c["layout"]) == cls))
    for workload in sorted({c["workload"] for c in cells}):
        out[prefix + "." + workload.replace("/", "-")] = per_work_ns(
            spans, span_name,
            chosen(lambda c, w=workload: c["workload"] == w))
    replayed = sum(int(c["recordsReplayed"]) for c in cells)
    out["sampling.replay_fraction_pct"] = 100 * replayed / sum(
        int(c["traceRecords"]) for c in cells)
    out["sampling.measured_pct"] = 100 * (1 - sum(
        int(c["warmupRecords"]) for c in cells) / replayed)
    return out


def batch_ns(spans, name):
    """Self ns per call of a batch timed in one span."""
    span = spans_named(spans, name)[0]
    return span["self"] / span["work"]


def cell_layer_metrics(spans, cells, span_name):
    """What every driveCells() run reports: set-up and machine build
    time, replay speed, the simulated TLB and cache behaviour, and how
    busy the worker lanes kept."""
    cell_phase = spans_named(spans, "experiments.cells")[0]
    metrics = {
        "workloads.trace_gen_s":
            total_self_ns(spans, "workloads.generate_trace") / 1e9,
        "layouts.build_ms": total_self_ns(spans, "layouts.build") / 1e6,
        "cpu.machine_build_ms": statistics.median(
            s["self"] for s in spans_named(spans, "cpu.machine_build")) / 1e6,
        "experiments.worker_busy_pct": 100 * sum(
            s["end"] - s["begin"]
            for s in spans_named(spans, "experiments.cell")) /
        (JOBS * (cell_phase["end"] - cell_phase["begin"])),
        "models.predict_ns": batch_ns(spans, "models.predict"),
    }
    metrics.update(simulated_metrics(cells))
    metrics.update(replay_metrics(spans, cells, span_name))
    return metrics


def campaign_layer_metrics(mode, checks, context):
    header, committed = load_committed()
    untraced = run_campaign(mode, "untraced")
    check_campaign_run(untraced, checks, len(campaign_keys(committed)))
    rows = check_campaign_csv(mode, untraced["csv"], header, committed,
                              checks)
    untraced_wall = untraced["wall_s"] + untraced["fit_s"]
    paths = {n: work("traced-%s.%s" % (mode, n))
             for n in ("cells", "spans", "fits", "predictions")}
    traced, _ = run_child(
        [DRIVER, "cells", "--mode", mode, "--jobs", JOBS] + CAMPAIGN_GRID +
        [a for n, p in paths.items() for a in ("--" + n, p)])
    checks.expect(traced["cell_failures"] == 0 and
                  traced["prepare_failures"] == 0 and
                  traced["fit_failures"] == 0, "traced run failed")
    cells = cross_check_cells(paths["cells"], rows, mode, checks)
    checks.expect(read_predictions(paths["predictions"]) ==
                  untraced["predictions"],
                  "traced fits predict differently from the campaign's")
    spans = read_spans(paths["spans"])
    metrics = cell_layer_metrics(
        spans, cells, "cpu.replay" if mode == "full" else "sampling.replay")
    metrics["trace_overhead_pct"] = 100 * (traced["wall_s"] /
                                           untraced_wall - 1)
    metrics.update(fit_metrics(spans, paths["fits"]))
    if mode == "sampled":
        metrics.update({
            "trace.signature_ms":
                total_self_ns(spans, "trace.signatures") / 1e6,
            "sampling.plan_ms": total_self_ns(spans, "sampling.plan") / 1e6,
            "sampling.extrapolate_us": statistics.median(
                s["self"] for s in
                spans_named(spans, "sampling.extrapolate")) / 1e3,
            "sampling.est_err_median_pct": 100 * statistics.median(
                float(c["est_err"]) for c in cells),
        })
    context.update(threads=JOBS, connections=0,
                   self_time=self_time_table(spans))
    attempted = (untraced["cells"] + untraced["fits"] + traced["cells"] +
                 traced["fits"])
    failed = (untraced["cell_failures"] + untraced["fit_failures"] +
              traced["cell_failures"] + traced["fit_failures"])
    return metrics, attempted, failed


# --------------------------------------------------------------------
# Serve workload


def serve_inputs(seed):
    """Write the daemon's dataset (the committed CSV minus COLD_PAIRS)
    and the client's queries in the seed's order. Returns both paths,
    the queries as (phase, request, key, by_layout) and the committed
    rows the answers are checked against."""
    header, committed = load_committed()
    resident = {}
    lines = [header]
    for key, (line, row) in committed.items():
        if key[:2] not in COLD_PAIRS:
            resident.setdefault(key[:2], []).append((key, row))
            lines.append(line)
    dataset_path = work("serve-dataset.csv")
    with open(dataset_path, "w") as f:
        f.write("\n".join(lines) + "\n")

    rng = random.Random(seed)
    queries = []

    def by_layout(phase, key):
        queries.append((phase, "PREDICT %s %s layout=%s" % key, key, True))

    pairs = sorted(resident)
    rng.shuffle(pairs)
    for pair in pairs:
        by_layout("first", rng.choice(resident[pair])[0])
    # Every resident row once, the two query forms alternating.
    warm = [entry for pair in sorted(resident) for entry in resident[pair]]
    rng.shuffle(warm)
    for i, (key, row) in enumerate(warm):
        if i % 2 == 0:
            by_layout("warm", key)
        else:
            queries.append(("warm", "PREDICT %s %s h=%s m=%s c=%s" % (
                key[0], key[1], row["h"], row["m"], row["c"]), key, False))
    cold_layouts = {pair: sorted(k for k in committed if k[:2] == pair)
                    for pair in COLD_PAIRS}
    for pair in COLD_PAIRS:
        by_layout("cold", rng.choice(cold_layouts[pair]))
    for pair in COLD_PAIRS:
        for key in cold_layouts[pair]:
            by_layout("verify", key)
    queries_path = work("serve-queries.txt")
    with open(queries_path, "w") as f:
        f.write("".join("%s\t%s\n" % (q[0], q[1]) for q in queries))
    return dataset_path, queries_path, queries, committed


def run_serve(inputs, seconds, sessions, traced, tag):
    dataset_path, queries_path, queries, committed = inputs
    paths = {n: work("serve-%s.%s" % (tag, n))
             for n in ("rtt", "answers", "log")}
    if traced:
        paths["spans"] = work("serve-%s.spans" % tag)
    # A relative socket path keeps sun_path short wherever the checkout is.
    socket_path = os.path.relpath(work("serve-%s.sock" % tag), ROOT)
    summary, _ = run_child(
        [DRIVER, "serve", "--serve-bin", SERVE_BIN, "--dataset",
         dataset_path, "--socket", socket_path, "--queries", queries_path,
         "--warm-seconds", seconds * SERVE_WARM_SHARE, "--sessions",
         sessions] + [a for n, p in paths.items() for a in ("--" + n, p)])
    with open(paths["rtt"]) as f:
        summary["rtt_ns"] = [float(v) for v in f.read().split()]
    summary["answers"] = read_csv_tab(paths["answers"])
    summary["spans"] = read_spans(paths["spans"]) if traced else None
    summary["queries"] = queries
    summary["committed"] = committed
    return summary


def read_csv_tab(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f, delimiter="\t"))


def answer_fields(answer):
    """The key=value fields of an "ok ..." answer."""
    return dict(f.split("=", 1) for f in answer["answer"].split()[1:]
                if "=" in f)


def check_serve_run(run, checks):
    """Every answer ok and from the expected path; every layout= answer's
    measured_cycles equal to the committed runtime, warm or cold; every
    query answered."""
    checks.expect(run["errors"] == 0, "%d serve queries failed" %
                  run["errors"])
    checks.expect(run["mismatches"] == 0, "%d serve answers changed on "
                  "repetition" % run["mismatches"])
    checks.expect(all(code == 0 for code in run["exit_codes"]),
                  "mosaic_serve exited with %s" % run["exit_codes"])
    checks.expect(run["warm_queries"] > 0, "no warm queries completed")
    queries, committed = run["queries"], run["committed"]
    wrong = 0
    for answer in run["answers"]:
        phase, request, key, by_layout = queries[int(answer["query"])]
        fields = answer_fields(answer)
        expected_source = "cold" if phase == "cold" else "warm"
        ok = (answer["answer"].startswith("ok ") and
              fields.get("source") == expected_source)
        if by_layout:
            ok = ok and ("measured_cycles" in fields and
                         float(fields["measured_cycles"]) ==
                         float(committed[key][1]["runtime"]))
        if not ok:
            print("unexpected answer to %r: %r" % (request, answer["answer"]),
                  file=sys.stderr)
        wrong += not ok
    checks.expect(wrong == 0, "%d serve answers were wrong" % wrong)
    answered = {int(a["query"]) for a in run["answers"]}
    unanswered = len(queries) - len(answered & set(range(len(queries))))
    checks.expect(unanswered == 0, "%d queries got no answer" % unanswered)
    return wrong


def serve_accuracy(run):
    """Eq. 1 over every answer's predicted_cycles (the layouts the fits
    saw, as on the campaigns), and the share of layout= answers whose
    measured_cycles lies within its bound of the committed full replay:
    the daemon serves full-replay rows, so the bound is 0. Both against
    the committed runtime; each query's first answer counts once."""
    queries, committed = run["queries"], run["committed"]
    predicted, measured, truth = {}, {}, {}
    for answer in run["answers"]:
        index = int(answer["query"])
        key = queries[index][2]
        fields = answer_fields(answer)
        truth[index] = float(committed[key][1]["runtime"])
        if "predicted_cycles" in fields and key[2] != HELD_OUT_LAYOUT:
            predicted[index] = float(fields["predicted_cycles"])
        if "measured_cycles" in fields:
            measured[index] = float(fields["measured_cycles"])
    return (measure.max_error_pct(predicted,
                                  {i: truth[i] for i in predicted}),
            measure.coverage_pct(measured, {i: 0.0 for i in measured},
                                 {i: truth[i] for i in measured}))


def serve_metrics(seed, seconds, checks, context):
    run = run_serve(serve_inputs(seed), seconds, SERVE_SETUPS, False,
                    "untraced")
    wrong = check_serve_run(run, checks)
    p50, _, count = measure.percentile(run["rtt_ns"], 50)
    p99, beyond, _ = measure.percentile(run["rtt_ns"], 99)
    context.update(threads=2, connections=1, daemon_starts=SERVE_SETUPS,
                   warm_samples=count, warm_samples_beyond_p99=beyond)
    # The cold fills replay every layout of the two missing pairs.
    cold_cells = sum(1 for k in run["committed"] if k[:2] in COLD_PAIRS)
    max_err, coverage = serve_accuracy(run)
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "cells_per_s": cold_cells * len(run["cold_s"]) / sum(run["cold_s"]),
        "peak_rss_mb": statistics.median(run["peak_rss_kb"]) / 1024,
        "prediction_wait_ms": p50 / 1e6,
        "mosmodel_max_err_pct": max_err,
        "est_err_coverage_pct": coverage,
        "serve.rtt_p99_us": p99 / 1e3,
        "serve.cold_s": statistics.median(run["cold_s"]),
    }
    return metrics, run["attempted"], run["errors"] + run["mismatches"] + wrong


def serve_layer_metrics(seed, seconds, checks, context):
    inputs = serve_inputs(seed)
    untraced = run_serve(inputs, seconds, 1, False, "untraced")
    traced = run_serve(inputs, seconds, 1, True, "traced")
    wrong = check_serve_run(untraced, checks) + check_serve_run(traced,
                                                                checks)
    dataset_path, queries_path, queries, committed = inputs
    paths = {n: work("serve-layers.%s" % n) for n in ("spans", "fits",
                                                       "cells")}
    layers, _ = run_child(
        [DRIVER, "serve-layers", "--dataset", dataset_path, "--queries",
         queries_path, "--jobs", JOBS, "--cold",
         ",".join("%s:%s" % p for p in COLD_PAIRS)] +
        [a for n, p in paths.items() for a in ("--" + n, p)])
    checks.expect(layers["failures"] == 0, "%d in-process layer calls "
                  "failed" % layers["failures"])
    cells = read_csv(paths["cells"])
    differing = sum(
        1 for c in cells
        if any(int(committed[key_of(c)][1][col]) != int(c[f])
               for col, f in COUNTERS.items()))
    checks.expect(len(cells) == 55 * len(COLD_PAIRS) and differing == 0,
                  "%d of %d cold-pair replays differ from the committed "
                  "dataset" % (differing, len(cells)))

    spans = traced["spans"]
    layer_spans = read_spans(paths["spans"])

    def requests_in(phase):
        phases = {k for k, s in spans.items() if s["name"] == phase}
        return [s for s in spans.values()
                if s["name"] == "serve.request" and s["parent"] in phases]

    warm = [s["end"] - s["begin"] for s in requests_in("serve.warm")]
    p50, _, count = measure.percentile(warm, 50)
    p99, beyond, _ = measure.percentile(warm, 99)
    cold = [s["end"] - s["begin"] for s in requests_in("serve.cold")]
    predict_warm_us = batch_ns(layer_spans, "serve.predict") / 1e3
    # The cold pairs' cells, replayed in process as the daemon's cold
    # fills replay them.
    metrics = cell_layer_metrics(layer_spans, cells, "cpu.replay")
    metrics.update({
        "serve.load_ms": total_self_ns(layer_spans, "serve.load") / 1e6,
        "serve.first_query_ms": measure.percentile(
            [s["end"] - s["begin"] for s in requests_in("serve.first")],
            50)[0] / 1e6,
        "serve.parse_ns": batch_ns(layer_spans, "serve.parse"),
        "serve.predict_warm_us": predict_warm_us,
        "serve.transport_us": p50 / 1e3 - predict_warm_us,
        "serve.rtt_p99_us": p99 / 1e3,
        "trace_overhead_pct": 100 * (traced["session_wall_s"] /
                                     untraced["session_wall_s"] - 1),
    })
    for (platform, workload), seconds_taken in zip(COLD_PAIRS, cold):
        name = "serve.cold_s.%s-%s" % (platform.lower(),
                                       workload.replace("/", "-"))
        metrics[name] = seconds_taken / 1e9
    metrics.update(fit_metrics(layer_spans, paths["fits"]))
    context.update(threads=2, connections=1, warm_samples=count,
                   warm_samples_beyond_p99=beyond,
                   self_time=self_time_table(layer_spans))
    attempted = untraced["attempted"] + traced["attempted"] + len(cells)
    failed = (untraced["errors"] + untraced["mismatches"] +
              traced["errors"] + traced["mismatches"] + wrong +
              layers["failures"])
    return metrics, attempted, failed


# --------------------------------------------------------------------


# Per workload: the untraced (--trace 0) and traced (--trace 1) runner,
# each called as runner(seed, seconds, checks, context).
WORKLOADS = {
    "campaign-full": (
        lambda seed, seconds, checks, ctx:
            campaign_metrics("full", seconds, checks, ctx),
        lambda seed, seconds, checks, ctx:
            campaign_layer_metrics("full", checks, ctx)),
    "campaign-sampled": (
        lambda seed, seconds, checks, ctx:
            campaign_metrics("sampled", seconds, checks, ctx),
        lambda seed, seconds, checks, ctx:
            campaign_layer_metrics("sampled", checks, ctx)),
    "serve": (serve_metrics, serve_layer_metrics),
}


def catalogue(workload, traced):
    """Units by name of the metrics every workload reports in this mode
    (BENCHMARK.json), and of this workload's own diagnostics, which go
    on the context line (metrics.json)."""
    mode = "per_layer" if traced else "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m["unit"] for m in json.load(f)[mode]}
    with open(os.path.join(HERE, "metrics.json")) as f:
        diagnostics = json.load(f)["diagnostics"][mode]
    return metrics, {name: spec["unit"] for name, spec in diagnostics.items()
                     if workload in spec["workloads"]}


def with_units(values, units):
    return {name: {"value": values[name], "unit": units[name]}
            for name in sorted(units)}


def parse_seed(text):
    """A seed as decimal or 0x-prefixed hexadecimal."""
    try:
        return int(text, 0)
    except ValueError:
        return int(text, 10)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic")
    args = parser.parse_args(argv)
    if args.self_test:
        return selftest.main(sys.stderr)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        # Every run first proves the arithmetic it reports with.
        if selftest.main(io.StringIO()) != 0:
            raise BenchError("arithmetic self-test failed; run "
                             "--self-test for details")
        build()
        units, diagnostic_units = catalogue(args.workload, args.trace == 1)
        checks = Checks()
        context = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "nproc": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0))}
        cpu_before = read_cpu_times()
        started = time.monotonic()
        values, attempted, failed = WORKLOADS[args.workload][args.trace](
            args.seed, args.seconds, checks, context)
        steal = measure.steal_pct(cpu_before, read_cpu_times())
        context.update(steal_pct=steal,
                       wall_s=time.monotonic() - started)
        if args.trace:
            values["host.steal_pct"] = steal
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if set(values) != set(units) | set(diagnostic_units):
        print("perfbench: %s reported %s, BENCHMARK.json and metrics.json "
              "list %s" % (args.workload, sorted(values),
                           sorted(set(units) | set(diagnostic_units))),
              file=sys.stderr)
        return 2
    correct = not checks.failures and failed == 0
    context["diagnostics"] = with_units(values, diagnostic_units)
    context["check_failures"] = checks.failures
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": with_units(values, units)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
