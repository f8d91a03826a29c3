#!/usr/bin/env python3
"""The repository benchmark: four user paths of wantraffic, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|smoke]

Builds perfbench/wan_perfbench against ../src on first use (into
.bench_build/), builds the workload's input from the seed (timed: setup_s),
then runs the job again and again, each time in a fresh process, for
--seconds. Every job's output is checked. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (closed loop: one caller, one job at a time; the par pool uses
every core of the machine, in one process):

    pcap_coarse     wantraffic_analyze pkt --ingest-format pcap --stream
                    --bin 1, 2 h capture at 7x LBL volume (ingest-bound;
                    runnable, but not in BENCHMARK.json: its times swing
                    with the host's memory-bandwidth contention by more
                    than the benchmark's bounds)
    pcap_fine       the same tool with --filtered --bin 0.001 on a 2 h
                    capture (filters, binning, variance-time, Hurst battery)
    monitor_replay  MonitorDaemon::run_replay at --speed 0, five protocol
                    engines plus the aggregate, 4 h capture
    conn_week       synthesize_conn_trace (LBL, 7 days), then
                    remove_periodic_streams, poisson_report and the
                    FTPDATA burst tail fit (the Fig. 2 path)

--trace 0 reports the end-to-end metrics:

    job_cpu_s       CPU seconds (user + system, every thread) of one job,
                    from opening the capture (or starting the synthesizer)
                    to the last report byte, median over the jobs
    peak_rss_mb     peak resident set of the process that ran the job
                    (it runs nothing else; set-up ran in another), median
    setup_s         wall time to build the inputs for the seed, median of
                    several set-ups

and prints the jobs' wall times and the throughput they imply (packets or
connections per wall second). The bounded time is CPU time because on a
shared virtual machine the wall time of a job that uses the par pool
swings with the time the host steals from its vCPUs (monitor_replay: 1.9
to 4.8 s wall for a steady 4.5 to 4.9 CPU s); the wall time is reported
as job.wall_s in the traced run, next to par.cpu_per_wall. Throughput is
not a bounded metric because the packet count of a fixed-length capture
varies by about 15% from seed to seed, while the job's work is set mostly
by the capture's length (bins, slides, the monitor's Whittle tables).

--trace 1 runs traced jobs between untraced ones and reports the
per-layer metrics. Each is defined on every workload:

    stage.input_s              producing the job's records: ingest
                               (open + next) on captures, synth.conn on
                               conn_week
    stage.input_ns_per_record  stage.input_s per record produced
    stage.analysis_s           stream.analyze_columns self time (pcap_*);
                               monitor.init + push + finish (monitor);
                               trace.periodic + core.poisson_report (conn)
    stage.report_s             vt_csv + hurst_report + render (pcap_*);
                               monitor.take + drift (monitor); core.render
                               + trace.bursts + stats.tail_fit (conn)
    setup.synth_s              synthesizer time inside set-up
    job.wall_s                 wall seconds of an untraced job, median
    par.cpu_per_wall           process CPU seconds per wall second, job
    tracing.overhead_s         traced minus untraced job time (medians)
    tracing.stage_sum_ratio    stage table total / traced job wall time

and prints a stage table with the finer per-module figures (ingest.*,
stream.*, selfsim.*, stats.*, monitor.*, synth.*, trace.*, core.*). Spans
(name, start, end, parent, run id) are kept in memory and written to
.bench_build/work/ at the end.

`failed` counts the jobs (and set-ups) whose output check failed, so
failed / attempted is the fail ratio.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wan_perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "wan_perfbench")
WORKLOADS = ("pcap_coarse", "pcap_fine", "monitor_replay", "conn_week")
CAPTURE = {"pcap_coarse", "pcap_fine", "monitor_replay"}
DEFAULT_SEED = 1
SETUPS = {"full": 5, "smoke": 1}
MIN_JOBS = 3
CAPTURE_FILE = "capture.pcap"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the workload binary; build output goes
    to stderr so stdout keeps only the benchmark's lines."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: repository sources (src/) not found "
                         "next to perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "wan_perfbench"],
                       stdout=sys.stderr, check=True)


def run_json(args, cwd=None):
    """Runs the workload binary; returns its JSON line."""
    out = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, check=True,
                         text=True, cwd=cwd).stdout
    return json.loads(out.strip().splitlines()[-1])


def provenance(seed, size):
    info = run_json(["info"])
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    # The checkout the benchmark runs in need not be a git repository, so
    # the sources it built are also named by their content.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_rev": rev, "source_sha256": h.hexdigest()[:16],
            "build_type": info["build_type"], "compiler": info["compiler"],
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "par_threads": info["par_threads"], "seed": seed, "size": size}


def load_pins(size, workload):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(size, {}).get(workload, {})


class Checks:
    """Counts attempts and failures; every failure is also printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"perfbench: CHECK FAILED ({what}): {p}")


def setup(workload, seed, size, rundir, checks, pins):
    runs = []
    for _ in range(SETUPS[size]):
        r = run_json(["setup", "--workload", workload, "--seed", str(seed),
                      "--size", size, "--out", CAPTURE_FILE], cwd=rundir)
        problems = []
        if runs and (r["input_digest"], r["records"]) != (
                runs[0]["input_digest"], runs[0]["records"]):
            problems.append("set-up is not deterministic for this seed")
        if seed == DEFAULT_SEED and pins.get("input") != r["input_digest"]:
            problems.append(f"input digest {r['input_digest']} != pinned "
                            f"{pins.get('input')}: the synthesizer or the "
                            f"encoder changed the benchmark's traffic")
        checks.record("setup", problems)
        runs.append(r)
    print(f"input {workload} seed {seed}: {runs[0]['records']} records, "
          f"digest {runs[0]['input_digest']}")
    return runs


def job(workload, seed, size, rundir, mode, expect):
    args = ["job", "--workload", workload, "--seed", str(seed), "--size",
            size, "--mode", mode, "--expect-records", str(expect["records"]),
            "--expect-input", expect["input_digest"]]
    if workload in CAPTURE:
        args += ["--input", CAPTURE_FILE]
    return run_json(args, cwd=rundir)


def check_job(j, reference, pins, seed, checks):
    """The job's own checks, determinism against the first job of its
    mode, and the pinned output digest at the default seed."""
    problems = [f"{name} failed" for name, ok in j["checks"].items() if not ok]
    ref = reference.setdefault(j["mode"], j)
    if j["output_digest"] != ref["output_digest"]:
        problems.append(f"{j['mode']} output digest {j['output_digest']} "
                        f"differs from an earlier job's "
                        f"{ref['output_digest']}")
    if "drift_digest" in j:
        first = reference.setdefault("drift", j)
        if (j["drift_digest"], j["reports"]) != (first["drift_digest"],
                                                 first["reports"]):
            problems.append("monitor drift lines or report count differ "
                            "between the daemon and the composed loop")
    if (seed == DEFAULT_SEED and j["mode"] == "e2e"
            and j["output_digest"] != pins.get("output")):
        problems.append(f"output digest {j['output_digest']} != pinned "
                        f"{pins.get('output')}")
    checks.record(f"job {j['mode']}", problems)


def span_table(spans):
    """Per span name: calls, total and self seconds (self = duration
    minus the time its child spans cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


def total(table, *names):
    return sum(table[n][1] for n in names if n in table)


def self_time(table, *names):
    return sum(table[n][2] for n in names if n in table)


def traced_layers(workload, j):
    """The per-module figures and the stage split of one traced job."""
    t = span_table(j["spans"])
    c = j["counts"]
    m = {}
    if workload in CAPTURE:
        m["ingest.open_s"] = total(t, "ingest.open")
        m["ingest.next_s"] = total(t, "ingest.next")
        m["ingest.chunks"] = c["ingest.chunks"]
        packets = c.get("ingest.packets_all_passes", j["records"])
        m["ingest.ns_per_pkt"] = 1e9 * m["ingest.next_s"] / packets
        m["ingest.ledger_errors"] = c["ingest.ledger_errors"]
        input_s = m["ingest.open_s"] + m["ingest.next_s"]
        input_records = packets
    if workload in ("pcap_coarse", "pcap_fine"):
        m["ingest.open_flows_max"] = c["ingest.open_flows_max"]
        m["ingest.hosts"] = c["ingest.hosts"]
        m["stream.self_s"] = self_time(t, "stream.analyze_columns")
        m["stream.keep_ratio"] = c["stream.kept"] / j["records"]
        m["stream.bins"] = c["stream.bins"]
        m["selfsim.hurst_report_s"] = total(t, "selfsim.hurst_report")
        m["stats.variance_time_s"] = j["extra_s"]["stats.variance_time"]
        analysis_s = m["stream.self_s"]
        report_s = total(t, "stream.vt_csv", "selfsim.hurst_report",
                         "selfsim.render")
    elif workload == "monitor_replay":
        pushes = sorted(e - s for n, s, e, _ in j["spans"]
                        if n == "monitor.push")
        m["monitor.push_s"] = sum(pushes)
        m["monitor.push_ms_p50"] = 1e3 * statistics.median(pushes)
        m["monitor.push_ms_p99"] = 1e3 * pushes[
            min(len(pushes) - 1, int(0.99 * len(pushes)))]
        m["monitor.push_ms_max"] = 1e3 * pushes[-1]
        m["monitor.push_count"] = len(pushes)
        m["monitor.finish_s"] = total(t, "monitor.finish")
        m["monitor.take_s"] = total(t, "monitor.take")
        m["monitor.drift_s"] = total(t, "monitor.drift")
        m["monitor.reports"] = c["monitor.reports"]
        m["monitor.fanout"] = c["monitor.engine_events"] / j["records"]
        analysis_s = total(t, "monitor.init", "monitor.push",
                           "monitor.finish")
        report_s = total(t, "monitor.take", "monitor.drift")
    else:
        m["synth.conn_s"] = total(t, "synth.conn")
        m["trace.periodic_s"] = total(t, "trace.periodic")
        m["core.poisson_report_s"] = total(t, "core.poisson_report")
        m["core.render_s"] = total(t, "core.render")
        m["trace.bursts_s"] = total(t, "trace.bursts")
        m["stats.tail_fit_s"] = total(t, "stats.tail_fit")
        m["core.verdict_rows"] = c["core.verdict_rows"]
        input_s = m["synth.conn_s"]
        input_records = j["records"]
        analysis_s = m["trace.periodic_s"] + m["core.poisson_report_s"]
        report_s = total(t, "core.render", "trace.bursts", "stats.tail_fit")
    stage_sum = sum(row[2] for row in t.values())
    m["stage.input_s"] = input_s
    m["stage.input_ns_per_record"] = 1e9 * input_s / input_records
    m["stage.analysis_s"] = analysis_s
    m["stage.report_s"] = report_s
    m["tracing.stage_sum_ratio"] = stage_sum / j["wall_s"]
    return m, t


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def trace_report(workload, jobs, setups):
    """Per-layer metrics (medians over traced jobs), the stage table of
    the median traced job, and the tracing overhead."""
    traced = [j for j in jobs if j["mode"] == "traced"]
    untraced_mode = "composed" if workload == "monitor_replay" else "e2e"
    untraced = [j for j in jobs if j["mode"] == untraced_mode]
    e2e = [j for j in jobs if j["mode"] == "e2e"]
    per_job = [traced_layers(workload, j) for j in traced]
    layers = {k: statistics.median(m[k] for m, _ in per_job)
              for k in per_job[0][0]}
    if workload in CAPTURE:
        layers["synth.pkt_s"] = median_of(setups, "synth_s")
        layers["ingest.encode_s"] = median_of(setups, "encode_s")
    layers["setup.synth_s"] = median_of(setups, "synth_s")
    layers["job.wall_s"] = median_of(e2e, "wall_s")
    layers["par.cpu_per_wall"] = statistics.median(
        j["cpu_s"] / j["wall_s"] for j in e2e)
    traced_wall = median_of(traced, "wall_s")
    untraced_wall = median_of(untraced, "wall_s")
    layers["tracing.overhead_s"] = traced_wall - untraced_wall
    if workload == "monitor_replay":
        # The daemon's report-JSON writer cannot be reached from outside:
        # what the daemon spends beyond the composed loop.
        layers["monitor.unattributed_s"] = layers["job.wall_s"] - untraced_wall

    # The stage table of the traced job whose wall time is the median.
    mid = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])[
        len(traced) // 2]
    job, table = traced[mid], per_job[mid][1]
    wall = job["wall_s"]
    print(f"stage table, {workload}: traced job {mid} of {len(traced)}, "
          f"wall {wall:.4f} s")
    print(f"  {'span':<24}{'calls':>7}{'total_s':>11}{'self_s':>11}"
          f"{'self%':>8}")
    for name, (calls, tot, slf) in sorted(table.items(),
                                          key=lambda kv: -kv[1][2]):
        print(f"  {name:<24}{calls:>7}{tot:>11.4f}{slf:>11.4f}"
              f"{100 * slf / wall:>7.1f}%")
    stage_sum = sum(row[2] for row in table.values())
    print(f"  {'(unspanned glue)':<24}{'':>7}{'':>11}"
          f"{wall - stage_sum:>11.4f}{100 * (wall - stage_sum) / wall:>7.1f}%")
    ok = abs(stage_sum / wall - 1.0) <= 0.05
    print(f"  stage table sums to {100 * stage_sum / wall:.1f}% of the job "
          f"wall time ({'within' if ok else 'OUTSIDE'} +-5%)")
    print(f"  tracing overhead: {layers['tracing.overhead_s']:+.4f} s "
          f"(traced median {traced_wall:.4f} s vs untraced "
          f"{untraced_wall:.4f} s)")
    print(f"per-layer figures, {workload} (medians of {len(traced)} traced "
          f"jobs):")
    for k in sorted(layers):
        print(f"  {k:<28}{layers[k]:.6g}")
    return layers


def write_spans(workload, seed, jobs):
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        for run_id, j in enumerate(jobs):
            for name, start, end, parent in j["spans"]:
                f.write(json.dumps({"run": run_id, "mode": j["mode"],
                                    "name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
    return path


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    a = p.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    prov = provenance(a.seed, a.size)
    print("provenance " + json.dumps(prov, sort_keys=True))
    pins = load_pins(a.size, a.workload)
    checks = Checks()
    # Jobs run inside a private directory and name the capture by a fixed
    # relative path: the path is part of the report (vt_csv's header), so
    # the output digests do not depend on where the checkout lives.
    rundir = os.path.join(WORK, f"{a.workload}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        setups = setup(a.workload, a.seed, a.size, rundir, checks, pins)
        cycle = ["e2e"]
        if a.trace:
            cycle = (["e2e", "composed", "traced"]
                     if a.workload == "monitor_replay" else ["e2e", "traced"])
        jobs, reference = [], {}
        start = time.monotonic()
        while (time.monotonic() - start < a.seconds
               or len(jobs) < MIN_JOBS * len(cycle)):
            for mode in cycle:
                j = job(a.workload, a.seed, a.size, rundir, mode, setups[0])
                check_job(j, reference, pins, a.seed, checks)
                jobs.append(j)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    e2e = [j for j in jobs if j["mode"] == "e2e"]
    print(f"output {a.workload} seed {a.seed}: digest "
          f"{e2e[0]['output_digest']} over {len(jobs)} jobs")
    print("e2e job wall_s " + json.dumps([j["wall_s"] for j in e2e]))
    print("e2e job cpu_s " + json.dumps([j["cpu_s"] for j in e2e]))
    unit = "packets" if a.workload in CAPTURE else "connections"
    print(f"throughput {a.workload}: "
          f"{statistics.median(j['records'] / j['wall_s'] for j in e2e):.0f} "
          f"{unit}/s (median over {len(e2e)} jobs of {e2e[0]['records']})")
    if a.trace:
        layers = trace_report(a.workload, jobs, setups)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        log(f"perfbench: spans written to "
            f"{write_spans(a.workload, a.seed, jobs)}")
    else:
        values = {
            "job_cpu_s": median_of(e2e, "cpu_s"),
            "peak_rss_mb": median_of(e2e, "rss_mb"),
            "setup_s": median_of(setups, "setup_s"),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
