#!/usr/bin/env python3
"""quadder benchmark: four CLI workloads, end-to-end and per-layer metrics.

One workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload sweep --seed 1 --seconds 18 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a run with wrappers installed.  With no
``--workload`` every workload runs twice, untraced and traced, each in its
own process, and the full report (all metrics, tracing overhead, largest
self-time layers, provenance) is printed and optionally written to ``--out``.

The load is a closed loop with one client: one process, no threads, one job
after another.  A workload is a fixed list of jobs made from the seed.  A
run repeats that list for a fixed number of passes, each pass in a seeded
order.  The number of passes comes from ``--seconds`` and the pass times
measured at the seed commit, so two commits compared at the same
``--seconds`` do the same work.

Every time is the process's CPU time (``time.process_time``), corrected
for the host's speed.  On a shared 2-vCPU virtual machine the same pure-Python
work takes either about 15 or about 21 ms per 200k-step loop, switching
between the two in bursts well under a second long, and the mix drifts: the
mean over one twenty-second stretch varied by 1.3x from the next.  No
statistic of raw times inside one run removes that drift.  So a run also
times fixed reference code that does not call quadder, of the kind that
dominates the workload's jobs, spread over the run between jobs (never
inside a timed job).  It multiplies each job's time by the reference's
nominal time over the mean of the reference samples taken just before and
just after the job (set-up and per-layer times by the run's mean): times
are CPU seconds on a host where the reference takes its nominal time.  A
change to quadder moves the job times and not the reference, so it shows
in full.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy
    import quadder
    import tracing
    import workloads
except ImportError as exc:
    print(f"error: cannot import the program under test from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not Path(quadder.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"error: quadder was imported from {quadder.__file__}, not from {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

# Seconds one pass takes at the seed commit (2-core shared machine,
# Python 3.11, numpy 2.4), scaled to the nominal host speed as every time
# below is; a run does round(seconds / this) passes, at least one.
NOMINAL_PASS_S = {"verify_pass": 4.9, "verify_faulty": 5.0, "sweep": 8.1, "document": 3.3}
# On a slower host, a run starts no further pass once wall time passes
# this many times --seconds.
WALL_LIMIT = 1.25
# setup_s is the median over this many set-ups: the run's own and fresh
# processes that repeat it.
SETUP_SAMPLES = 3
# A reference sample is taken before the first job and after every job
# that ends at least REF_EVERY_S CPU seconds after the last sample, so the
# samples spread evenly over the run.
REF_EVERY_S = 0.1
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def python_reference() -> None:
    """Build 2000 small dicts and round-trip them through JSON."""
    doc = {"nodes": [{"id": i, "kind": "xor", "inputs": [i, i + 1]} for i in range(2000)]}
    json.loads(json.dumps(doc))


_REF_ROW = numpy.random.default_rng(0).integers(0, 4, 20000, dtype=numpy.uint8)
_REF_LUT = numpy.array([1, 2, 3, 0], dtype=numpy.uint8)


def numpy_reference() -> None:
    """200 table look-ups and XORs on rows of 20000 uint8 digits, all kept."""
    rows = [_REF_ROW, _REF_ROW]
    for _ in range(200):
        rows.append(_REF_LUT[rows[-1]] ^ rows[-2])


# Each workload's reference is code of the kind that dominates its jobs:
# numpy batch evaluation on verify_pass, building Python objects and JSON
# on the others.  Each takes about its nominal CPU seconds on the 2-vCPU
# host named above.
REFERENCES = {"python": (python_reference, 0.009), "numpy": (numpy_reference, 0.0175)}
REFERENCE_OF = {"verify_pass": "numpy", "verify_faulty": "python", "sweep": "python",
                "document": "python"}


def reference_sample(workload: str) -> float:
    """CPU seconds of one run of the workload's reference code, with the
    cyclic collector off so that the program's live objects do not add
    to it."""
    code, _ = REFERENCES[REFERENCE_OF[workload]]
    gc.disable()
    try:
        start = time.process_time()
        code()
        return time.process_time() - start
    finally:
        gc.enable()


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    jobs beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100.0, ordered[-1]


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=base) as path:
            yield Path(path)
    finally:
        with contextlib.suppress(OSError):   # another run still uses it
            base.rmdir()


def set_up(name: str, seed: int, wd: Path, tracer=None):
    """Everything a run does before its first timed job: the checker
    self-check, the workload's inputs, the tracer and a probe call through
    every layer.  Returns the workload and the self-check's failures."""
    failures = workloads.selfcheck()
    load = workloads.WORKLOADS[name](seed, wd)
    if tracer:
        tracer.install()
    workloads.probe(wd)
    return load, failures


def setup_only(args) -> int:
    with workdir() as wd:
        set_up(args.workload, args.seed, wd)
        print(f"ready {time.process_time()!r}", flush=True)
    return 0


def more_setup_samples(args) -> list[float]:
    """CPU seconds from process start to ready-for-the-first-job, in fresh
    processes that repeat this run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120)
        word, _, seconds = proc.stdout.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        samples.append(float(seconds))
    return samples


def provenance(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "quadder": quadder.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "seed": args.seed, "seconds": args.seconds,
            "setup_samples": SETUP_SAMPLES}


def run_workload(args) -> dict:
    passes = passes_for(args.workload, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    times, windows, run_keys, errors = [], [], [], []
    samples = {}   # job key -> (seconds, reference samples before it), one per pass
    work = {}      # job key -> work units of one run of the job
    refs = []      # reference-loop samples, seconds
    with workdir() as wd:
        try:
            load, selfcheck_failures = set_up(args.workload, args.seed, wd, tracer)
            if tracer:
                unreached = [n for n, (_, calls, _) in tracer.layer_totals().items() if not calls]
            setup_s = time.process_time()
            rng = random.Random(f"{args.workload}:{args.seed}:order")
            wall_start = time.monotonic()
            refs.append(reference_sample(args.workload))
            last_ref = time.process_time()
            passes_run = 0
            while passes_run < passes and (
                    not passes_run or time.monotonic() - wall_start <= WALL_LIMIT * args.seconds):
                passes_run += 1
                order = list(load.jobs)
                rng.shuffle(order)
                for job in order:
                    # Each job starts with no garbage pending, as a fresh CLI
                    # process would, so when the collector runs inside a job
                    # does not depend on the jobs before it.
                    gc.collect()
                    if tracer:
                        tracer.job = len(times)
                    start = time.process_time()
                    try:
                        result = job.run()
                    except Exception as exc:  # a job that raises counts as an error
                        result = exc
                    end = time.process_time()
                    if tracer:
                        tracer.job = None
                    times.append(end - start)
                    windows.append((start, end))
                    run_keys.append(job.key)
                    samples.setdefault(job.key, []).append((end - start, len(refs)))
                    try:
                        if isinstance(result, Exception):
                            raise result
                        work[job.key] = job.check(result)
                    except Exception as exc:  # wrong answer or unparsable output
                        errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
                    result = None
                    if end - last_ref >= REF_EVERY_S:
                        refs.append(reference_sample(args.workload))
                        last_ref = time.process_time()
        finally:
            if tracer:
                tracer.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Every reported time is scaled to a host on which the reference takes
    # its nominal time.  A job's time is scaled by the reference samples
    # taken just before and just after it; the set-ups, which run next to
    # the timed jobs, and the per-layer times by the run's mean.
    nominal_s = REFERENCES[REFERENCE_OF[args.workload]][1]
    scale = nominal_s / statistics.fmean(refs)
    setup = [setup_s] if args.trace else [setup_s, *more_setup_samples(args)]
    setup = [s * scale for s in setup]

    def scaled(seconds, refs_before):
        return seconds * nominal_s / statistics.fmean(refs[refs_before - 1:refs_before + 1])

    # Every pass runs the same jobs on the same inputs; a job's time is its
    # median over the passes.
    job_s = {key: statistics.median(scaled(*sample) for sample in ts)
             for key, ts in samples.items()}
    q, tail_s = tail([job_s[key] for key in run_keys])
    pass_s = sum(job_s.values())
    pass_work = sum(work.get(key, 0) for key in job_s)
    detail = {
        "workload": args.workload, "trace": args.trace, "passes": passes_run,
        "jobs": len(times), "job_types": len(job_s),
        "jobs_failed": len(errors), "errors": errors[:20],
        "selfcheck_failures": selfcheck_failures,
        "setup_samples_s": setup,
        "reference": {"kind": REFERENCE_OF[args.workload], "samples": len(refs),
                      "mean_s": statistics.fmean(refs), "nominal_s": nominal_s, "scale": scale},
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "job_s_p50": statistics.median(job_s.values()),
            "job_s_tail": tail_s,
            "work_per_s": pass_work / pass_s,
        },
        "tail_percentile": q,
        "error_rate": len(errors) / len(times),
        "throughput": {"name": load.throughput, "unit": f"{load.work_unit}/s",
                       "work_per_pass": pass_work, "value": pass_work / pass_s},
        "job_s_sum": sum(times) * scale,
        "pass_s": pass_s,
        "job_s": job_s,
        "provenance": {**provenance(args), "passes": passes, "inputs": load.provenance()},
    }
    if tracer:
        detail["layers"] = trace_summary(tracer, times, windows, unreached, scale)
    return detail


def check_accounting(spans, times, windows) -> tuple[float, list[str]]:
    """The untraced residue of the timed jobs, and every way the spans
    break the accounting: each span must lie inside its parent span, or
    inside its job's timed window when it has no parent, and belong to its
    parent's job."""
    failures = []
    top = [0.0] * len(times)
    for sid, parent, layer, job, start, end in spans:
        if job is None:
            continue
        if parent is None:
            lo, hi = windows[job]
            top[job] += end - start
        else:
            _, _, parent_layer, parent_job, lo, hi = spans[parent]
            if parent_job != job:
                failures.append(f"span {sid} ({layer}) is in job {job}, its parent in {parent_job}")
        if not lo <= start <= end <= hi:
            failures.append(f"span {sid} ({layer}) lies outside its "
                            f"{'job' if parent is None else parent_layer + ' span'}")
    residue = [t - s for t, s in zip(times, top)]
    failures += [f"job {j}: top-level spans add up to more than its time"
                 for j, r in enumerate(residue) if r < 0]
    return sum(residue), failures


def trace_summary(tracer, times, windows, unreached, scale) -> dict:
    """Per-layer metrics plus the accounting: over the timed jobs, layer
    self times plus the untraced residue add up to the job time.  The
    accounting is checked in raw CPU seconds; the metrics' times are
    multiplied by the run's host-speed ``scale``, as the job times are."""
    in_jobs = tracer.layer_totals(set(range(len(times))))
    everything = tracer.layer_totals()
    residue, failures = check_accounting(tracer.spans, times, windows)
    self_sum = sum(rec[0] for rec in in_jobs.values())
    if abs(self_sum + residue - sum(times)) > 1e-9 * len(times):
        failures.append(f"layer self times {self_sum} + residue {residue} != job time {sum(times)}")
    c = tracer.counts
    metrics = {}
    for name, (self_s, n, _) in everything.items():
        metrics[f"{name}.self_s"] = (self_s * scale, "s")
        metrics[f"{name}.calls"] = (n, "count")
    # Counters and ratios, each kept only when the layers it is read at are
    # installed: a missing layer is reported as absent, never as zero.
    derived = (
        ("builders.nodes", ("builders.build",), lambda: c["builders.nodes"], "count"),
        ("builders.intern_hit_ratio", ("builders.build", "builders.add_calls"),
         lambda: 1 - c["builders.nodes"] / c["builders.add_calls"], "ratio"),
        ("netlist.gate_evals", ("netlist.add_batch",), lambda: c["netlist.gate_evals"], "count"),
        ("netlist.gate_evals_per_s", ("netlist.add_batch",),
         lambda: c["netlist.gate_evals"] / (everything["netlist.add_batch"][2] * scale), "1/s"),
        ("netlist.depth_passes_per_netlist", ("netlist.node_depths", "builders.build"),
         lambda: everything["netlist.node_depths"][1] / everything["builders.build"][1], "ratio"),
        ("netlist.json_bytes", ("netlist.to_json", "netlist.from_json"),
         lambda: c["netlist.json_bytes"], "B"),
        ("netlist.lowered_nodes", ("netlist.lower_fanin2",),
         lambda: c["netlist.lowered_nodes"], "count"),
        ("verify.cases", ("verify.check",), lambda: c["verify.cases"], "count"),
        ("verify.mismatch_records", ("verify.collect_mismatches",),
         lambda: c["verify.mismatch_records"], "count"),
        ("verify.report_bytes", ("verify.report_json",), lambda: c["verify.report_bytes"], "B"),
        ("analysis.rows", ("analysis.compare",), lambda: c["analysis.rows"], "count"),
    )
    for name, needs, value, unit in derived:
        if all(layer in tracer.installed for layer in needs):
            metrics[name] = (value(), unit)
    metrics["trace.residue_s"] = (residue * scale, "s")
    metrics["trace.job_s_sum"] = (sum(times) * scale, "s")
    ranked = sorted(in_jobs.items(), key=lambda kv: -kv[1][0])
    families = sorted(((fam, sum(in_jobs[n][0] for n in names if n in in_jobs))
                       for fam, names in tracing.FAMILIES.items()), key=lambda kv: -kv[1])
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": tracer.absent,
        "unreached": unreached,
        "accounting": {"job_s_sum": sum(times), "layer_self_s_sum": self_sum,
                       "residue_s": residue, "failures": failures[:20]},
        "largest_self": [[name, rec[0], rec[0] / sum(times)] for name, rec in ranked[:4]],
        "largest_family": [[fam, self_s, self_s / sum(times)] for fam, self_s in families[:3]],
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark_failures(detail: dict) -> list[str]:
    """Failures of the benchmark's own checks, as against the program's."""
    return detail["selfcheck_failures"] + detail.get("layers", {}).get(
        "accounting", {}).get("failures", [])


def result_line(detail: dict, bench: dict) -> dict:
    if detail["trace"]:
        have = detail["layers"]["metrics"]
        wanted = bench["per_layer"]
    else:
        have = {k: {"value": v} for k, v in detail["end_to_end"].items()}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted if m["name"] in have}
    return {"correct": not detail["jobs_failed"] and not benchmark_failures(detail),
            "attempted": detail["jobs"], "failed": detail["jobs_failed"], "metrics": metrics}


def print_detail(d: dict) -> None:
    e = d["end_to_end"]
    t = d["throughput"]
    print(f"workload {d['workload']}  trace={d['trace']}  passes={d['passes']}  jobs={d['jobs']}"
          f"  job time {d['job_s_sum']:.3f} s")
    r = d["reference"]
    print(f"  times scaled by {r['scale']:.4f}: {r['kind']} reference {1000 * r['mean_s']:.3f} ms "
          f"(mean of {r['samples']}), nominal {1000 * r['nominal_s']:.3f} ms")
    print(f"  setup_s            {e['setup_s']:.4f} s  (median of {len(d['setup_samples_s'])})")
    print(f"  peak_rss_mb        {e['peak_rss_mb']:.1f} MB")
    print(f"  job_s_p50          {e['job_s_p50']:.6f} s  (median of {d['job_types']} "
          f"job types, each its median over {d['passes']} passes)")
    print(f"  job_s_tail         {e['job_s_tail']:.6f} s  "
          f"(p{d['tail_percentile']:g} of {d['jobs']} jobs, each at its job type's median)")
    print(f"  error_rate         {d['error_rate']:.4f}  ({d['jobs_failed']}/{d['jobs']})")
    print(f"  {t['name']:<18} {t['value']:.6g} {t['unit']}  (work_per_s)")
    for err in d["errors"]:
        print(f"  error: {err}")
    for failure in d["selfcheck_failures"]:
        print(f"  checker self-check failed: {failure}")
    if "layers" in d:
        tr = d["layers"]
        a = tr["accounting"]
        print(f"  trace (raw CPU s): job time {a['job_s_sum']:.4f} s = layer self "
              f"{a['layer_self_s_sum']:.4f} + untraced residue {a['residue_s']:.4f}")
        for failure in a["failures"]:
            print(f"  trace accounting failed: {failure}")
        for name, self_s, share in tr["largest_self"]:
            print(f"    layer  {name:<28} {self_s:.4f} raw s  {100 * share:5.1f}% of job time")
        for name, self_s, share in tr["largest_family"]:
            print(f"    family {name:<28} {self_s:.4f} raw s  {100 * share:5.1f}% of job time")
        for name in tr["absent"]:
            print(f"  absent layer: {name}")
        for name in tr["unreached"]:
            print(f"  wrapper not reached through the public surface: {name}")


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    report = {"provenance": provenance(args), "workloads": {}}
    ok = True
    with workdir() as wd:
        for name in workloads.WORKLOADS:
            runs = {}
            for trace in (0, 1):
                path = wd / f"{name}-{trace}.json"
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace), "--detail", str(path)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    ok = False
                if path.exists():
                    runs[trace] = json.loads(path.read_text(encoding="utf-8"))
            if len(runs) < 2:
                continue
            ok &= all(not r["jobs_failed"] and not benchmark_failures(r) for r in runs.values())
            # Both runs do the same passes over the same jobs; compare the
            # sums of the jobs' times.
            overhead = runs[1]["pass_s"] / runs[0]["pass_s"] - 1
            report["workloads"][name] = {"untraced": runs[0], "traced": runs[1],
                                         "tracing_overhead": overhead}
    print("\nsummary (untraced end-to-end metrics; largest layer from the traced run)")
    for name, w in report["workloads"].items():
        d = w["untraced"]
        e, t = d["end_to_end"], d["throughput"]
        top = w["traced"]["layers"]["largest_self"][0]
        fam = w["traced"]["layers"]["largest_family"][0]
        print(f"  {name:<14} setup {e['setup_s']:.3f} s  rss {e['peak_rss_mb']:.0f} MB  "
              f"p50 {e['job_s_p50']:.4f} s  p{d['tail_percentile']:g} {e['job_s_tail']:.4f} s  "
              f"errors {d['error_rate']:.3f}  {t['name']} {t['value']:.4g}  "
              f"tracing overhead {100 * w['tracing_overhead']:+.1f}%  "
              f"largest layer {top[0]} {100 * top[2]:.0f}%, family {fam[0]} {100 * fam[2]:.0f}%")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write this run's full detail as JSON")
    parser.add_argument("--out", help="with no --workload: write the full report as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    detail = run_workload(args)
    print_detail(detail)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result_line(detail, bench)))
    # A failed checker self-check or trace accounting is the benchmark's
    # own fault; wrong answers from quadder are reported in the result.
    return 1 if benchmark_failures(detail) else 0


if __name__ == "__main__":
    sys.exit(main())
