#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source, runs one
workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build).  Human-readable lines go first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics, measured with the
benchmark's spans off; with --trace 1 they are the per-layer metrics of a
separate traced run.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("timestep-pcg", "rebuild-gmres", "ensemble-panel", "fmg-sharded")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# (name, unit) of every reported metric; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_s.tail", "s"),
    ("solves_per_s", "1/s"),
    ("hierarchy_mb", "MB"),
    ("peak_rss_mb", "MB"),
)


def _per_layer():
    out = [
        ("solvers.iters", "count"),
        ("solvers.self_s", "s"),
        ("solvers.repro", "frac"),
        ("solvers.heals", "count"),
        ("solvers.fmg.polish_iters", "count"),
    ]
    out += [("solvers.solve_many.k%d.s_per_rhs" % k, "s") for k in (1, 2, 8)]
    out += [
        ("core.precond.apply_s", "s"),
        ("core.precond.applies", "count"),
        ("core.precond.share", "frac"),
        ("core.precond.fcycle_s", "s"),
        ("core.precond.vcycle_s", "s"),
        ("core.coarse_solve.s", "s"),
        ("core.setup.galerkin_s", "s"),
        ("core.setup.scale_s", "s"),
        ("core.setup.rest_s", "s"),
        ("core.setup.levels", "count"),
        ("core.cache.hit_ratio", "frac"),
    ]
    kernel = (("s_per_call", "s"), ("gbs", "GB/s"), ("stream_frac", "frac"))
    out += [("kernels.spmv." + k, u) for k, u in kernel]
    out += [("kernels.spmv.fp16_over_fp32", "ratio"), ("kernels.spmv.model_bound", "ratio")]
    for layer in ("kernels.symgs", "kernels.residual_restrict", "core.transfer.prolong"):
        for lvl in range(3):
            out += [("%s.L%d.%s" % (layer, lvl, k), u) for k, u in kernel]
    out += [("kernels.symgs.L0.fp16_over_fp32", "ratio"), ("kernels.symgs.L0.model_bound", "ratio")]
    out += [
        ("kernels.symgs_many.L0.s_per_col", "s"),
        ("kernels.residual_restrict_many.L0.s_per_col", "s"),
        ("core.transfer.prolong_many.L0.s_per_col", "s"),
        ("kernels.blas1.dot.s_per_call", "s"),
        ("kernels.blas1.dot.gbs", "GB/s"),
        ("grid.halo.s_per_apply", "s"),
        ("grid.halo.model_bytes_per_apply", "bytes"),
        ("grid.halo.share", "frac"),
        ("obs.telemetry_overhead_frac", "frac"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.warmup_s", "s"),
        ("perfmodel.stream_triad_gbs", "GB/s"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND samples
    above its nearest-rank position.  Returns (percentile, value, beyond);
    with fewer than 2 * MIN_BEYOND samples that is the median with the
    count it has."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, xs[rank - 1], n - rank
    raise AssertionError("unreachable")


def e2e_metrics(doc):
    """End-to-end metrics from the driver's raw samples, as
    {name: (value, tail-description)}."""
    setup, solve = doc["setup_s"], doc["solve_s"]
    p, tail, beyond = tail_percentile(solve)

    def spread(xs):
        tp, tv, tb = tail_percentile(xs)
        return "median of n=%d; p%g %.6g with %d beyond" % (len(xs), tp, tv, tb)

    return {
        "setup_s": (statistics.median(setup), spread(setup)),
        "solve_s": (statistics.median(solve), spread(solve)),
        "solve_s.tail": (tail, "p%g of n=%d, %d beyond" % (p, len(solve), beyond)),
        "solves_per_s": (doc["rhs"] / doc["program_s"],
                         "%d RHS in %.3f s of setup+solve" % (doc["rhs"], doc["program_s"])),
        "hierarchy_mb": (doc["hierarchy_bytes"] / 1e6, "stored matrices + smoother"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "whole process"),
    }


def refuse_overrides(environ):
    """Names of SMG_* variables that would change the measured program."""
    return sorted(k for k in environ if k.startswith("SMG_"))


def git_sha():
    # Read .git directly: the benchmark must not look outside its checkout.
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    )
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            return False
    return True


def run_driver(cmd):
    """Run the driver to completion; (returncode, stdout) or None on timeout."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        return proc.returncode, out


def run_workload(driver, build_dir, workload, seed, seconds, trace):
    """Run one workload, print its report; (correct, attempted, failed,
    metrics), or None when the driver produced no result."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", os.path.join(build_dir, "trace-%s-%d.json" % (workload, seed))]
    res = run_driver(cmd)
    if res is None:
        print("perfbench: driver timed out", file=sys.stderr)
        return None
    code, out = res
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("perfbench: driver printed no result (exit %d)" % code, file=sys.stderr)
        return None

    env = doc["env"]
    print("workload %s  seed %d  trace %d  git %s" % (workload, seed, trace, git_sha()))
    print("env: compiler %s, nproc %d, threads %d, OMP_WAIT_POLICY %s, proc_bind %s"
          % (env["compiler"], env["nproc"], env["threads"], env["omp_wait_policy"], env["omp_proc_bind"]))
    print("inputs: %s %s, %s, inputs hash %s" % (env["problem"], env["box"], env["config"], doc["inputs_hash"]))
    attempted, failed = int(doc["attempted"]), int(doc["failed"])
    print("failed_frac %.6g (%d of %d solves)" % (failed / attempted, failed, attempted))
    for f in doc["failures"]:
        print("  failure: %s" % f)
    print("warm-up step (outside the medians): %.4f s; loop wall %.2f s; "
          "median iterations %g" % (doc["warmup_s"], doc["loop_wall_s"], doc["iters_median"]))

    metrics = {}
    if trace:
        layers = doc["layers"]
        print("STREAM triad arrays %.0f MiB each (last-level cache %.0f MiB); "
              "kernel GB/s are computed from perfmodel bytes"
              % (layers["perfmodel.stream_array_bytes"] / 2**20, layers["perfmodel.llc_bytes"] / 2**20))
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            print("  %-46s %-6s %.6g" % (name, unit, layers[name]))
    else:
        for name, (value, note) in e2e_metrics(doc).items():
            unit = dict(END_TO_END)[name]
            metrics[name] = {"value": value, "unit": unit}
            print("  %-14s %-4s %.6g  (%s)" % (name, unit, value, note))
    return code == 0 and failed == 0, attempted, failed, metrics


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    overrides = refuse_overrides(os.environ)
    if overrides:
        print("perfbench: refusing to run with %s set: each changes the program "
              "being measured" % ", ".join(overrides), file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = os.path.join(build_dir, "perfbench_driver")
    selftest = run_driver([driver, "--selftest"])
    if selftest is None or selftest[0] != 0:
        print("perfbench: driver self-test failed", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(driver, build_dir, name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        ok, a, f, m = res
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({"%s/%s" % (name, k): v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
