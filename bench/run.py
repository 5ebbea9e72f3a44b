#!/usr/bin/env python3
"""solitonlab benchmark: one seeded workload per run, metrics as JSON.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload portrait --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each op is a `solitonlab.cli.main`
call made in-process with stdout captured in memory, and the next op
starts when it returns.  Ops come in rounds (workloads.py) that repeat
until --seconds is used up.  Every output of the first round goes through
an independent checker (checks.py); later rounds must reproduce the first
round's exit code and stdout byte for byte, as the CLI promises.

--trace 0 prints the end-to-end metrics.  Op latencies are given in units
of a fixed reference kernel (reference_kernel) whose mean time is taken
between ops all through the run, because the shared host's speed drifts by
up to 2x within a minute; the raw seconds go in the summary line.

--trace 1 runs every op twice, untraced and then traced, and prints
per-layer metrics, per op, from the traced calls (tracer.py); the spans go
to .bench_out/.  The last stdout line is the result object; a summary and
any failures go before it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import tracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
# reference kernel parts, each about 10 ms on a 2.1 GHz Xeon vCPU
KERNEL_RK4_STEPS = 500
KERNEL_SORT_SIZE = 1 << 20  # 8 MB of float64, allocated once per run
KERNEL_LINES = 5000
KERNEL_EVERY_S = 0.5  # seconds of op time between reference kernel runs
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import solitonlab; "
                "print(time.perf_counter() - t)")


def load_package(src: str):
    """Import solitonlab from src, refusing any other copy."""
    if not os.path.isfile(os.path.join(src, "solitonlab", "__init__.py")):
        sys.exit(f"error: no solitonlab package under {src}; "
                 "run from the repository root")
    sys.path.insert(0, src)
    pkg = importlib.import_module("solitonlab")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported solitonlab from {pkg.__file__}, not {src}")
    return (importlib.import_module("solitonlab.cli"),
            importlib.import_module("solitonlab.classify"))


class Runner:
    """Runs ops against the CLI and keeps what the metrics need."""

    def __init__(self, cli, classify_mod):
        self.cli = cli
        # the lru_cache objects themselves, kept before any tracer wraps them
        self.caches = (classify_mod.compute_bowl, classify_mod.compute_separatrix)
        self.first = {}          # op index in round -> (rc, digest)
        self.failures = []       # (round, op argv, problems)
        self.attempted = 0
        self.out_bytes = 0
        self.cache_stats = [[0, 0], [0, 0]]  # [hits, misses] per cache

    def call(self, argv):
        """One CLI call with captured streams: (rc, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def run_op(self, i: int, op, round_no: int, count_caches: bool) -> float:
        """Run op number i of the round, check it, return its latency."""
        if op.cold:
            for cache in self.caches:
                cache.cache_clear()
        before = [cache.cache_info() for cache in self.caches]
        rc, out, err, dt = self.call(op.argv)
        self.attempted += 1
        if count_caches:
            for stat, cache, b in zip(self.cache_stats, self.caches, before):
                info = cache.cache_info()
                stat[0] += info.hits - b.hits
                stat[1] += info.misses - b.misses
            self.out_bytes += len(out.encode())
        digest = hashlib.sha256(out.encode()).hexdigest()
        if i not in self.first:
            self.first[i] = (rc, digest)
            problems = self._check(op, rc, out) if rc is not None else []
        elif self.first[i] != (rc, digest):
            problems = ["exit code or stdout differs from the first round"]
        else:
            problems = []
        if rc is None:
            problems = ["raised: " + err.strip().splitlines()[-1]]
        if problems:
            self.failures.append((round_no, op.argv, problems + [err.strip()]))
        return dt

    @staticmethod
    def _check(op, rc, out):
        try:
            return checks.check(op, rc, out)
        except Exception as exc:  # an output that cannot be checked is not correct
            return [f"checker failed on this output: {exc!r}"]


def reference_kernel(buf: np.ndarray) -> float:
    """Seconds for a fixed piece of work that uses no solitonlab code.

    Its three parts stand for the three kinds of work the ops do: RK4
    steps on a 2-vector (interpreter and small-array numpy, as in
    solve_ivp), filling and sorting the 8 MB buffer buf (large arrays, as in
    verify and mesh builds) and formatting floats into lines (CLI output).
    The host's speed of the moment scales it as it scales the ops.  The
    garbage collector is off while it runs, so that the heap the program
    under test leaves behind does not change its cost.
    """
    def rhs(y):
        return np.array([y[1], -np.sin(y[0]) - 0.1 * y[1]])

    y, h = np.array([0.5, 0.1]), 1e-3
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(KERNEL_RK4_STEPS):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.random.default_rng(0).random(out=buf)
        buf.sort()
        "\n".join(f"v {0.001 * i:.6f} {y[0]:.6f} {buf[i]:.6f}"
                  for i in range(KERNEL_LINES))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_seconds(src: str) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def setup(runner: Runner, workload, src: str) -> float:
    """Median import time in a fresh interpreter plus median warm-up time."""
    imports = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    warms = []
    for _ in range(SETUP_REPEATS):
        for cache in runner.caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        for argv in workload.warmup:
            rc, _, err, _ = runner.call(argv)
            if rc != 0:
                sys.exit(f"error: warm-up {' '.join(argv)} exited {rc}: {err}")
        warms.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(warms)


def keep_going(elapsed: float, rounds: int, seconds: float) -> bool:
    # stop at the round boundary closest to the time budget
    return elapsed + 0.5 * elapsed / rounds < seconds


def end_to_end(runner, ops, seconds, setup_s):
    # The reference kernel runs between ops, once per KERNEL_EVERY_S of op
    # time, and latencies are divided by its mean time over the run.  The
    # mean, not the median, because the host's speed switches between a
    # fast and a slow state and the ops pay the time-weighted average.
    buf = np.empty(KERNEL_SORT_SIZE)
    latencies, kernels, rounds, due = [], [reference_kernel(buf)], 0, 0.0
    while True:
        for i, op in enumerate(ops):
            dt = runner.run_op(i, op, rounds, count_caches=False)
            latencies.append(dt)
            due += dt
            while due >= KERNEL_EVERY_S:
                kernels.append(reference_kernel(buf))
                due -= KERNEL_EVERY_S
        rounds += 1
        if not keep_going(sum(latencies), rounds, seconds):
            break
    ref_s = statistics.fmean(kernels)
    costs = [dt / ref_s for dt in latencies]

    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[8]

    metrics = {
        "setup_s": (setup_s, "s"),
        "op_mean_ref": (statistics.fmean(costs), "ref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "op_p90_ref": (p90(costs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ok_ops = runner.attempted - len(runner.failures)
    summary = (f"{rounds} rounds of {len(ops)} ops, {len(latencies)} timed, "
               f"fail_frac={len(runner.failures)}/{runner.attempted}; raw seconds: "
               f"ops_per_s={ok_ops / sum(latencies):.4g}, "
               f"op_p50_s={statistics.median(latencies):.4g}, "
               f"op_p90_s={p90(latencies):.4g}, "
               f"reference kernel {1e3 * ref_s:.4g} ms x {len(kernels)}")
    if ops[0].kind == "portrait":
        ics = sum(op.expect["count"] for op in ops) * rounds
        summary += f", ic_per_s={ics / sum(latencies):.4g}"
    return metrics, summary


def per_layer(runner, ops, seconds, trace_path):
    # each op runs untraced, then traced right after, so that the overhead
    # compares neighbours in time and machine speed drift cancels
    plain, traced, rounds = [], [], 0
    tr = tracer.Tracer()
    while True:
        for i, op in enumerate(ops):
            plain.append(runner.run_op(i, op, rounds, count_caches=False))
            tr.install()
            try:
                traced.append(runner.run_op(i, op, rounds, count_caches=True))
            finally:
                tr.restore()
        rounds += 1
        if not keep_going(sum(plain) + sum(traced), rounds, seconds):
            break
    agg = tracer.aggregate(tr.spans)
    names, layers = agg["names"], agg["layers"]
    n_ops = len(traced)
    wall = sum(traced)

    def per_op(name, key="s"):
        return names[name][key] / n_ops

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    (bh, bm), (sh, sm) = runner.cache_stats
    integrate_calls = names["engine.integrate"]["calls"]
    ivp_nfev = names["engine.solve_ivp"]["nfev"]
    metrics = {
        "engine.integrate.calls": (per_op("engine.integrate", "calls"), "calls/op"),
        "engine.integrate.self_s": (per_op("engine.integrate", "self_s"), "s/op"),
        "engine.solve_ivp.s": (per_op("engine.solve_ivp"), "s/op"),
        "engine.solve_ivp.nfev": (per_op("engine.solve_ivp", "nfev"), "nfev/op"),
        "engine.solve_ivp.steps": (per_op("engine.solve_ivp", "steps"), "steps/op"),
        "engine.solve_ivp.share": (names["engine.solve_ivp"]["s"] / wall, "ratio"),
        "engine.nfev_per_call": (ivp_nfev / integrate_calls if integrate_calls else 0.0,
                                 "nfev/call"),
        "classify.classify.calls": (per_op("classify.classify", "calls"), "calls/op"),
        "classify.classify.self_s": (per_op("classify.classify", "self_s"), "s/op"),
        "classify.integrate_bidirectional.calls": (
            per_op("classify.integrate_bidirectional", "calls"), "calls/op"),
        "classify.integrate_bidirectional.s": (
            per_op("classify.integrate_bidirectional"), "s/op"),
        "classify.compute_separatrix.s": (per_op("classify.compute_separatrix"), "s/op"),
        "classify.compute_separatrix.shots": (agg["separatrix_shots"] / n_ops, "calls/op"),
        "classify.compute_separatrix.hit_ratio": (ratio(sh, sm), "ratio"),
        "classify.compute_separatrix.lookups": ((sh + sm) / n_ops, "calls/op"),
        "classify.compute_bowl.hit_ratio": (ratio(bh, bm), "ratio"),
        "classify.compute_bowl.lookups": ((bh + bm) / n_ops, "calls/op"),
        "geometry.bowl_curve.s": (per_op("geometry.bowl_curve"), "s/op"),
        "geometry.center_profile_eval.s": (per_op("geometry.center_profile_eval"), "s/op"),
        "geometry.build_hybrid.s": (per_op("geometry.build_hybrid"), "s/op"),
        "geometry.build_wing.s": (per_op("geometry.build_wing"), "s/op"),
        "geometry.solve_ivp.nfev": (per_op("geometry.solve_ivp", "nfev"), "nfev/op"),
        "geometry.self_s": (layers["geometry"] / n_ops, "s/op"),
        "verify.sample_radial_field.s": (per_op("verify.sample_radial_field"), "s/op"),
        "verify.residual_fund_eq.s": (per_op("verify.residual_fund_eq"), "s/op"),
        "verify.residual_fund_eq.nodes": (per_op("verify.residual_fund_eq", "nodes"),
                                          "nodes/op"),
        "verify.smoothness_scan.s": (per_op("verify.smoothness_scan"), "s/op"),
        "verify.convergence_order.s": (per_op("verify.convergence_order"), "s/op"),
        "cli.main.s": (per_op("cli.main"), "s/op"),
        "cli.self_s": (layers["cli"] / n_ops, "s/op"),
        "cli.out_bytes": (runner.out_bytes / n_ops, "B/op"),
        "trace.ops_per_s": (n_ops / wall, "1/s"),
        "trace.untraced_ops_per_s": (len(plain) / sum(plain), "1/s"),
        "trace.overhead_frac": (wall / sum(plain) - 1.0, "ratio"),
        "trace.unattributed_frac": (1.0 - sum(layers.values()) / wall, "ratio"),
    }
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.dump(tr.spans, trace_path)
    shares = " ".join(f"{k}={v / wall:.3f}" for k, v in layers.items())
    summary = (f"{rounds} rounds of {len(ops)} ops, each run untraced then traced, "
               f"fail_frac={len(runner.failures)}/{runner.attempted}, "
               f"layer self-time shares: {shares}, spans in {trace_path}")
    return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    cli, classify_mod = load_package(src)
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"pick one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = workload.make_round(random.Random(args.seed))
    runner = Runner(cli, classify_mod)
    setup_s = setup(runner, workload, src)

    if args.trace:
        path = os.path.join(root, ".bench_out",
                            f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics, summary = per_layer(runner, ops, args.seconds, path)
    else:
        metrics, summary = end_to_end(runner, ops, args.seconds, setup_s)

    for round_no, op_argv, problems in runner.failures:
        print(f"FAIL round {round_no}: {' '.join(op_argv)}", file=sys.stderr)
        for p in problems:
            if p:
                print(f"    {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
