#!/usr/bin/env python3
"""Benchmark of the Secure TLBs reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table4|survey|fig7-quick \
        --seed N --seconds S --trace 0|1

The program is built from source first (``cargo build --release``;
``CARGO_TARGET_DIR`` defaults to ``.bench_build``). Everything the run
writes goes under ``.bench_work/``.

``--trace 0`` times the real reproduction drivers from outside: serial
subprocesses, tracing off, output captured the way
``scripts/reproduce_all.sh`` captures it and byte-compared with its
golden. It first runs a few cold passes, each in a fresh working
directory (``setup_s``), then repeats warm passes for ``--seconds`` and
reports medians. The host-speed probe (``perfbench-trace --probe``) runs
between passes; each pass's times are scaled from the mean of the two
probe times around it to ``PROBE_REF_S``, which removes most of the
minutes-long speed drift of a shared host. The raw host times are kept
in the detail line.

``--trace 1`` runs the traced replay (``perfbench/trace``) for the
per-layer metrics. One replay under the drivers' own seeds is checked
against the pinned simulated counters (``pins.json``) and, cell by cell,
against the drivers' printed output; the replays that give the metrics
then run under ``--seed``. One untraced driver pass runs the golden gate.

The drivers' inputs are the paper's fixed seeds, which the goldens pin,
so ``--seed`` reaches only the traced replay's security trials.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail: {...}``) adds quartiles, sample counts and the host stamp.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

# Each workload is a list of (driver, arguments); the arguments are
# those of scripts/reproduce_all.sh, or `--quick` for fig7.
WORKLOADS = {
    "table4": [("table4", ["--trials", "500"])],
    "survey": [
        ("mitigations", ["--trials", "300"]),
        ("ablation_rf", ["--trials", "300"]),
        ("ablation_sp_ways", ["--trials", "200"]),
        ("table7_eval", ["--trials", "500"]),
    ],
    "fig7-quick": [("fig7", ["--quick"])],
}

# Where each driver's expected output lives. No results file covers
# `fig7 --quick`, so its golden is kept with the benchmark.
GOLDENS = {name: f"results/{name}.txt" for name, _ in sum(WORKLOADS.values(), [])}
GOLDENS["fig7"] = "perfbench/golden/fig7-quick.txt"

# Credited work per pass, from the replay's counts at the pinned commit:
# trial pairs for the security workloads; fig7-quick runs no security
# trials, so there one credited unit is one simulated cell.
CREDIT_COUNTER = {"table4": "trial_pairs", "survey": "trial_pairs", "fig7-quick": "cells"}

COLD_PASSES = 5
MIN_PASSES = 3
MIN_REPLAYS = 2
DRIVER_TIMEOUT_S = 150
# The host-speed probe's run time at the reference speed end-to-end
# times are scaled to (about its time on a quiet 2-core host).
PROBE_REF_S = 0.25


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, failed build)."""


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(workload):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    bins = [f"--bin={name}" for name, _ in WORKLOADS[workload]]
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "sectlb-bench", *bins],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "trace" / "Cargo.toml")],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SetupError(f"build failed: {' '.join(cmd)}")
    return target_dir() / "release"


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_driver(bin_dir, name, args, workdir):
    """Runs one driver with stdout and stderr captured into one file;
    returns (wall s, cpu s, peak RSS MiB, exit code, output bytes)."""
    out_path = workdir / f"{name}.txt"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(bin_dir / name), *args], cwd=workdir, stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(DRIVER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes()


def run_pass(bin_dir, workload, workdir, goldens, problems):
    """One pass: every driver of the workload, serially."""
    wall = cpu = rss = 0.0
    failed = 0
    for name, args in WORKLOADS[workload]:
        d_wall, d_cpu, d_rss, code, output = run_driver(bin_dir, name, args, workdir)
        wall += d_wall
        cpu += d_cpu
        rss = max(rss, d_rss)
        diff = harness.golden_diff(output, goldens[name])
        if code != 0 or diff:
            failed += 1
            problems.append(f"{name}: exit {code}; {diff or 'output matches'}")
    return {"wall": wall, "cpu": cpu, "rss": rss, "attempted": len(WORKLOADS[workload]),
            "failed": failed}


def run_replay(bin_dir, workload, seed=None, spans=None):
    cmd = [str(bin_dir / "perfbench-trace"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SetupError(f"traced replay failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def probe(bin_dir):
    done = subprocess.run([str(bin_dir / "perfbench-trace"), "--probe"], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def end_to_end(bin_dir, workload, _seed, seconds, goldens, pins, problems, work):
    probes = [probe(bin_dir)]

    def probed_pass(workdir):
        # Each pass is scaled from the host speed the probes on either side
        # of it measured to the reference speed, at which the probe takes
        # PROBE_REF_S; raw times stay in the detail.
        p = run_pass(bin_dir, workload, workdir, goldens, problems)
        probes.append(probe(bin_dir))
        p["scale"] = PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        return p

    cold = [probed_pass(fresh_dir(work / f"cold-{k}")) for k in range(COLD_PASSES)]
    warm = fresh_dir(work / "warm")
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(probed_pass(warm))
    raw = {
        "wall_s": [p["wall"] for p in passes],
        "cpu_s": [p["cpu"] for p in passes],
        "setup_s": [p["wall"] for p in cold],
    }
    samples = {
        "wall_s": [p["wall"] * p["scale"] for p in passes],
        "cpu_s": [p["cpu"] * p["scale"] for p in passes],
        "setup_s": [p["wall"] * p["scale"] for p in cold],
        "max_rss_mb": [p["rss"] for p in passes],
    }
    credit = pins[workload][CREDIT_COUNTER[workload]]
    instret = pins[workload]["sim.instret"]
    samples["trial_pairs_per_s"] = [credit / w for w in samples["wall_s"]]
    samples["sim_minstr_per_s"] = [instret / 1e6 / w for w in samples["wall_s"]]
    return samples, cold + passes, {"probe_s": probes, "raw_host_s": raw}


def layer_metrics(t):
    """Per-layer metrics of one replay."""
    layers, c = t["layers"], t["counters"]

    def own(name):
        return layers[name]["self_s"]

    exec_s = own("sim.exec.alone") + own("sim.exec.corun")
    setup_s = own("sim.build") + own("sim.os_map") + own("sim.protect")
    machines = c["sim.setup.machines"]
    # The cell entries run the same cells untraced, interleaved cell by
    # cell with their traced replay, so host drift cancels out.
    untraced = sum(layers[n]["total_s"]
                   for n in ("secbench.cell", "bench.perf_cell", "bench.headline"))
    m = {
        "sim.build.s": own("sim.build"),
        "sim.os_map.s": own("sim.os_map"),
        "sim.protect.s": own("sim.protect"),
        "sim.setup.machines": machines,
        "sim.setup.ns_per_machine": setup_s * 1e9 / machines,
        "sim.exec.s": exec_s,
        "sim.exec.alone.s": own("sim.exec.alone"),
        "sim.exec.corun.s": own("sim.exec.corun"),
        "sim.exec.ns_per_instr": exec_s * 1e9 / c["sim.instret"],
        "sim.ipc": c["sim.instret"] / c["sim.cycles"],
        "tlb.hit_ratio": c["tlb.hits"] / c["tlb.accesses"],
        "secbench.generate.s": own("secbench.generate"),
        "secbench.cell.s": t["secbench_entry_s"],
        "secbench.engine.s": t["secbench_entry_s"] - t["secbench_replayed_s"],
        "workloads.rsa.s": own("workloads.rsa"),
        "workloads.spec_trace.s": own("workloads.spec_trace"),
        "bench.perf_cell.s": layers["bench.perf_cell"]["total_s"],
        "bench.headline.s": layers["bench.headline"]["total_s"],
        "trace.overhead_frac": layers["replay.cell"]["total_s"] / untraced - 1.0,
    }
    for name in ("sim.instret", "sim.cycles", "sim.context_switches", "tlb.accesses",
                 "tlb.hits", "tlb.misses", "tlb.fills", "tlb.random_fills",
                 "tlb.no_fill_responses", "tlb.evictions", "tlb.invalidations",
                 "tlb.flushes", "workloads.instrs_generated"):
        m[name] = c[name]
    return m


def check_replay(t, workload, goldens, pins, pinned, problems):
    problems.extend(f"replay mismatch: {m}" for m in t["mismatches"])
    if not pinned:
        return
    for name, want in pins[workload].items():
        if t["counters"].get(name) != want:
            problems.append(f"counter {name}: pinned {want}, replay {t['counters'].get(name)}")
    printed = {}
    for name, _ in WORKLOADS[workload]:
        printed.update(harness.PARSERS[name](goldens[name].decode()))
    problems.extend(harness.fidelity_problems(t["outcomes"], printed))


def traced(bin_dir, workload, seed, seconds, goldens, pins, problems, work):
    passes = [run_pass(bin_dir, workload, fresh_dir(work / "warm"), goldens, problems)]
    check_replay(run_replay(bin_dir, workload), workload, goldens, pins, True, problems)
    replays = []
    start = time.perf_counter()
    while len(replays) < MIN_REPLAYS or time.perf_counter() - start < seconds:
        replays.append(run_replay(bin_dir, workload, seed, spans=work / "spans.tsv"))
        check_replay(replays[-1], workload, goldens, pins, False, problems)
    per_replay = [layer_metrics(t) for t in replays]
    samples = {name: [m[name] for m in per_replay] for name in per_replay[0]}
    attempted = sum(p["attempted"] for p in passes)
    samples["failed_frac"] = [sum(p["failed"] for p in passes) / attempted]
    return samples, passes, {}


def host_stamp():
    def out(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", *sorted((ROOT / "crates").rglob("*"))]
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("Cargo.toml", "crates", "BENCHMARK.json",
                   *(GOLDENS[name] for name, _ in WORKLOADS[args.workload])):
        if not (ROOT / needed).exists():
            raise SetupError(f"{ROOT / needed} is missing; run from a full checkout")
    goldens = {name: (ROOT / GOLDENS[name]).read_bytes() for name, _ in WORKLOADS[args.workload]}
    pins = json.loads((HERE / "pins.json").read_text())
    units = declared_metrics(args.trace)

    bin_dir = build(args.workload)
    work = fresh_dir(ROOT / ".bench_work" / args.workload)
    problems = []
    run = traced if args.trace else end_to_end
    samples, passes, extra = run(bin_dir, args.workload, args.seed, args.seconds, goldens,
                                 pins, problems, work)
    stats = {name: harness.summary(samples[name]) for name in units}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_stamp(),
        "metrics": stats,
        "samples": {name: samples[name] for name in units},
        **extra,
        "problems": problems[:50],
    }
    (work / "detail.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("detail: " + json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
