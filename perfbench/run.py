"""Repo benchmark: four workloads, each loading a different layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rollout_full --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``rollout_full`` -- the 50-vehicle full-fidelity fixed-10 staged
  rollout of Fig. 3 cars: the management path through the kernel,
  OSEK/RTE, CAN and PIRTE/ECM.
* ``rollout_fleet2k`` -- 10 full-fidelity canary cars plus 1,990
  statistical vehicles: the per-vehicle server and codec path.
* ``plugin_traffic`` -- 20 cars running ``remote-control`` while one
  phone streams commands: the data path through the plug-in VM.
* ``gateway_mixed`` -- two closed-loop HTTP clients against the
  gateway over a mostly statistical fleet: HTTP, the command pump,
  the selector and the verifier.

Each repetition runs in a fresh process (``rep.py``), so none inherits
another's heap; repetitions repeat within ``--seconds`` and the result
reports medians over them (latency quantiles over all their samples).
The benchmark and its repetitions run on one CPU.  Host timings are
scaled to a nominal host by a reference loop timed around each
repetition (``calibrate.py``); the raw timings are printed too.  Every repetition checks its outputs; on the three
simulation workloads every repetition at one seed must also produce the
same report digest and exact counters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics: exact
counters and self time per layer from the traced repetitions (which
must match the untraced ones exactly), rates and host latencies from
the untraced ones.  The last line of standard output is the result
object; the line before it records the host, the raw timings and the
per-workload details.

Claims of a gain are checked on the held-out seed ``HELD_OUT_SEED``,
which is not used while tuning a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import catalog  # noqa: E402

HELD_OUT_SEED = 20_141_402

#: Every repetition of a run must end within this many seconds of its start.
HARD_LIMIT_S = 170.0


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order, for ``kind``
    ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed child)."""


def pin_to_one_cpu() -> None:
    """Run this process and every repetition it starts on one CPU.

    The interpreter lets one thread run Python at a time; spread over
    two CPUs, the gateway's threads hand that lock across CPUs, and on a
    shared host those hand-offs varied its throughput by 60% between
    runs, against 6% on one CPU.  The reference loop runs on the same
    CPU as the repetitions it calibrates.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for a repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), workload, str(seed),
             "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload} repetition timed out") from error
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition failed:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat within ``seconds``; returns (untraced, traced) reps.

    A repetition starts only if one as long as the longest so far still
    fits.  The reference loop is timed before the first repetition and
    after each one; a repetition's ``scale`` converts its host timings
    to the nominal host (see ``calibrate.py``).
    """
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    reference = calibrate.reference_seconds()
    while True:
        want_traced = trace and len(traced) < len(plain)
        started = time.monotonic()
        rep = run_rep(workload, seed, want_traced, deadline)
        after = calibrate.reference_seconds()
        longest = max(longest, time.monotonic() - started)
        rep["reference_s"] = (reference + after) / 2
        rep["scale"] = calibrate.NOMINAL_S / rep["reference_s"]
        reference = after
        (traced if want_traced else plain).append(rep)
        done = not trace or (traced and len(traced) == len(plain))
        if done and time.monotonic() - began + longest > seconds:
            return plain, traced


def check_determinism(workload: str, plain: list[dict], traced: list[dict]):
    """Problems found; empty when every repetition agrees exactly."""
    if workload not in catalog.SIM_WORKLOADS:
        return []
    problems = []
    first = (plain[0]["digest"], plain[0]["counters"])
    # Tracing must not perturb the simulation: traced repetitions match
    # the untraced digest and counters, and agree on the call counts.
    for index, rep in enumerate(plain[1:] + traced, start=1):
        if (rep["digest"], rep["counters"]) != first:
            problems.append(f"repetition {index} diverged from the first")
    if any(rep["calls"] != traced[0]["calls"] for rep in traced):
        problems.append("traced call counts differ between repetitions")
    return problems


def end_to_end(workload: str, plain: list[dict],
               calibrated: bool = True) -> dict:
    """The end-to-end metrics; host timings scaled to the nominal host
    unless ``calibrated`` is false."""

    def scale(rep: dict) -> float:
        return rep["scale"] if calibrated else 1.0

    def latency_scale(rep: dict) -> float:
        return scale(rep) if workload in catalog.HOST_LATENCY else 1.0

    latencies = sorted(
        latency * latency_scale(rep)
        for rep in plain for latency in rep["latencies_ms"]
    )
    return {
        "ops_per_s": median(
            rep["units"] / (rep["run_s"] * scale(rep)) for rep in plain
        ),
        "latency_p50_ms": catalog.quantile(latencies, 0.50),
        "latency_p90_ms": catalog.quantile(latencies, 0.90),
        "peak_rss_mb": median(rep["rss_mb"] for rep in plain),
        "setup_s": median(
            rep["setup_s"] * scale(rep) for rep in plain
        ),
    }


def per_layer(plain: list[dict], traced: list[dict],
              names: list[str]) -> dict:
    """Per-layer metrics: exact counts from the first traced repetition,
    host timings as medians scaled to the nominal host.  ``names`` are
    the per-layer metrics; each ``<layer>.self_s`` among them is read
    from the profile."""
    values: dict[str, float] = dict(traced[0]["counters"])
    values.update(traced[0]["calls"])
    values["sim.events_per_s"] = median(
        rep["counters"]["sim.run_events"] / (rep["run_s"] * rep["scale"])
        for rep in plain
    )
    for name in names:
        if name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            values[name] = median(
                rep["self_s"].get(layer, 0.0) * rep["scale"] for rep in traced
            )
    for name, key, q in (("wait_ms_p50", "pump_wait_ms", 0.50),
                         ("wait_ms_p99", "pump_wait_ms", 0.99),
                         ("exec_ms_p50", "pump_exec_ms", 0.50)):
        values[f"gateway.pump.{name}"] = median(
            catalog.quantile(rep[key], q) * rep["scale"] for rep in plain
        )
    for name in ("read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p90_ms"):
        values[f"gateway.http.{name}"] = median(
            rep["details"].get(name, 0.0) * rep["scale"] for rep in plain
        )
    details = plain[0]["details"]
    values["campaign.waves"] = details.get("waves", 0)
    values["campaign.events"] = details.get("campaign_events", 0)
    values["campaign.sim_s"] = details.get("rollout_sim_s", 0.0)
    values["trace.unattributed_s"] = median(
        rep["unattributed_s"] * rep["scale"] for rep in traced
    )
    values["trace.overhead_ratio"] = (
        median(rep["setup_s"] + rep["run_s"] for rep in traced)
        / median(rep["setup_s"] + rep["run_s"] for rep in plain)
    )
    return values


def summarize(workload: str, seed: int, plain: list[dict],
              traced: list[dict], trace: bool) -> tuple[dict, dict]:
    """(host and detail record, result line) for collected repetitions."""
    problems = check_determinism(workload, plain, traced)
    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if trace:
        units = declared("per_layer")
        values = per_layer(plain, traced, list(units))
    else:
        units = declared("end_to_end")
        values = end_to_end(workload, plain)
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpus_used": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        },
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "failed_frac": failed / attempted,
        "problems": problems,
        "raw": end_to_end(workload, plain, calibrated=False),
        "reference_s": median(rep["reference_s"] for rep in plain),
        "details": plain[0]["details"],
    }
    return info, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1
    info, line = summarize(args.workload, args.seed, plain, traced,
                           bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
