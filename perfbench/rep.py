"""One repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/rep.py <workload> <seed> <traced 0|1>``.
Prints one JSON object: set-up and run walls, peak RSS, the checked
outcome, the exact counters and, when traced, per-layer self times and
call counts.  ``run.py`` starts one of these per repetition so no
repetition inherits another's heap.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    ``VmHWM`` restarts at exec; ``ru_maxrss`` would also count the
    parent process this one was started from.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(name: str, seed: int, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    registry = probes.Registry().install()
    calls = probes.CallCounters().install() if traced else None
    profiler = probes.LayerProfiler() if traced else None
    state = None
    try:
        if profiler is not None:
            profiler.start()
        began = time.perf_counter()
        state = workload.setup(seed)
        setup_s = time.perf_counter() - began
        events_before = state.platform.sim.events_executed
        began = time.perf_counter()
        outcome = workload.run(state)
        run_s = time.perf_counter() - began
    finally:
        if profiler is not None:
            profiler.stop()
        if calls is not None:
            calls.uninstall()
        registry.uninstall()
        if state is not None:
            workload.teardown(state)
    counters = probes.read_counters(
        state.platform, registry, getattr(state, "gateway", None)
    )
    counters["sim.run_events"] = float(
        state.platform.sim.events_executed - events_before
    )
    latencies = sorted(outcome.latencies_ms)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "units": outcome.units,
        "latencies_ms": latencies,
        "digest": outcome.digest,
        "counters": counters,
        "details": outcome.details,
        "pump_wait_ms": sorted(registry.pump_wait_ms),
        "pump_exec_ms": sorted(registry.pump_exec_ms),
    }
    if traced:
        result["calls"] = calls.snapshot()
        result["self_s"], result["unattributed_s"] = profiler.self_times()
    return result


if __name__ == "__main__":
    workload_name, seed_arg, traced_arg = sys.argv[1:4]
    print(json.dumps(main(workload_name, int(seed_arg), traced_arg == "1")))
