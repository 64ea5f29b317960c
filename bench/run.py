"""derlab benchmark: one closed-loop caller, one process, main thread only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: the library is imported from `src/`, and
the scenario workload reads `scenarios/`.  Workloads are defined in
workloads.py (stability-p2, scenario-regression, recognition-p3).

--trace 0 sets the workload up several times and reports the median as
`setup_s` (plus the import), then runs batches of items until S seconds of
timed calls have passed (or the inputs run out) and reports the end-to-end
metrics.  Latencies are per timed item; `items_per_s` divides the verified
items by the time spent in the timed calls; `peak_rss_mb` is the largest
resident set seen after set-up and between items.  Every time is corrected
for the host's speed by speed.SpeedMeter (the raw figures are in the
details line): on the shared host the benchmark was built on, the same run
otherwise moved by up to 2x.

--trace 1 sets up once, runs a fixed number of batches (set by S, so
counters of two runs with the same seed are equal) untraced, then runs
the same batches again with every layer wrapped (tracer.py), checks that
both passes gave the same outputs, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
holds details: the environment, the input properties and sample counts.
Exit code 2 means the benchmark could not run (no source tree, bad
arguments, failed set-up) and no result was printed.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# a run goes on until it has this many timed items (so that at least 10 lie
# beyond the p90), but for no more than MAX_OVERRUN x --seconds of wall time
MIN_TIMED_ITEMS = 100
MAX_OVERRUN = 2.0
MAX_REPORTED_ERRORS = 5
M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3

# (metric, unit, better)
END_TO_END = [
    ("items_per_s", "items/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified_share", "ratio", "higher"),
]

# counts of calls are named <layer>.<function>.calls
CALL_COUNTS = [
    "modules.hom_space",
    "modules.free_cover",
    "modules.is_projective",
    "modules.stable_hom",
    "modules.is_stable_iso_map",
    "homotopy.is_stable_iso_map_diagrams",
    "cats.punctured_slice",
    "diagrams.hom_space_diagrams",
    "diagrams.projective_cover_diagram",
    "diagrams.ext1",
    "gorenstein.latching",
    "gorenstein.is_gproj",
    "complexes.sod_decompose",
    "dgkan.crosscheck_kan",
    "dgkan.bar_resolution",
]
REPEAT_SHARES = ["modules.hom_space", "modules.free_cover", "gorenstein.is_gproj"]

# (metric, unit, better)
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("field.elim.calls", "count", "lower"),
        ("field.elim.cells", "count", "lower"),
        ("field.elim.empty_share", "ratio", "lower"),
        ("field.elim.small_share", "ratio", "higher"),
        ("field.elim.large_share", "ratio", "lower"),
        ("field.elim.max_cells", "count", "lower"),
        ("field.mat.constructs", "count", "lower"),
    ]
    + [(f"{name}.calls", "count", "lower") for name in CALL_COUNTS]
    + [(f"{name}.repeat_share", "ratio", "higher") for name in REPEAT_SHARES]
    + [
        ("modules.iso_search.candidates", "count", "lower"),
        ("modules.iso_search.hit_ratio", "ratio", "higher"),
        ("trace.items", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


class Outcome:
    __slots__ = ("label", "start", "end", "scaled", "checked")

    def __init__(self, label, start, end, checked):
        self.label = label
        self.start = start
        self.end = end
        self.scaled = end - start  # replaced by the host-speed corrected time under a SpeedMeter
        self.checked = checked

    @property
    def latency(self) -> float:
        return self.end - self.start


def rss_mb() -> float:
    """Current resident set of this process, from /proc/self/status."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS in /proc/self/status")


def run_loop(workload, state, seconds=None, max_batches=None, tracer=None, meter=None):
    """Closed loop over the workload's batches until `max_batches` batches
    are done, the inputs run out, or `seconds` of timed calls have passed
    with at least MIN_TIMED_ITEMS timed (never past MAX_OVERRUN x `seconds`
    of wall time).  Under a SpeedMeter the timed calls count at reference
    speed, so the items a run covers do not depend on the host's speed.  A
    failing or raising item is counted, reported on stderr, and the loop
    goes on.

    Returns the outcomes, the wall time and the largest resident set seen
    between items."""
    from workloads import Checked

    perf = time.perf_counter
    outcomes = []
    errors = 0
    busy = 0.0
    peak = rss_mb()
    start = perf()
    for b, batch in enumerate(workload.batches(state)):
        if max_batches is not None and b >= max_batches:
            break
        if seconds is not None:
            wall = perf() - start
            if (busy >= seconds and len(outcomes) >= MIN_TIMED_ITEMS) or wall >= MAX_OVERRUN * seconds:
                break
        for item in batch:
            if tracer is not None:
                tracer.begin_item(len(outcomes))
                tracer.enabled = True
            error = None
            t0 = perf()
            try:
                raw = item.run()
            except Exception as exc:  # counted as a failed item, never raised out of the loop
                error = exc
            finally:
                t1 = perf()
                if tracer is not None:
                    tracer.enabled = False
            if error is None:
                try:
                    checked = item.check(raw)
                except Exception as exc:
                    error = exc
            if error is not None:
                checked = Checked(item.expected_items, item.expected_items, f"error: {type(error).__name__}")
                if errors < MAX_REPORTED_ERRORS:
                    print(f"[{workload.name}] item {item.label} raised:", file=sys.stderr)
                    traceback.print_exception(error, file=sys.stderr)
                errors += 1
            elif checked.failed and errors < MAX_REPORTED_ERRORS:
                print(f"[{workload.name}] item {item.label}: {checked.failed} of {checked.items} failed their check", file=sys.stderr)
                errors += 1
            outcome = Outcome(item.label, t0, t1, checked)
            if meter is not None:
                meter.sample()  # the neighbour after the item
                outcome.scaled = meter.scaled(t0, t1)
            busy += outcome.scaled
            outcomes.append(outcome)
            peak = max(peak, rss_mb())
    return outcomes, perf() - start, peak


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(outcomes):
    items = sum(o.checked.items for o in outcomes)
    failed = sum(o.checked.failed for o in outcomes)
    lat_ms = [1000.0 * o.scaled for o in outcomes]
    raw_ms = [1000.0 * o.latency for o in outcomes]
    p90 = _p90(lat_ms)
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(1000.0 * o.scaled)
    return {
        "items": items,
        "failed": failed,
        "busy_s": sum(lat_ms) / 1000.0,
        "timed_items": len(outcomes),
        "p50_ms": statistics.median(lat_ms),
        "p90_ms": p90,
        "beyond_p90": sum(1 for v in lat_ms if v > p90),
        "raw": {"busy_s": sum(raw_ms) / 1000.0, "p50_ms": statistics.median(raw_ms), "p90_ms": _p90(raw_ms)},
        "by_label": {k: {"n": len(v), "median_ms": statistics.median(v)} for k, v in sorted(by_label.items())},
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: int, import_s: float, meter):
    setup_times = []
    raw_setup = []
    setup_peak = 0.0
    state = None
    for _ in range(SETUP_REPS):
        state = None
        t0 = time.perf_counter()
        state = workload.setup(ROOT, seed)
        t1 = time.perf_counter()
        meter.sample()
        setup_times.append(meter.scaled(t0, t1))
        raw_setup.append(t1 - t0)
        setup_peak = max(setup_peak, rss_mb())
    outcomes, wall, loop_peak = run_loop(workload, state, seconds=seconds, meter=meter)
    s = summarize(outcomes)
    verified = s["items"] - s["failed"]
    metrics = {
        "items_per_s": verified / s["busy_s"] if s["busy_s"] > 0 else 0.0,
        "item_ms_p50": s["p50_ms"],
        "item_ms_p90": s["p90_ms"],
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": max(setup_peak, loop_peak),
        "verified_share": verified / s["items"] if s["items"] else 0.0,
    }
    details = {
        "import_s": import_s,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_reps_s": setup_times,
        "raw_setup_reps_s": raw_setup,
        "measured_wall_s": wall,
        "host_slow_share": meter.slow_share(),
        "properties": workload.properties(state),
        **s,
    }
    return metrics, END_TO_END, s["items"], s["failed"], True, details


def trace(workload, seed: int, seconds: int):
    from tracer import SMALL_ELIMINATION_CELLS, Tracer

    state = workload.setup(ROOT, seed)
    batches = workload.trace_batches(seconds)
    plain, _, _ = run_loop(workload, state, max_batches=batches)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = run_loop(workload, state, max_batches=batches, tracer=tracer)
    finally:
        tracer.uninstall()
    same = [o.checked.digest for o in plain] == [o.checked.digest for o in traced]
    s = summarize(traced)
    plain_busy = sum(o.latency for o in plain)
    cells = tracer.elim_cells
    n_elim = len(cells)
    calls = tracer.calls

    def share(count, base):
        return count / base if base else 0.0

    metrics = {f"{layer}.self_s": t for layer, t in tracer.layer_self_times().items()}
    metrics.update(
        {
            "field.elim.calls": n_elim,
            "field.elim.cells": sum(cells),
            "field.elim.empty_share": share(sum(1 for c in cells if c == 0), n_elim),
            "field.elim.small_share": share(sum(1 for c in cells if 0 < c <= SMALL_ELIMINATION_CELLS), n_elim),
            "field.elim.large_share": share(sum(1 for c in cells if c > SMALL_ELIMINATION_CELLS), n_elim),
            "field.elim.max_cells": max(cells, default=0),
            "field.mat.constructs": calls.get("field.Mat.__init__", 0),
        }
    )
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in REPEAT_SHARES:
        metrics[f"{name}.repeat_share"] = share(tracer.repeats[name], calls.get(name, 0))
    metrics.update(
        {
            "modules.iso_search.candidates": tracer.iso_candidates,
            "modules.iso_search.hit_ratio": share(tracer.iso_hits, tracer.iso_candidates),
            "trace.items": tracer.item_count(),
            "trace.spans": tracer.span_count(),
            "trace.overhead_ratio": share(s["busy_s"], plain_busy),
        }
    )
    details = {
        "batches": batches,
        "untraced_busy_s": plain_busy,
        "outputs_match_untraced": same,
        "properties": workload.properties(state),
        **s,
    }
    return metrics, PER_LAYER, s["items"], s["failed"], same, details


def fix_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds at their 128 KiB defaults.

    Left dynamic, glibc raises the mmap threshold after a large array is
    freed and then keeps such arrays on the heap, so the resident set stays
    at the high-water mark of whichever rare large item ran.  Fixed, freed
    large arrays go back to the system and the resident set between items
    measures what the program keeps.  Without glibc this is skipped."""
    name = ctypes.util.find_library("c")
    if name is None:
        return
    try:
        libc = ctypes.CDLL(name)
        libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)
        libc.mallopt(M_TRIM_THRESHOLD, 128 * 1024)
    except (OSError, AttributeError):
        pass


class UnknownWorkload(LookupError):
    pass


def pick(workloads, name: str):
    if name not in workloads.WORKLOADS:
        raise UnknownWorkload(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="derlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    src = ROOT / "src"
    if not (src / "derlab" / "__init__.py").is_file():
        print(f"error: no derlab source tree at {src}", file=sys.stderr)
        return 2
    fix_malloc_thresholds()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    t0 = time.perf_counter()
    import speed  # imports numpy

    numpy_s = time.perf_counter() - t0
    try:
        if args.trace:
            import workloads

            workload = pick(workloads, args.workload)
            metrics, declared, attempted, failed, consistent, details = trace(workload, args.seed, args.seconds)
        else:
            with speed.SpeedMeter() as meter:
                numpy_s *= speed.REF_PROBE_S / meter.probes[0]
                t0 = time.perf_counter()
                import workloads

                t1 = time.perf_counter()
                meter.sample()
                workload = pick(workloads, args.workload)
                import_s = numpy_s + meter.scaled(t0, t1)
                metrics, declared, attempted, failed, consistent, details = measure(workload, args.seed, args.seconds, import_s, meter)
    except UnknownWorkload as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError, LookupError) as exc:
        traceback.print_exc()
        print(f"error: set-up of {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": environment(args.seed), **details}
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": bool(consistent and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
