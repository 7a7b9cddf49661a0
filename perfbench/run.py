"""ubrsim benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cell-wan-full --seed 1 --seconds 50 --trace 0

`--trace 0` times passes of the workload with no instrumentation until
`--seconds` is spent (at least one pass) and reports the end-to-end metrics.
`--trace 1` runs one plain pass and one pass under the layer tracer and
reports the per-layer metrics.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; every sample and the run's
context are appended to perfbench/runs/records.jsonl.  The exit code is 1
when an output check fails, 2 when ubrsim's sources are missing or an
argument is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
# Fresh interpreters timed per run, half before and half after the passes so
# that the median spans the run; one more probe first fills __pycache__.
SETUP_PROBES = 8

END_TO_END = {
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_ok_rate": "ratio",
}
PER_LAYER = {
    "kernel.self_s": "s",
    "kernel.events": "count",
    "kernel.schedules": "count",
    "kernel.ns_per_event": "ns",
    "switchport.self_s": "s",
    "switchport.calls": "count",
    "switchport.ns_per_cell": "ns",
    "switchport.cells_in": "count",
    "switchport.cells_dropped": "count",
    "switchport.drop_ratio": "ratio",
    "aal5.self_s": "s",
    "aal5.frames_ok": "count",
    "aal5.frames_corrupt": "count",
    "aal5.useful_cell_ratio": "ratio",
    "tcp.self_s": "s",
    "tcp.segments_in": "count",
    "tcp.segments_out": "count",
    "tcp.rexmit_ratio": "ratio",
    "tcp.timeouts": "count",
    "tcp.fast_recoveries": "count",
    "www.self_s": "s",
    "www.requests": "count",
    "www.responses": "count",
    "netsim.build_s": "s",
    "metrics.self_s": "s",
    "experiment.write_s": "s",
    "factorial.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ubrsim():
    """Import ubrsim from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "ubrsim", "__init__.py")
    if not os.path.isfile(init):
        refuse(f"no ubrsim sources at {init}")
    sys.path.insert(0, SRC)
    import ubrsim
    if os.path.abspath(ubrsim.__file__) != init:
        refuse(f"imported ubrsim from {ubrsim.__file__}, not {init}")
    return ubrsim


def git_commit(root: str) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def context(ubrsim, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ubrsim_version": ubrsim.__version__,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "started_unix": time.time(),
        "loadavg_start": os.getloadavg(),
    }


def setup_probes(workload: str, seed: int, n: int) -> list:
    """Wall seconds of `n` fresh interpreters running setup_probe.py."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def timed_passes(run_pass, seconds: float) -> list:
    """Untraced passes until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def end_to_end(passes, setup, error_rate) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "cells_per_s": passes[0].totals["cells_in"] / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cell_ok_rate": 1.0 - error_rate,
    }


def ratio(num, den) -> float:
    """num / den, or 0.0 when a failed pass left nothing to divide by."""
    return num / den if den else 0.0


def per_layer(tr, traced, plain) -> dict:
    ports = traced.ports

    def port_sum(key):
        return sum(p[key] for p in ports)

    def self_s(layer):
        return tr.self_ns[layer] / 1e9

    events = traced.totals["events"]
    cells_in = port_sum("cells_in")
    cells_out = port_sum("cells_out")
    requests = tr.calls["ClientApp._send_request"]
    segments_out = tr.calls["netsim.segment_to_cells"]
    return {
        "kernel.self_s": self_s("kernel"),
        "kernel.events": events,
        "kernel.schedules": tr.calls["Simulator.schedule"],
        "kernel.ns_per_event": ratio(tr.self_ns["kernel"], events),
        "switchport.self_s": self_s("switchport"),
        "switchport.calls": tr.layer_calls("switchport"),
        "switchport.ns_per_cell": ratio(tr.self_ns["switchport"], cells_in),
        "switchport.cells_in": cells_in,
        "switchport.cells_dropped": port_sum("cells_dropped"),
        "switchport.drop_ratio": ratio(port_sum("cells_dropped"), cells_in),
        "aal5.self_s": self_s("aal5"),
        "aal5.frames_ok": port_sum("frames_ok"),
        "aal5.frames_corrupt": port_sum("frames_corrupt"),
        "aal5.useful_cell_ratio": ratio(cells_out - port_sum("cells_wasted"), cells_out),
        "tcp.self_s": self_s("tcp"),
        "tcp.segments_in": tr.calls["TcpEndpoint.on_frame"],
        "tcp.segments_out": segments_out,
        "tcp.rexmit_ratio": ratio(traced.totals["rexmit_segs"], segments_out),
        "tcp.timeouts": traced.totals["timeouts"],
        "tcp.fast_recoveries": traced.totals["fast_recoveries"],
        "www.self_s": self_s("www"),
        "www.requests": requests,
        # the apps are the only writers: clients write requests, servers responses
        "www.responses": tr.calls["TcpEndpoint.write"] - requests,
        "netsim.build_s": self_s("netsim"),
        "metrics.self_s": self_s("metrics"),
        "experiment.write_s": self_s("experiment"),
        "factorial.self_s": self_s("factorial"),
        "trace.wall_s": tr.wall_ns / 1e9,
        "trace.unattributed_s": tr.unattributed_ns / 1e9,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    ubrsim = import_ubrsim()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; "
               f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(RUNS, exist_ok=True)
    csv_path = os.path.join(RUNS, f"{wl.name}-seed{args.seed}.csv")
    record = context(ubrsim, args)
    scenario = wl.scenario(args.seed)

    def run_pass():
        return workloads.run_pass(wl, scenario, csv_path)

    if args.trace:
        plain = run_pass()
        tr = tracer.LayerTracer()
        with tr.installed():
            traced = run_pass()
        passes = [plain, traced]
        metrics = per_layer(tr, traced, plain)
        record["layer_self_ns"] = tr.self_ns
        record["entry_calls"] = tr.calls
        units = PER_LAYER
    else:
        half = SETUP_PROBES // 2
        setup = setup_probes(wl.name, args.seed, half + 1)[1:]
        passes = timed_passes(run_pass, args.seconds)
        setup += setup_probes(wl.name, args.seed, half)
        metrics = end_to_end(passes, setup, workloads.cell_error_rate(passes))
        record["setup_samples_s"] = setup
        units = END_TO_END

    digests = sorted({p.digest for p in passes})
    failures = [f for p in passes for f in p.failures]
    if len(digests) > 1:
        failures.append(f"results CSV differs between passes: {digests}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(workloads.failed_cells(p) for p in passes)
    correct = not failures

    record.update({
        "loadavg_end": os.getloadavg(),
        "digest_sha256": digests,
        "passes": [{"wall_s": p.wall_s, "digest": p.digest, "totals": p.totals,
                    "failures": p.failures} for p in passes],
        "metrics": metrics,
        "correct": correct,
    })
    with open(os.path.join(RUNS, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {len(passes)} passes, median "
          f"{statistics.median(p.wall_s for p in passes):.3f} s, "
          f"results sha256 {' '.join(digests)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
