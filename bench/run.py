"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload field-queries --seed 3 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The
workloads (verify-all, field-queries, flow-figures) are described in
bench/README.md.  Each is a closed loop with one client in this process:
the next operation starts when the previous one and its checks are done.

--trace 0 reports the end-to-end metrics.  Times are in host-reference
units (ref): a fixed numpy + interpreter computation that shares no code or
cache with modularflow is timed every 10 ms, and each operation's CPU time
is divided by the median reference time within 0.25 s of it.  --trace 1 wraps the program's public functions, records a span
per call for the first operations, writes the spans to bench/out/ and
reports the per-layer metrics per traced operation.

The last line of standard output is the result; everything else goes to
standard error.  The exit status is 0 when the run completes, whether or
not checks failed (failed operations are counted in the result).
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")

REF_INTERVAL = 0.01  # seconds between reference timings
REF_WINDOW = 0.25  # an operation is normalized by the references this close to it
TAIL_Q = 0.90  # tail percentile; ~150 operations per run leave ~15 beyond it


def import_program():
    """Import modularflow (and with it numpy and scipy) from ./src only."""
    init = os.path.join(SRC, "modularflow", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: {init} not found; run from the repository root")
    sys.path.insert(0, SRC)
    import modularflow
    from modularflow import axb_group, cli, cone_wedge, flow_maps, verify, weyl_field  # noqa: F401

    if os.path.abspath(modularflow.__file__) != init:
        sys.exit(f"bench: imported {modularflow.__file__}, expected {init}")
    return modularflow


class HostReference:
    """A fixed numpy + interpreter computation timed every REF_INTERVAL seconds.

    It runs from SIGALRM in the main thread, so the samples cover every
    stretch of the run evenly, inside long operations too.  ``clock``, the
    clock operations are timed with, is the process's CPU time less the CPU
    time spent here: CPU time leaves out the stretches in which the
    hypervisor runs other guests on this CPU (steal time), which wall time
    counts and the median of short reference timings does not.
    """

    def __init__(self):
        import numpy as np

        data = np.random.default_rng(20261017).standard_normal(8192)

        def work():
            s = np.sort(data)
            c = np.exp(-0.5 * data * data) * np.cos(3.0 * data) + np.log1p(np.abs(s))
            acc = 0.0
            for i in range(1500):
                acc += (i * 0.37) % 1.3
            return float(c.sum()) + acc

        self.work = work
        self.samples = []  # (start, seconds)
        self.busy = 0.0
        self.running = False

    def _tick(self, signum, frame):
        if self.running:  # a tick that lands inside the previous one is dropped
            return
        self.running = True
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            self.work()
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
        finally:
            self.running = False
        self.samples.append((t0, dt))
        self.busy += dc

    def clock(self) -> float:
        while True:
            busy = self.busy
            now = time.process_time()
            if busy == self.busy:  # no tick in between
                return now - busy

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def local(self, start, end):
        """Median reference time over [start - REF_WINDOW, end + REF_WINDOW]."""
        lo = bisect.bisect_left(self.samples, (start - REF_WINDOW,))
        hi = bisect.bisect_right(self.samples, (end + REF_WINDOW, math.inf))
        return statistics.median(dt for _, dt in self.samples[lo:hi])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter: import plus one warm-up operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-all", "field-queries", "flow-figures"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    mf = import_program()
    t_import = time.perf_counter() - _T0

    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[args.workload](mf, args.seed, OUT, tracer)
    try:
        warm = wl.make(-1)
        out, t_warm = wl.run(warm, time.perf_counter)
        setups = [t_import + t_warm]
        errors = wl.check(warm, out)
        if errors:
            print(f"warm-up operation failed its checks: {errors[:5]}", file=sys.stderr)
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [probe_setup(args) for _ in range(wl.setup_probes)]

        if args.trace:
            tracer.install(mf)
        ops = []  # (start, end, CPU seconds, traced) of each operation that passed
        attempted = failed = wrong = 0
        with HostReference() as ref:
            start = time.perf_counter()
            i = 0
            while (time.perf_counter() - start < args.seconds
                   or (args.trace and i < wl.traced_ops)):
                inp = wl.make(i)
                traced = bool(args.trace) and i < wl.traced_ops
                tracer.op = i if traced else None
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out, dt = wl.run(inp, ref.clock)
                except Exception:
                    failed += 1
                    print(f"operation {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
                else:
                    t1 = time.perf_counter()
                    tracer.op = None
                    errors = wl.check(inp, out)
                    if errors:
                        failed += 1
                        wrong += 1
                        print(f"operation {i} failed its checks: {errors[:5]}", file=sys.stderr)
                    else:
                        ops.append((t0, t1, dt, traced))
                finally:
                    tracer.op = None
                i += 1
            time.sleep(REF_WINDOW)  # references after the last operation
    finally:
        wl.close()

    if not ops:
        sys.exit(f"bench: {args.workload}: all {attempted} operations failed")
    ref_median = statistics.median(dt for _, dt in ref.samples)
    raw = sorted(dt for _, _, dt, _ in ops)
    in_ref = {k: sorted(dt / ref.local(t0, t1) for t0, t1, dt, traced in ops if traced == k)
              for k in (False, True)}
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"reference median {ref_median * 1e3:.4f} ms over {len(ref.samples)} timings; "
          f"median operation {statistics.median(raw) * 1e3:.3f} ms", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"run-{name}.json"), "w") as fh:
        json.dump({"operations": ops, "reference": ref.samples, "setups": setups}, fh)
    if args.trace:
        metrics = tracer.layer_metrics(min(i, wl.traced_ops))
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        if in_ref[True]:
            print(f"traced operations: median {statistics.median(in_ref[True]):.4f} ref; "
                  f"spans in {path}", file=sys.stderr)
    else:
        times = in_ref[False]
        # too few verify passes for a tail: report the slowest one
        tail_q = TAIL_Q if args.workload != "verify-all" else 1.0
        metrics = {
            "time_p50_ref": {"value": statistics.median(times), "unit": "ref"},
            "time_tail_ref": {"value": percentile(times, tail_q), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        beyond = len(times) - math.ceil(tail_q * len(times))
        print(f"raw: median {statistics.median(raw) * 1e3:.3f} ms, p{tail_q * 100:.0f} "
              f"{percentile(raw, tail_q) * 1e3:.3f} ms ({beyond} operations beyond it); "
              f"setups {[round(x, 4) for x in setups]} s", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
