"""One report of one workload, in this fresh interpreter.

    python3 perfbench/worker.py --workload klein-products --seed 0 [--trace] [--setup-only]

Run from the root of a checkout with its ``src`` on PYTHONPATH; ``run.py``
does both.  Times the imports plus set-up, then runs every item in a
closed loop, checks each item's verdict flags and its rows against the
digest pinned in ``pins.json``, serializes the report through
``restrep.cli.emit`` and checks the report digest.  An exception or a
failed check counts the item as failed and the loop goes on.  Prints one
JSON object on its last line.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, PINS, WORKLOADS  # noqa: E402


def item_digest(rows):
    text = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(workload, rows, ok):
    from restrep import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(rows, "json", None, workload, ok)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def pinned_report(pins, seed):
    """The pinned report digest that applies to this seed, or None."""
    report = pins["report"]
    if report["seed"] is None or report["seed"] == seed:
        return report["sha256"]
    return None


def tail_latency(values):
    """(value, percentile): the highest percentile with >= 10 items beyond it.

    With fewer than 11 items no percentile has 10 beyond it, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_report(wl, pins, seed, tracer):
    items = wl.items()
    rows, failures, latencies = [], [], []
    top_before = tracer.top_s if tracer else 0.0
    t0 = time.perf_counter()
    for key, call in items:
        start = time.perf_counter()
        try:
            got = call()
        except Exception as exc:   # an item that raises is a failed item, not a crash
            latencies.append(time.perf_counter() - start)
            failures.append(f"{key}: {type(exc).__name__}: {exc}")
            rows.append({"item": key, "error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies.append(time.perf_counter() - start)
        rows.extend(got)
        if not wl.verdict(key, got):
            failures.append(f"{key}: verdict false")
        elif item_digest(got) != pins["items"].get(key):
            failures.append(f"{key}: rows digest {item_digest(got)} is not the pinned one")
    ok = not failures
    digest = report_digest(wl.name, rows, ok)
    wall = time.perf_counter() - t0
    expected = pinned_report(pins, seed)
    failed = len(failures)
    if expected is not None and digest != expected:
        failures.append(f"report digest {digest} is not the pinned {expected}")
        failed = len(items)
    out = {"wall_s": wall, "latencies_s": latencies, "attempted": len(items),
           "failed": failed, "failures": failures[:5], "report_sha256": digest,
           "report_pinned": expected is not None}
    if tracer is not None:
        out["unattributed_s"] = wall - (tracer.top_s - top_before)
    return out


def openblas_info():
    """(threads, version) of the OpenBLAS numpy loaded, or (None, None)."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def machine():
    import numpy
    threads, config = openblas_info()
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "openblas_threads": threads, "openblas": config,
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_oversubscribed": threads is not None and threads > nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import restrep.cli  # noqa: F401  (every layer, as the command line imports them)
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    out = {"setup_s": time.perf_counter() - t0}
    if not args.setup_only:
        pins = json.loads(PINS.read_text())[args.workload]
        out.update(run_report(wl, pins, args.seed, tracer))
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["fired"] = sorted(tracer.fired())
        lat = out["latencies_s"]
        out["item_p50_s"] = statistics.median(lat)
        out["item_tail_s"], out["tail_percentile"] = tail_latency(lat)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        out["machine"] = machine()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
