"""Benchmark entry point: time to a certified answer, end to end and per layer.

    python3 perfbench/run.py --workload klein-products --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Every report runs in a fresh
single-process interpreter (``worker.py``) that imports the library from
``./src``, sets up, runs the workload's items in a closed loop, checks
every answer and prints its timings.  Reports repeat while another one
fits in ``--seconds``; there is always at least one.  With ``--trace 0``
extra set-up-only interpreters bring the set-up samples to
SETUP_SAMPLES, and the end-to-end metrics are medians over reports.
With ``--trace 1`` untraced and traced reports alternate, and the
per-layer metrics come from the traced ones (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give a readable summary and a ``details`` record with the machine,
the seed, sample counts and failures.  Exit status 0 when every answer
is right, 1 when one is not, 2 when ``./src`` holds no library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_MAP, units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HARD_LIMIT_S = 165      # no process is started that would not end by then
SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class Runner:
    """Starts worker interpreters one at a time inside the run's time limit."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.start = time.perf_counter()
        self.errors = []

    def elapsed(self):
        return time.perf_counter() - self.start

    def fits(self, estimate, budget):
        return self.elapsed() + estimate <= budget

    def run(self, *flags):
        """The worker's JSON result, or None when it failed or ran out of time."""
        timeout = HARD_LIMIT_S + 10 - self.elapsed()
        try:
            proc = subprocess.run(self.base + list(flags), cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker {' '.join(flags)} killed after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"worker {' '.join(flags)} exit {proc.returncode}: {tail}")
            return None
        return json.loads(lines[-1])


def run_reports(runner, seconds, traced_too):
    """Reports (and, with ``traced_too``, traced reports) until --seconds is used."""
    kinds = [[], []] if traced_too else [[]]
    cycles = []
    while True:
        begin = runner.elapsed()
        for k, reports in enumerate(kinds):
            reports.append(runner.run("--trace") if k else runner.run())
        cycles.append(runner.elapsed() - begin)
        if any(r[-1] is None for r in kinds):
            break
        estimate = statistics.mean(cycles)
        if not (runner.fits(estimate, seconds) and runner.fits(estimate, HARD_LIMIT_S)):
            break
    return kinds


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "restrep" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no restrep sources under ./src; "
                         "run from the root of a checkout\n")
        return 2

    runner = Runner(root, args.workload, args.seed)
    kinds = run_reports(runner, args.seconds, bool(args.trace))
    plain = [r for r in kinds[0] if r is not None]
    traced = [r for r in kinds[-1] if r is not None] if args.trace else []
    if not plain or (args.trace and not traced):
        for err in runner.errors:
            sys.stderr.write(f"perfbench: {err}\n")
        return 1
    setups = [r["setup_s"] for r in plain]
    if not args.trace:
        estimate = max(setups) + 1.0
        while len(setups) < SETUP_SAMPLES and runner.fits(estimate, HARD_LIMIT_S):
            probe = runner.run("--setup-only")
            if probe is None:
                break
            setups.append(probe["setup_s"])

    done = plain + traced
    per_report = done[0]["attempted"]
    dead = sum(r is None for reports in kinds for r in reports)
    attempted = sum(r["attempted"] for r in done) + dead * per_report
    failed = sum(r["failed"] for r in done) + dead * per_report
    notes = list(runner.errors) + [f for r in done for f in r["failures"]]
    digests = sorted({r["report_sha256"] for r in done})
    if len(digests) > 1:
        notes.append(f"reports differ: {digests}")

    if args.trace:
        fired = set().union(*(r["fired"] for r in traced))
        missing = sorted(span for span, (_, wls) in LAYER_MAP.items()
                         if args.workload in wls and span not in fired)
        if missing:
            notes.append(f"spans that never fired: {missing}")
        unit = {name: u for name, u, _ in units()}
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        values["trace.unattributed_s"] = median_of(traced, "unattributed_s")
        metrics = {name: {"value": values[name], "unit": unit[name]} for name, _, _ in units()}
    else:
        missing = []
        values = {"setup_s": statistics.median(setups),
                  "wall_s": median_of(plain, "wall_s"),
                  "item_p50_ms": 1e3 * median_of(plain, "item_p50_s"),
                  "item_tail_ms": 1e3 * median_of(plain, "item_tail_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END}

    correct = failed == 0 and not dead and len(digests) == 1 and not missing
    fail_ratio = failed / attempted
    machine = done[0]["machine"]
    if machine["blas_oversubscribed"]:
        notes.append(f"OpenBLAS runs {machine['openblas_threads']} threads on "
                     f"{machine['nproc']} CPUs")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "reports": len(plain), "traced_reports": len(traced),
               "items_per_report": per_report, "setup_samples": len(setups),
               "tail_percentile": done[0]["tail_percentile"],
               "fail_ratio": fail_ratio, "report_sha256": digests,
               "report_pinned": done[0]["report_pinned"], "machine": machine,
               "notes": notes[:20]}

    print(f"{args.workload} seed={args.seed}: {len(plain)} report(s) of {per_report} items"
          + (f", {len(traced)} traced" if args.trace else f", {len(setups)} set-ups"))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<36} {fail_ratio:>14.6g} ratio ({failed}/{attempted})")
    for note in notes[:20]:
        print(f"  ! {note}")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
