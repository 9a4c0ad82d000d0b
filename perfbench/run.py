"""popvol benchmark: drives the real CLI one process at a time and checks every output.

Run from the root of a popvol checkout:

    python3 perfbench/run.py --workload large_raster --seed 1 --seconds 36 --trace 0

An op is ``popvol synth`` on the workload's scene, then ``popvol run`` on its
outputs, then ``popvol --version`` twice, each a child process awaited before
the next starts: a closed loop with one client. The last line of standard
output is the result JSON; the line before it holds sample counts,
percentiles, per-op problems and the machine. README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("large_raster", "dense_blocks", "demo_site")
# the workloads BENCHMARK.json names; demo_site is run by hand (see README.md)
MEASURED = ("large_raster", "dense_blocks")
SETUP_REPS = 2
STARTUP_REPS = 2  # popvol --version calls per op and per set-up
IMPORT_REPS = 3
INTERP_REPS = 5
WORK_DIR = ".bench_work"

E2E_UNITS = {
    "run_s": "s",
    "synth_s": "s",
    "run_peak_rss_mb": "MB",
    "synth_peak_rss_mb": "MB",
    "startup_s": "s",
    "setup_s": "s",
}
# per-layer metrics measured on child processes or around the traced op,
# besides those spans.Tracer.metrics() reports
PROCESS_METRICS = (
    "cli.interp_s",
    "cli.import_s",
    "cli.import.numpy_s",
    "cli.import.scipy_s",
    "cli.import.popvol_s",
    "cli.run_cpu_s",
    "cli.synth_cpu_s",
    "cli.trace_overhead_s",
)


class Checkout:
    """The popvol checkout under test and the child processes run in it."""

    def __init__(self, root: Path, site: Path):
        self.root = root
        self.site = site
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_log = site.with_name(site.name + ".stderr.log")

    def spawn(self, *argv: str) -> dict:
        """Run one Python child to completion: exit code, wall and user+sys
        seconds, peak RSS in MB."""
        with open(self.stderr_log, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0}

    def synth_argv(self) -> list[str]:
        out = self.site / "out"
        return ["synth", "--scene", str(self.site / "scene.json"), "--out-dsm", str(out / "dsm.asc"),
                "--out-footprints", str(out / "footprints.geojson")]

    def run_argv(self) -> list[str]:
        return ["run", "--config", str(self.site / "config.json")]

    def pair(self) -> dict:
        """One synth then one run, each in its own child process."""
        shutil.rmtree(self.site / "out", ignore_errors=True)
        return {argv[0]: self.spawn("-m", "popvol.cli", *argv)
                for argv in (self.synth_argv(), self.run_argv())}

    def startup(self) -> list[dict]:
        """``popvol --version``, ``STARTUP_REPS`` times."""
        return [self.spawn("-m", "popvol.cli", "--version") for _ in range(STARTUP_REPS)]


def closed_loop(seconds: float, op) -> list:
    """Call ``op`` back to back while the next call is expected to end no
    later than half a call past ``seconds`` from the start, judged by the
    last call; at least once. On average the loop then lasts ``seconds``."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        results.append(op())
        now = time.perf_counter()
        if now + (now - t0) / 2 > deadline:
            return results


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = ordered[math.ceil(p / 100 * n) - 1]
    else:
        out["max"] = ordered[-1]
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


class Bench:
    """One workload at one seed: its inputs, reference outputs and op tally."""

    def __init__(self, ck: Checkout, workload: str, seed: int):
        self.ck = ck
        self.workload = workload
        self.seed = seed
        self.scene: dict = {}
        self.amenities: dict[str, int] = {}
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, rec: dict) -> None:
        """Check the outputs of one op; ``rec`` holds its children's results."""
        self.attempted += 1
        rcs = {"synth": rec["synth"]["rc"], "run": rec["run"]["rc"],
               "--version": next((r["rc"] for r in rec["startup"] if r["rc"]), 0)}
        found = check.check_op(self.ck.site / "out", rcs, self.scene, self.amenities, self.reference)
        self.problems += [f"{label}: {p}" for p in found]
        self.failed += bool(found)

    def setup(self, reps: int) -> list[dict]:
        """Generate the inputs and run the first, untimed pair, ``reps`` times,
        each from an empty site directory; after each, time ``--version``.

        The first rep's outputs become the reference every later op must
        match byte for byte; on the demo site at its recorded seed, the
        recorded digests are the reference instead.
        """
        recs = []
        for rep in range(reps):
            shutil.rmtree(self.ck.site, ignore_errors=True)
            self.ck.site.mkdir(parents=True)
            t0 = time.perf_counter()
            self.scene = gen.write_inputs(self.workload, self.seed, self.ck.site, self.ck.root / "demo")
            rec = self.ck.pair()
            setup_s = time.perf_counter() - t0
            rec["startup"] = self.ck.startup()
            if rep == 0:
                self.amenities = check.expected_amenities(self.ck.site)
                if self.workload == "demo_site":
                    self.reference = check.demo_digests(self.seed)
            self.check(f"setup {rep}", rec)
            if self.reference is None:
                self.reference = check.digests(self.ck.site / "out")
            recs.append(dict(rec, setup_s=setup_s))
        return recs

    def timed_op(self) -> dict:
        rec = self.ck.pair()
        rec["startup"] = self.ck.startup()
        self.check(f"op {self.attempted}", rec)
        return rec

    def in_process_op(self, main) -> float:
        """One synth+run through ``main`` in this process; returns its wall time."""
        shutil.rmtree(self.ck.site / "out", ignore_errors=True)
        rec = {"startup": []}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (self.ck.synth_argv(), self.ck.run_argv()):
                t0 = time.perf_counter()
                rc = main(argv)
                rec[argv[0]] = {"rc": rc, "s": time.perf_counter() - t0}
        self.check("in-process op", rec)
        return rec["synth"]["s"] + rec["run"]["s"]


def end_to_end(setups: list[dict], ops: list[dict]) -> tuple[dict, dict]:
    samples = {
        "run_s": [o["run"]["s"] for o in ops],
        "synth_s": [o["synth"]["s"] for o in ops],
        "run_peak_rss_mb": [o["run"]["rss_mb"] for o in ops],
        "synth_peak_rss_mb": [o["synth"]["rss_mb"] for o in ops],
        "startup_s": [r["s"] for o in setups + ops for r in o["startup"]],
        "setup_s": [s["setup_s"] for s in setups],
    }
    detail = {k: summarize(v) for k, v in samples.items()}
    metrics = {k: {"value": detail[k]["median"], "unit": E2E_UNITS[k]} for k in samples}
    return metrics, detail


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent importing popvol.cli (cumulative time of the top-level
    entry) and, within it, the self time of numpy's, scipy's and popvol's
    own modules, from ``-X importtime`` output."""
    rows = _IMPORTTIME.findall(stderr)

    def self_s(package: str) -> float:
        return sum(int(s) for s, _, _, name in rows if name.split(".")[0] == package) / 1e6

    return {
        "cli.import_s": sum(int(c) for _, c, indent, name in rows
                            if not indent and name.startswith("popvol")) / 1e6,
        "cli.import.numpy_s": self_s("numpy"),
        "cli.import.scipy_s": self_s("scipy"),
        "cli.import.popvol_s": self_s("popvol"),
    }


def per_layer(bench: Bench, setups: list[dict], seconds: float) -> tuple[dict, dict]:
    """The traced run: interpreter and import children, then pairs of an
    untraced and a traced in-process op in a closed loop."""
    ck = bench.ck
    samples: dict[str, list[float]] = {
        "cli.run_cpu_s": [s["run"]["cpu_s"] for s in setups],
        "cli.synth_cpu_s": [s["synth"]["cpu_s"] for s in setups],
        "cli.interp_s": [ck.spawn("-c", "pass")["s"] for _ in range(INTERP_REPS)],
    }
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import popvol.cli"],
            cwd=ck.root, env=ck.env, capture_output=True, text=True, check=True,
        )
        for k, v in import_breakdown(proc.stderr).items():
            samples.setdefault(k, []).append(v)

    sys.path.insert(0, str(ck.root / "src"))
    import popvol.cli

    tracers = []

    def traced_pair() -> dict:
        plain = bench.in_process_op(popvol.cli.main)
        tracer = spans.Tracer(op=len(tracers))
        with spans.traced(tracer) as main:
            wall = bench.in_process_op(main)
        tracers.append(tracer)
        op = tracer.metrics()
        op["cli.trace_overhead_s"] = wall - plain
        for k, v in op.items():
            samples.setdefault(k, []).append(v)
        return {"traced_wall_s": wall, "self_sum_s": sum(tracer.self_times().values()),
                "untraced_wall_s": plain}

    bench.in_process_op(popvol.cli.main)  # warm-up: the first in-process op grows the heap
    accounting = closed_loop(seconds, traced_pair)
    (ck.site / "spans.json").write_text(json.dumps([s for t in tracers for s in t.spans]) + "\n")
    units = dict.fromkeys(PROCESS_METRICS, "s") | spans.METRIC_UNITS
    metrics = {k: {"value": statistics.median(v), "unit": units.get(k, "s")} for k, v in samples.items()}
    return metrics, {"traced_ops": accounting}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "popvol" / "cli.py").is_file() or not (root / "demo" / "scene.json").is_file():
        print("perfbench: run from the root of a popvol checkout (src/popvol/ and demo/ not found)",
              file=sys.stderr)
        return 2

    ck = Checkout(root, root / WORK_DIR / args.workload)
    ck.stderr_log.parent.mkdir(parents=True, exist_ok=True)
    ck.stderr_log.write_bytes(b"")
    bench = Bench(ck, args.workload, args.seed)
    if args.trace:
        metrics, detail = per_layer(bench, bench.setup(1), args.seconds)
    else:
        setups = bench.setup(SETUP_REPS)
        metrics, detail = end_to_end(setups, closed_loop(args.seconds, bench.timed_op))

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "samples": detail, "problems": bench.problems[:20],
    }))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
