"""Benchmark of congsub: time until a checked exact answer arrives.

    python3 perfbench/run.py --workload level|full|sweep --seed N --seconds S --trace 0|1

The package is imported from src/ of the checkout that holds this
directory.  One caller drives one single-threaded worker process at a
time, closed loop: each pass of the workload's job list runs in a fresh
worker, so no pass reuses what an earlier pass computed.  The number of
passes is fixed by S and the workload (see PASS_SECONDS); only on a
machine so slow that the run would last past OVERRUN times S are fewer
passes made.  Before every pass, SETUP_SAMPLES_PER_PASS bare processes
(bench_setup.py) time set-up alone.

Every time reported is scaled to the machine at rest (bench_speed.py):
the worker and the set-up sampler time a fixed reference loop next to
what they measure, and the time is multiplied by REFERENCE_S over the
loop's time.  The raw times are printed alongside.

With --trace 0 the command reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Every metric is printed with its unit and the
median, quartiles and count of its samples, followed by one
JSON line.  A job that raises, answers wrongly or overruns its budget
fails the run: the JSON says "correct": false and the exit code is 1.
Exit code 2 means the benchmark could not run (no congsub sources, a
worker that crashed or ran past the deadline).
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_jobs  # noqa: E402
import bench_speed  # noqa: E402

# Seconds one untraced pass (worker start and set-up samples included)
# took at the commit that defined the benchmark, on a 2-vCPU virtual
# machine.  A run makes S / PASS_SECONDS passes.
PASS_SECONDS = {"level": 6.5, "full": 9.0, "sweep": 5.0}
SETUP_SAMPLES_PER_PASS = 4
# No pass starts that would end the run after OVERRUN * S seconds, so
# that a run on a slowed machine (or of much slower code) still ends
# near its length.
OVERRUN = 1.25
# The whole command must end within 180 s; no pass starts after this.
DEADLINE_S = 165.0
# Traced self times cover the traced wall time of the jobs to within this share;
# the rest is the jobs' own glue code and the wrappers' call overhead.
COVERAGE_TOLERANCE = 0.03
PER_LAYER_UNITS = {"self_s": "s", "fill": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed job)."""


class Caller:
    def __init__(self, root: Path):
        self.root = root
        self.started = monotonic()

    def left(self) -> float:
        return DEADLINE_S - (monotonic() - self.started)

    def _run(self, flags: list[str], script: str, *args: str) -> dict:
        cmd = [sys.executable, *flags, str(HERE / script), *args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s ran past the deadline: %s" % (script, " ".join(args))) from exc
        if proc.returncode != 0:
            raise BenchError("%s failed (exit %d):\n%s" % (script, proc.returncode, proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def worker(self, *args: str) -> dict:
        return self._run(["-I"], "bench_worker.py", "--root", str(self.root), *args)

    def setup(self) -> dict:
        """One set-up sample, in a process that has imported nothing else."""
        out = self._run(["-I", "-S"], "bench_setup.py")
        src = (self.root / "src" / "congsub").resolve()
        if Path(out["congsub"]).resolve().parent != src:
            raise BenchError("congsub was imported from %s, not from %s" % (out["congsub"], src))
        return out


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes in a run: fixed by the run's length, at least one of each kind."""
    return max(1 + trace, round(seconds / PASS_SECONDS[workload]))


def measure(caller: Caller, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    caller.setup()  # compiles the bytecode; not a sample
    setups, plain, traced = [], [], []
    passes = pass_count(workload, seconds, trace)
    begun = monotonic()
    while len(plain) + len(traced) < passes:
        done = len(plain) + len(traced)
        if done:
            per_pass = (monotonic() - begun) / done
            if caller.left() < 1.5 * per_pass:
                break
            if done >= 1 + trace and (done + 1) * per_pass > OVERRUN * seconds:
                break
        setups += [caller.setup() for _ in range(SETUP_SAMPLES_PER_PASS)]
        use_trace = trace and len(traced) < len(plain)
        one = caller.worker("--workload", workload, "--seed", str(seed), "--trace", str(int(use_trace)))
        (traced if use_trace else plain).append(one)
    if trace and not traced:
        raise BenchError("no traced pass fitted before the deadline")
    return {"setups": setups, "plain": plain, "traced": traced}


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def job_seconds(job: dict) -> float:
    """The job's time scaled to the machine at rest (0 if it never finished)."""
    if job["seconds"] is None:
        return 0.0
    return bench_speed.scaled(job["seconds"], job["reference_s"])


def pass_wall(p: dict) -> float:
    """Seconds the pass spent in its jobs, scaled to the machine at rest."""
    return sum(map(job_seconds, p["jobs"]))


def raw_pass_wall(p: dict) -> float:
    return sum(j["seconds"] or 0.0 for j in p["jobs"])


def slowest_job(p: dict) -> float:
    return max(map(job_seconds, p["jobs"]))


def setup_seconds(sample: dict) -> float:
    return bench_speed.scaled(sample["setup_s"], sample["reference_s"])


def end_to_end(m: dict) -> dict[str, tuple[float, list[float], str]]:
    """Metric -> (reported value: the median of the samples, samples, unit)."""
    plain = m["plain"]
    samples = {
        "wall_s": ([pass_wall(p) for p in plain], "s"),
        "max_job_s": ([slowest_job(p) for p in plain], "s"),
        "setup_s": ([setup_seconds(s) for s in m["setups"]], "s"),
        "peak_rss_mb": ([p["rss_mb"] for p in plain], "MB"),
    }
    return {name: (statistics.median(v), v, unit) for name, (v, unit) in samples.items()}


def per_layer(m: dict) -> dict[str, tuple[float, list[float], str]]:
    traced = m["traced"]
    out = {}
    for name in traced[0]["layers"]:
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
        values = [p["layers"][name] for p in traced]
        out[name] = (statistics.median(values), values, unit)
    overhead = statistics.median(map(raw_pass_wall, traced)) - statistics.median(map(raw_pass_wall, m["plain"]))
    out["tracing_overhead_s"] = (overhead, [overhead], "s")
    return out


def coverage_problems(traced: list[dict]) -> list[str]:
    """Layer self times (plus tracer time) must add up to the traced job wall."""
    problems = []
    for p in traced:
        wall = raw_pass_wall(p)
        if not (1 - COVERAGE_TOLERANCE) * wall <= p["covered_s"] <= wall * (1 + 1e-9):
            problems.append("layer self times cover %.4f s of %.4f s traced" % (p["covered_s"], wall))
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench_jobs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "congsub" / "__init__.py").is_file():
        print("error: no congsub sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run then kills and waits for the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        m = measure(Caller(ROOT), args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    passes = m["plain"] + m["traced"]
    results = [j for pass_ in passes for j in pass_["jobs"]]
    failures = ["%s: %s" % (j["id"], j["status"]) for j in results if j["status"] != "ok"]
    problems = coverage_problems(m["traced"])
    order = [j["id"] for j in passes[0]["jobs"]]
    print("workload %s, seed %d: %d untraced and %d traced passes of %d jobs, one worker at a time"
          % (args.workload, args.seed, len(m["plain"]), len(m["traced"]), len(order)))
    for job_id in order:
        done = [j for p in m["plain"] for j in p["jobs"] if j["id"] == job_id and j["seconds"] is not None]
        if done:
            print("  job %-44s median %.4f s at rest, %.4f s raw  n=%d"
                  % (job_id, statistics.median(map(job_seconds, done)),
                     statistics.median(j["seconds"] for j in done), len(done)))
    for line in failures + problems:
        print("FAILED " + line)
    print("failed_ratio %.4f (%d of %d jobs attempted)"
          % (len(failures) / len(results), len(failures), len(results)))
    print("untraced raw (unscaled) medians: pass %.4f s, set-up %.4f s; reference loop %.4f s, %.4f s at rest"
          % (statistics.median(map(raw_pass_wall, m["plain"])),
             statistics.median(s["setup_s"] for s in m["setups"]),
             statistics.median(j["reference_s"] for p in m["plain"] for j in p["jobs"]),
             bench_speed.REFERENCE_S))

    metrics = per_layer(m) if args.trace else end_to_end(m)
    report = {}
    for name, (value, samples, unit) in metrics.items():
        med, q1, q3 = summary(samples)
        print("%-30s %14.6f %-5s samples: median %.6f  q1 %.6f  q3 %.6f  n=%d"
              % (name, value, unit, med, q1, q3, len(samples)))
        report[name] = {"value": value, "unit": unit}
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failures), "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
