"""One pass of a workload in a fresh, single-threaded process.

    python3 perfbench/bench_worker.py --root DIR --workload NAME --seed N --trace 0|1

The worker imports congsub from DIR/src, makes the workload's inputs
from the seed, runs every job once under its time budget, checks each
answer untimed, and prints one JSON object.  Before the first job and
after each one it times the reference loop of bench_speed.py, so that
the caller can scale each job's time to the machine at rest.  The
caller (run.py) starts one worker per pass, so no pass can reuse what
an earlier pass computed.  Set-up is timed apart, by bench_setup.py.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import bench_jobs  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402


class JobTimeout(Exception):
    """A job ran over its time budget."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_jobs(jobs, api, tracer=None) -> list[dict]:
    """Run each job once; a job that raises, answers wrongly or overruns fails.

    Each job is stopped by SIGALRM when its budget runs out, so this must
    run in the main thread.  Untraced, a job's ``reference_s`` is the
    mean of the reference loop's times right before and right after it.
    Traced, the loop is not run: it leaves the caches cold for the start
    of the next job, outside any span, which the check that layer self
    times cover the job time would count against the tracer.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    reference_before = bench_speed.reference_s() if tracer is None else None
    try:
        for job in jobs:
            status, seconds = "ok", None
            signal.setitimer(signal.ITIMER_REAL, job.budget_s)
            start = perf_counter()
            try:
                if tracer is None:
                    result = job.run(api)
                else:
                    with tracer.job_span(job.id):
                        result = job.run(api)
                seconds = perf_counter() - start
            except JobTimeout:
                status = "timeout"
            except Exception as exc:  # a job that raises is a failed job, not a crash
                status = "error: %s: %s" % (type(exc).__name__, exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if status == "ok" and not job.check(result):
                status = "wrong, against %s: %r" % (job.source, result)
            results.append({"id": job.id, "status": status, "seconds": seconds})
            if tracer is None:
                reference_after = bench_speed.reference_s()
                results[-1]["reference_s"] = (reference_before + reference_after) / 2
                reference_before = reference_after
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results


def import_package(root: Path) -> dict[str, types.ModuleType]:
    """Import congsub from root/src and do its set-up: building the
    presentation belongs to set-up, not to the first job that needs it."""
    src = root / "src"
    sys.path.insert(0, str(src))
    importlib.import_module("congsub.cli")
    importlib.import_module("congsub.autpres").presentation()
    package = sys.modules["congsub"]
    if Path(package.__file__).resolve().parent != (src / "congsub").resolve():
        raise RuntimeError("congsub was imported from %s, not from %s" % (package.__file__, src))
    modules = {name: sys.modules["congsub." + name] for name in bench_trace.MODULES}
    return modules


def run_pass(root: Path, workload: str, seed: int, trace: bool) -> dict:
    modules = import_package(root)
    api = types.SimpleNamespace(**modules)
    jobs = bench_jobs.make_jobs(workload, seed, api)
    out = {}
    if trace:
        tracer = bench_trace.Tracer(modules)
        with tracer.installed() as traced_api:
            out["jobs"] = run_jobs(jobs, traced_api, tracer)
        own = tracer.self_times()
        out["layers"] = tracer.layer_metrics()
        out["covered_s"] = sum(own.get(layer, 0.0) for layer in bench_trace.LAYERS) \
            + own.get(bench_trace.TRACING, 0.0)
    else:
        out["jobs"] = run_jobs(jobs, api)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True, choices=sorted(bench_jobs.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(run_pass(args.root, args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
