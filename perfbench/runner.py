"""One benchmark round in a fresh interpreter.

Reads a JSON spec on stdin, imports glcoeff from the checkout's `src`,
runs the timed CLI commands in process (stdout captured), then the
untimed check commands, and prints one JSON line with the captured
outputs, the timings of the timed span and, when traced, the span
aggregates of this process and of its pool workers.

    python3 perfbench/runner.py < spec.json
"""
import contextlib
import glob
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation too
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = -1
    return {"argv": list(argv), "rc": rc, "out": out.getvalue(),
            "err": err.getvalue(), "wall_s": time.perf_counter() - t0}


def _peak_rss_kb() -> int:
    """Peak resident set of this process image.  ru_maxrss is not used
    for it: Linux carries it over exec from the process that spawned us."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _jobs(argv) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from glcoeff import cli

    run = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        os.makedirs(spec["out_dir"], exist_ok=True)
        tracer = Tracer(spec["out_dir"])
        tracer.install()
        run = tracer.span("cli.main", cli.main)
    cli.build_parser()

    t_ready = time.perf_counter()
    cpu0 = _cpu_s()
    timed = [_run(run, argv) for argv in spec["ops"]]
    t_end = time.perf_counter()
    cpu1 = _cpu_s()
    own_kb = _peak_rss_kb()
    # pool workers are forked, not exec'd, so their ru_maxrss is their own
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    jobs = max([_jobs(argv) for argv in spec["ops"]] + [1])

    result = {
        "t_ready": t_ready,
        "wall_s": t_end - t_ready,
        "cpu_s": cpu1 - cpu0,
        # every worker is counted at the peak of the largest one
        "peak_rss_mb": (own_kb + jobs * worker_kb) / 1024,
        "own_rss_mb": own_kb / 1024,
        "worker_rss_mb": worker_kb / 1024,
        "jobs": jobs,
        "ops": timed,
    }
    if tracer is not None:
        tracer.write_spans(os.path.join(spec["out_dir"], "main-spans"))
        summaries = [tracer.summary()]
        for path in sorted(glob.glob(os.path.join(spec["out_dir"],
                                                  "worker-*-summary.json"))):
            with open(path) as fh:
                summaries.append(json.load(fh))
        result["trace"] = summaries
    result["checks"] = [_run(cli.main, argv) for argv in spec["check_ops"]]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
