"""glcoeff benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rank-ladder --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each round of a workload runs its CLI
commands in one fresh interpreter (perfbench/runner.py) with cold
program caches, the way a CLI user pays for them; rounds repeat while
another fits in --seconds.  Every output is checked outside the timed
span against independent references (perfbench/checks.py).  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced round (perfbench/tracer.py) with --trace 1.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median

import mpmath as mp

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 165          # whole run, so it ends inside the 180 s budget
SETUP_PROBES = 3           # extra interpreter starts per round, for setup_s


# ---------------------------------------------------------------------------
# workloads: (argv, check) pairs per round, from the seed


def _op(*argv, check):
    return [str(a) for a in argv], check


def rank_ladder(seed):
    ops = [_op("coeff", "--d", 1, "--r", r, "--S", "", "--prec", 256,
               "--seed", seed, check=checks.check_coeff) for r in range(2, 7)]
    ops.append(_op("coeff", "--d", 2, "--r", 3, "--S", "2", "--prec", 256,
                   "--seed", seed, check=checks.check_coeff))
    return ops, []


def tower_sweep(seed):
    return [
        _op("coeff", "--d", 1, "--r", 3, "--S", "2,3", "--prec", 512,
            "--seed", seed, check=checks.check_coeff),
        _op("coeff", "--d", 1, "--r", 2, "--S", "inf", "--prec", 512,
            "--seed", seed, check=checks.check_coeff),
        _op("zeta", "--eval", "ztilde-s", "--at", 1, "--d", 1, "--S", "2,inf",
            "--prec", 1024, "--seed", seed, check=checks.check_zeta),
        _op("zeta", "--eval", "ztilde-s", "--at", 2, "--d", 2, "--S", "2,3",
            "--prec", 512, "--seed", seed, check=checks.check_zeta),
        _op("zeta", "--eval", "ztilde-s", "--at", "5/2", "--d", 2, "--S",
            "3,inf", "--order", 6, "--prec", 512, "--seed", seed,
            check=checks.check_zeta),
    ], []


def continuation(seed):
    ops = [_op("verify", "prolongement4", "--n", 3, "--prec", 256,
               "--seed", seed, check=checks.check_prolongation)]
    # order-1 tower values at seeded centers within 1/2 of d, where the
    # continuation identity evaluates them
    rng = random.Random(f"continuation:{seed}")
    centers = []
    for d in (1, 1, 2, 2):
        shift = Fraction(rng.choice((-1, 1)) * rng.randint(1, 249),
                         rng.randint(500, 999))
        centers.append(_op("zeta", "--eval", "ztilde", "--at", d + shift,
                           "--d", d, "--order", 1, "--prec", 256,
                           "--seed", seed, check=checks.check_tower_value))
    return ops, centers


def expansion_pool(seed):
    ops = [
        _op("expansion", "--d", 1, "--r", 6, "--S", "2", "--jobs", 2,
            "--prec", 256, "--seed", seed, check=checks.check_expansion),
        _op("expansion", "--d", 2, "--r", 3, "--S", "3", "--jobs", 2,
            "--prec", 256, "--seed", seed, check=checks.check_expansion),
    ]
    pair = [_op("expansion", "--d", 2, "--r", 2, "--S", "2", "--jobs", jobs,
                "--prec", 256, "--seed", seed, check=check)
            for jobs, check in ((1, checks.check_expansion),
                                (2, checks.check_parallel_expansion))]
    return ops, pair


WORKLOADS = {
    "rank-ladder": rank_ladder,
    "tower-sweep": tower_sweep,
    "continuation": continuation,
    "expansion-pool": expansion_pool,
}


# ---------------------------------------------------------------------------
# rounds


def run_round(timed, untimed, trace_dir=None, timeout=120.0) -> dict:
    """One fresh interpreter: the timed commands, then the untimed ones."""
    spec = {"root": ROOT, "ops": [argv for argv, _ in timed],
            "check_ops": [argv for argv, _ in untimed],
            "trace": trace_dir is not None, "out_dir": trace_dir}
    env = {k: v for k, v in os.environ.items() if k != "ARTHUR_COEFF_PREC"}
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I",
                             os.path.join(HERE, "runner.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    result["round_s"] = time.perf_counter() - t_spawn
    return result


class Tally:
    """Operations attempted and failed, the correct bits seen, and the
    context the checks share: memoized references and this round's
    outputs by command line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.bits: list[float] = []
        self.first: dict[tuple, str] = {}
        self.refs: dict = {}
        self.outputs: dict[tuple, dict] = {}
        self.errors: list[str] = []

    def ref(self, key, compute):
        key = (mp.mp.prec, key)
        if key not in self.refs:
            self.refs[key] = compute()
        return self.refs[key]

    def check(self, pairs, outputs) -> None:
        self.outputs = {}
        for (argv, check), op in zip(pairs, outputs):
            self.attempted += 1
            self.outputs[tuple(argv)] = op
            if op["rc"] != 0:
                self.failed += 1
                self.errors.append(f"{' '.join(argv)}: exit {op['rc']}: "
                                   f"{op['err'].strip()[:300]}")
                continue
            try:
                # serial runs of one command are byte-identical
                checks.require(
                    self.first.setdefault(tuple(argv), op["out"]) == op["out"],
                    "output differs from the first round")
                self.bits.extend(check(op, self))
            except (checks.CheckError, ArithmeticError, ValueError, KeyError,
                    TypeError) as exc:
                self.failed += 1
                self.wrong += 1
                self.errors.append(f"{' '.join(argv)}: {exc!r}"[:400])


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds, setups, tally) -> dict:
    return {
        "wall_s": (median([r["wall_s"] for r in rounds]), "s"),
        "cpu_s": (median([r["cpu_s"] for r in rounds]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MB"),
        "min_correct_bits": (min(tally.bits) if tally.bits else 0.0, "bits"),
    }


def layer_metrics(result) -> dict:
    """Per-layer figures of one traced round (main process plus workers)."""
    summaries, jobs = result["trace"], result["jobs"]
    names = summaries[0]["names"]
    calls = {n: sum(s["calls"][i] for s in summaries) for i, n in enumerate(names)}
    self_s = {n: sum(s["self_s"][i] for s in summaries) for i, n in enumerate(names)}
    keyed = summaries[0]["keys"]
    key_calls = sum(calls[n] for n in keyed)
    distinct = sum(len(s["keys"][n]) for s in summaries for n in keyed)
    unique = len({(n, k) for s in summaries for n in keyed for k in s["keys"][n]})
    towers = ("zeta.ztilde_jet", "zeta.ztilde_s_jet", "zeta.z_s_local_jet")
    main = summaries[0]
    workers = summaries[1:]
    if workers:
        pool_wall = sum(main["durations"]["coefficients.expansion"])
        busy = sum(w["cpu_s"] for w in workers) / (jobs * pool_wall)
        critical = max(d for w in workers for d in w["durations"]["pool.task"])
    else:
        # no pool: the main process is the only worker, and the slowest
        # single command is the critical path
        busy = result["cpu_s"] / result["wall_s"]
        critical = max(main["durations"]["cli.main"])
    return {
        "zeta.zeta_jet.calls": (calls["zeta.zeta_jet"], "count"),
        "zeta.zeta_jet.self_s": (self_s["zeta.zeta_jet"], "s"),
        "zeta.gamma_jet.calls": (calls["zeta.gamma_jet"], "count"),
        "zeta.gamma_jet.self_s": (self_s["zeta.gamma_jet"], "s"),
        "zeta.xi_jet.self_s": (self_s["zeta.xi_jet"], "s"),
        "zeta.tower.calls": (sum(calls[n] for n in towers), "count"),
        "zeta.tower.self_s": (sum(self_s[n] for n in towers), "s"),
        "zeta.distinct_jets": (distinct, "count"),
        "zeta.reuse_ratio": (1 - distinct / key_calls if key_calls else 0.0,
                             "ratio"),
        "jets.mul.calls": (calls["jets.mul"], "count"),
        "jets.mul.self_s": (self_s["jets.mul"], "s"),
        "jets.mul.coeff_products": (
            sum(s["counters"]["jets.mul.coeff_products"] for s in summaries),
            "count"),
        "jets.compose_linear.calls": (calls["jets.compose_linear"], "count"),
        "jets.compose_linear.self_s": (self_s["jets.compose_linear"], "s"),
        "gmfamily.symmetrized.self_s": (self_s["gmfamily.symmetrized"], "s"),
        "gmfamily.alternating.self_s": (
            self_s["gmfamily.tilde_c"] + self_s["gmfamily.c"], "s"),
        "gmfamily.derivative.self_s": (self_s["gmfamily.derivative"], "s"),
        "gmfamily.line_jet.calls": (calls["gmfamily.line_jet"], "count"),
        "gmfamily.certify.attempts": (calls["gmfamily.certify"], "count"),
        "gmfamily.directions": (calls["gmfamily.direction"], "count"),
        "rootdata.pairing.calls": (calls["rootdata.pairing"], "count"),
        "rootdata.pairing.self_s": (self_s["rootdata.pairing"], "s"),
        "rootdata.project.calls": (calls["rootdata.project"], "count"),
        "orbits.enumerate.self_s": (self_s["orbits.enumerate"], "s"),
        "orbits.pairs": (
            sum(s["counters"]["orbits.pairs"] for s in summaries), "count"),
        "coefficients.a_coefficient.calls": (
            calls["coefficients.a_coefficient"], "count"),
        "coefficients.a_coefficient.self_s": (
            self_s["coefficients.a_coefficient"], "s"),
        "coefficients.prolongation.self_s": (
            self_s["coefficients.prolongation"], "s"),
        "pool.busy_ratio": (busy, "ratio"),
        "pool.critical_path_s": (critical, "s"),
        "pool.duplicate_jets": (distinct - unique, "count"),
        "cli.render_s": (self_s["cli.main"], "s"),
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its round (run_round's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.perf_counter()
    src = os.path.join(ROOT, "src", "glcoeff")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"error: no glcoeff sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # the build: byte-compile once, so no round pays for it
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    timed, untimed = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    trace_root = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    if args.trace:
        shutil.rmtree(trace_root, ignore_errors=True)

    setups = []
    plain, traced = [], []
    try:
        while True:
            tracing = args.trace and bool(plain)
            trace_dir = (os.path.join(trace_root, f"round{len(traced)}")
                         if tracing else None)
            budget = RUN_LIMIT_S - (time.perf_counter() - started)
            result = run_round(timed, untimed, trace_dir, timeout=budget)
            (traced if tracing else plain).append(result)
            setups.append(result["setup_s"])
            if not args.trace:
                # interpreter starts spread over the run, like the rounds
                setups.extend(run_round([], [])["setup_s"]
                              for _ in range(SETUP_PROBES))
            tally.check(timed + untimed, result["ops"] + result["checks"])
            # the measured rounds fill --seconds; checks are not counted
            done = traced if args.trace else plain
            spent = sum(r["round_s"] for r in plain + traced)
            if done and spent + median([r["round_s"] for r in done]) > args.seconds:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        tally.attempted += len(timed) + len(untimed)
        tally.failed += len(timed) + len(untimed)
    for line in tally.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)

    if args.trace and traced:
        wall = median([r["wall_s"] for r in traced])
        rows = [layer_metrics(r) for r in traced]
        # counts from the first traced round (they repeat exactly except
        # under the pool); times take the median over traced rounds
        metrics = {name: (value if unit == "count"
                          else median([row[name][0] for row in rows]), unit)
                   for name, (value, unit) in rows[0].items()}
        metrics["tracing.overhead_s"] = (
            wall - median([r["wall_s"] for r in plain]), "s")
    elif plain and not args.trace:
        metrics = end_to_end(plain, setups, tally)
    else:
        metrics = {}
    report = {
        "correct": tally.wrong == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
