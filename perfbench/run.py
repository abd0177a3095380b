"""Benchmark for prymlab, run through its CLI entry point in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload as a closed loop: one op at a time,
each a ``prymlab.cli.main([...])`` call with ``--format json`` and stdout
captured, checked by ``checks.py``. Whole rounds of ops run until ``--seconds``
have passed. An op still running after the workload's op time limit is
stopped by a timer signal and counted as failed.

``setup_s`` is the time from a process's start to the moment its first op
would begin: importing prymlab and numpy, making and checking the inputs. A
process is set up only once, so the run takes ``SETUP_SAMPLES`` samples from
fresh processes of this script started with ``--setup-only``; each stops
where the first op would start and prints its monotonic clock there, which
the parent subtracts from its own clock at the spawn. The samples are taken
between ops at evenly spaced times over the run, so that they meet the same
machine as the ops do; ``setup_s`` is their median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run with every library function
wrapped (see ``tracing.py``). A result file and, when traced, the spans go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9


class OpTimeout(BaseException):
    """Raised by the timer signal; a BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_prymlab():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "prymlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prymlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prymlab.cli

    if Path(prymlab.__file__).resolve().parent != SRC / "prymlab":
        raise SystemExit(f"perfbench: imported prymlab from {prymlab.__file__}")
    return prymlab.cli.main


def run_op(op, limit_s, main):
    """One CLI call under the time limit, then its check."""
    out, err = io.StringIO(), io.StringIO()
    rec = {"label": op.label, "status": "ok"}
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except OpTimeout:
        rec["status"] = "timeout"
    except Exception as exc:  # a crash of the program is a failed op, not ours
        rec["status"] = "crash"
        rec["problem"] = repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    rec["seconds"] = min(time.perf_counter() - t0, limit_s)
    if rec["status"] == "ok":
        try:
            rec["findings"] = op.check(out.getvalue(), rc)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            rec["status"] = "wrong"
            rec["problem"] = f"{type(exc).__name__}: {exc}; stderr: {err.getvalue()[-300:]}"
    return rec


def run_rounds(rounds, limit_s, seconds, main, max_ops=None, between=None):
    """Closed loop over the rounds, cycling, until ``seconds`` have passed at
    the end of a round (or ``max_ops`` ops have run). ``between(elapsed)``,
    if given, is called before each op."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            if between is not None:
                between(time.perf_counter() - start)
            records.append(run_op(op, limit_s, main))
            if max_ops is not None and len(records) >= max_ops:
                return records
        r += 1
        if time.perf_counter() - start >= seconds:
            return records


class SetupSampler:
    """Samples of ``setup_s``, one per call once the run has passed the next
    of ``SETUP_SAMPLES`` marks spaced evenly over ``seconds``."""

    def __init__(self, workload, seed, seconds):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--setup-only"]
        self.marks = [k * seconds / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
        self.samples = []

    def __call__(self, elapsed):
        if self.marks and elapsed >= self.marks[0]:
            self.marks.pop(0)
            self.samples.append(self.sample())

    def sample(self):
        """Time from the spawn to the point where the first op would start
        (``time.monotonic`` is one clock for every process of the machine)."""
        spawned = time.monotonic()
        done = subprocess.run(self.cmd, cwd=ROOT, check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        return float(done.stdout.split()[-1]) - spawned

    def median(self):
        """Takes the samples still due (a run may end before its last marks),
        then returns the median of all."""
        while self.marks:
            self.marks.pop(0)
            self.samples.append(self.sample())
        return statistics.median(self.samples)


def summarize(records):
    failed = sum(1 for r in records if r["status"] in ("timeout", "crash"))
    completed = len(records) - failed
    wall = sum(r["seconds"] for r in records)
    findings = collections.Counter(
        f"{key}={value}" for r in records for key, value in (r.get("findings") or {}).items())
    return {
        "attempted": len(records),
        "failed": failed,
        "completed": completed,
        "wall_s": wall,
        "correct": all(r["status"] != "wrong" for r in records),
        "findings": dict(sorted(findings.items())),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock where the first op "
                         "would start, and exit (one sample of setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("PRYMLAB_THREADS", None)
    cli_main = import_prymlab()
    workload = WORKLOADS[args.workload]
    workdir = OUT / "inputs"
    rounds = workload.make_rounds(args.seed, workdir)
    if args.setup_only:
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        sampler = None
        tracer = Tracer().install()
        cli_main = tracer.wrap("cli.main", cli_main)
    else:
        sampler = SetupSampler(args.workload, args.seed, args.seconds)
    records = run_rounds(rounds, workload.op_limit_s, args.seconds, cli_main,
                         between=sampler)
    if tracer is not None:
        tracer.restore()
    s = summarize(records)
    op_seconds = [r["seconds"] for r in records]

    if tracer is None:
        metrics = {
            "ops_per_s": (s["completed"] / s["wall_s"], "1/s"),
            "op_p50_s": (statistics.median(op_seconds), "s"),
            "setup_s": (sampler.median(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, op_seconds)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    result = {
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  findings=s["findings"],
                  setup_samples=sampler.samples if sampler is not None else None, ops=records)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload}: {s['attempted']} ops, {s['failed']} failed, "
          f"correct={s['correct']}, findings {s['findings']}", file=sys.stderr)
    for r in records:
        if r["status"] == "wrong":
            print(f"  {r['label']}: {r['problem']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
