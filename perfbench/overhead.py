"""Tracing overhead, measured in pairs.

    python3 perfbench/overhead.py --workload NAME [--seed N] [--rounds R]

Every op of the workload's first R rounds runs twice back to back in one
process, once untraced and once traced, the order alternating from op to op.
Pairing keeps the machine's own drift, which is larger than the overhead, out
of the comparison. The op kept failing in probe_r4 is skipped: the time limit
stops it either way.
"""

import argparse

import run
from tracing import Tracer
from workloads import PROBE_FAILING_SEED, WORKLOADS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=2)
    args = ap.parse_args(argv)
    cli_main = run.import_prymlab()
    w = WORKLOADS[args.workload]
    rounds = w.make_rounds(args.seed, run.OUT / "inputs")
    ops = [op for r in rounds[: args.rounds] for op in r
           if op.label != f"probe seed {PROBE_FAILING_SEED}"]
    seconds = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            tracer = Tracer().install() if traced else None
            fn = tracer.wrap("cli.main", cli_main) if traced else cli_main
            rec = run.run_op(op, w.op_limit_s, fn)
            if tracer is not None:
                tracer.restore()
            if rec["status"] != "ok":
                raise SystemExit(f"{op.label}: {rec['status']} {rec.get('problem', '')}")
            seconds[traced] += rec["seconds"]
    print(f"{args.workload}: {len(ops)} ops, untraced {seconds[False]:.2f} s, "
          f"traced {seconds[True]:.2f} s, overhead {seconds[True] / seconds[False] - 1:+.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
