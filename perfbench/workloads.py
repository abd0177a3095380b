"""The benchmark's workloads: closed-loop rounds of CLI calls made from a seed.

A workload turns the workload seed into a list of rounds; a round is a list
of ops, and one op is one ``prymlab`` CLI call with the checker that judges
its output. Runs always finish whole rounds, so a round's fixed mix of ops
(and the one op kept failing on purpose) has the same share in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable  # (stdout, exit code) -> findings dict or None


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float  # an op still running at this point is stopped and failed
    make_rounds: Callable  # (seed, work directory) -> list of rounds


# -- probe_r4 ----------------------------------------------------------------

PROBE_NDL = (4, 12, 16)
# seed 4 sends lattice.kernel (via ptype) on a 20x20 restricted Gram into
# the unreduced elimination of lattice._snf_state, which did not finish in
# 150 s. It ends every round as the one op that fails, stopped at the op
# time limit.
PROBE_FAILING_SEED = 4
# Other data seeds in 0..119 on which the same coefficient growth makes the op
# outlast the op time limit (6 s to never finishing, against a median of
# 0.9 s). They would fail or not depending on the workload seed, so they are
# left out. Seed 11 (2.3-2.9 s) finishes within the limit and stays in.
PROBE_LEFT_OUT = frozenset({12, 24, 71, 78, 85, 89, 94, 95, 108, 111})
PROBE_POOL = tuple(
    s for s in range(120) if s not in PROBE_LEFT_OUT and s != PROBE_FAILING_SEED
)
PROBE_ROUNDS = 4
PROBE_PER_ROUND = 7


def _probe_op(data_seed):
    n, ds, dl = PROBE_NDL
    argv = ("--format", "json", "probe", "--n", str(n), "--ds", str(ds), "--dl", str(dl),
            "--trials", "1", "--seed", str(data_seed))
    return Op(f"probe seed {data_seed}", argv,
              partial(checks.check_probe, n=n, ds=ds, dl=dl))


def probe_rounds(seed, workdir):
    """Consecutive data seeds of the pool from position ``seed``, then the
    failing seed, per round."""
    start = seed % len(PROBE_POOL)
    rounds = []
    for r in range(PROBE_ROUNDS):
        at = start + r * PROBE_PER_ROUND
        picks = [PROBE_POOL[(at + j) % len(PROBE_POOL)] for j in range(PROBE_PER_ROUND)]
        rounds.append([_probe_op(p) for p in picks] + [_probe_op(PROBE_FAILING_SEED)])
    return rounds


# -- verify_suite --------------------------------------------------------------

# (scenario, rank, short points, long points): counts enlarged from the
# scenarios' defaults so that each op takes 0.15-0.4 s
SCENARIOS = (
    ("pantazis_b2", 2, 16, 20),
    ("recillas_a3", 3, 0, 40),
    ("theorem2_b3", 3, 8, 14),
    ("hyperelliptic_4xi", 3, 22, 4),
    ("d3_antidiagonal", 3, 0, 40),
    ("etale_dn", 4, 0, 20),
    ("b3_complement", 3, 12, 14),
    ("b4_structure", 4, 6, 10),
)
# data seed 51 sends theorem2_b3 into the same _snf_state coefficient growth
# (over 5 s against a median of 0.14 s)
VERIFY_LEFT_OUT = frozenset({51})
VERIFY_POOL = tuple(s for s in range(60) if s not in VERIFY_LEFT_OUT)
VERIFY_ROUNDS = 10


def verify_rounds(seed, workdir):
    """All eight scenarios per round, each round on the next data seed."""
    rounds = []
    for r in range(VERIFY_ROUNDS):
        p = VERIFY_POOL[(seed + r) % len(VERIFY_POOL)]
        ops = []
        for name, n, ds, dl in SCENARIOS:
            argv = ("--format", "json", "verify", "--scenario", name, "--n", str(n),
                    "--ds", str(ds), "--dl", str(dl), "--seed", str(p))
            ops.append(Op(f"{name} seed {p}", argv,
                          partial(checks.check_verify, scenario=name, n=n, ds=ds, dl=dl)))
        rounds.append(ops)
    return rounds


# -- ptype_r5 ------------------------------------------------------------------

PTYPE_NDL = (5, 12, 16)
PTYPE_DATA_SEEDS = 60
PTYPE_FILES = 8


def ptype_rounds(seed, workdir):
    """Write rank-5 data files for consecutive data seeds, check that each
    reads back as a valid datum, and make one op per file."""
    from prymlab import cli, cover

    n, ds, dl = PTYPE_NDL
    outdir = Path(workdir) / "ptype_r5"
    outdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    for i in range(PTYPE_FILES):
        p = (seed + i) % PTYPE_DATA_SEEDS
        datum = cover.random_simple(n, ds, dl, p)
        path = outdir / f"datum-{n}-{ds}-{dl}-{p}.json"
        path.write_text(json.dumps(
            {"n": n, "base_genus": 0, "generators": [g.to_list() for g in datum.gens]}))
        if cli.load_datum(str(path)) != datum:
            raise RuntimeError(f"{path} does not read back as the datum written")
        cover.require_valid(datum)
        argv = ("--format", "json", "ptype", str(path), "--orbit", "spinor", "--dump")
        rounds.append([Op(f"ptype seed {p}", argv,
                          partial(checks.check_ptype, n=n, ds=ds, dl=dl))])
    return rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("probe_r4", 4.0, probe_rounds),
        Workload("verify_suite", 5.0, verify_rounds),
        Workload("ptype_r5", 20.0, ptype_rounds),
    )
}
