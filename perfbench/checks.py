"""Output checks for the benchmark, computed apart from the program.

Each checker takes the captured stdout and exit code of one CLI call and
raises ``CheckFailed`` when the output is wrong. Expected values come from
the paper's closed forms and from exact integer arithmetic done here, never
from a field the program itself predicts.
"""

from __future__ import annotations

import json
import math


class CheckFailed(Exception):
    """The program's output contradicts an independent check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _json_lines(stdout):
    try:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON lines: {exc}") from None


def check_type_chain(t, n, ds, dl):
    """A rank-n Prym-Tyurin type: a divisibility chain of length
    (ds + dl)/2 - n whose entries all divide the exponent 2^(n-1)."""
    t = [int(x) for x in t]
    length = (ds + dl) // 2 - n
    _require(len(t) == length, f"type {t} has length {len(t)}, expected {length}")
    _require(all(x >= 1 for x in t), f"type {t} has an entry below 1")
    _require(
        all(t[i + 1] % t[i] == 0 for i in range(len(t) - 1)),
        f"type {t} is not a divisibility chain",
    )
    q = 2 ** (n - 1)
    _require(all(q % x == 0 for x in t), f"type {t} has an entry not dividing {q}")


def bareiss_det(rows):
    """Exact determinant by fraction-free elimination with row pivoting."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def check_probe(stdout, rc, n, ds, dl):
    """``probe --trials 1``: one row with a well-formed type, then a summary.

    Returns the findings ``agree``, ``mu_surjective`` and ``scaling``; they
    are tallied, not asserted, because the statement is open at rank 4."""
    _require(rc == 0, f"probe exited {rc}")
    lines = _json_lines(stdout)
    _require(len(lines) == 2, f"probe printed {len(lines)} lines, expected 2")
    row, summary = lines
    _require("agreement" in summary, "probe summary line is missing")
    check_type_chain(row["computed_type"], n, ds, dl)
    return {key: bool(row[key]) for key in ("agree", "mu_surjective", "scaling")}


def expected_types(scenario, n, ds, dl):
    """Polarization types the proven statements give for a scenario, keyed
    as in the scenario's ``computed`` field; empty for the other scenarios."""
    if scenario == "pantazis_b2":
        return {
            "type P(C,C')": [1] * (ds // 2 - 1) + [2] * (dl // 2 - 1),
            "type P(X,X')": [1] * (dl // 2 - 1) + [2] * (ds // 2 - 1),
        }
    if scenario == "theorem2_b3":
        return {
            "type P(C,C')": [1] * (ds // 2 - 1) + [2] * (dl // 2 - 2),
            "type P(X,delta)": [2] * (dl // 2 - 2) + [4] * (ds // 2 - 1),
        }
    if scenario == "hyperelliptic_4xi":
        return {"type P(X,delta)": [4] * (ds // 2 - 1)}
    if scenario == "etale_dn":
        return {"type P(X,delta)": [2 ** (n - 2)] * (dl // 2 - n)}
    return {}


def check_verify(stdout, rc, scenario, n, ds, dl):
    """``verify --scenario``: exit 0, a true verdict, the branch counts
    asked for, and for the proven statements the paper's types."""
    _require(rc == 0, f"verify {scenario} exited {rc}")
    lines = _json_lines(stdout)
    _require(len(lines) == 1, f"verify printed {len(lines)} lines, expected 1")
    report = lines[0]
    _require(report["scenario"] == scenario, f"report is for {report['scenario']}")
    _require(report["verdict"] is True, f"{scenario} verdict is {report['verdict']}")
    _require(
        (report["n"], report["branch_short"], report["branch_long"]) == (n, ds, dl),
        f"{scenario} ran on rank {report['n']} counts "
        f"({report['branch_short']}, {report['branch_long']})",
    )
    for key, want in expected_types(scenario, n, ds, dl).items():
        got = report["computed"].get(key)
        _require(got == want, f"{scenario} {key} is {got}, the paper gives {want}")


def check_ptype(stdout, rc, n, ds, dl):
    """``ptype --orbit spinor --dump``: the dumped restricted Gram is
    alternating, the gcd of its entries is the first type entry, and its
    |det| is the squared product of the type entries."""
    _require(rc == 0, f"ptype exited {rc}")
    lines = _json_lines(stdout)
    _require(len(lines) == 1, f"ptype printed {len(lines)} lines, expected 1")
    t = [int(x) for x in lines[0]["type"]]
    gram = lines[0]["gram"]
    check_type_chain(t, n, ds, dl)
    size = len(gram)
    _require(size == 2 * len(t), f"Gram is {size}x{size} for a type of length {len(t)}")
    _require(all(len(row) == size for row in gram), "Gram is not square")
    _require(
        all(gram[i][j] == -gram[j][i] for i in range(size) for j in range(size)),
        "Gram is not alternating",
    )
    g = 0
    for row in gram:
        for x in row:
            g = math.gcd(g, x)
    _require(g == t[0], f"gcd of the Gram entries is {g}, first type entry {t[0]}")
    det = abs(bareiss_det(gram))
    want = math.prod(t) ** 2
    _require(det == want, f"|det| of the Gram is {det}, squared type product {want}")
