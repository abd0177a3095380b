"""Canonical CLI output pinned byte for byte.

``golden_cli.json`` holds the exit code and the exact stdout of each case,
and the exact stderr of each case that exits 2, so that a changed error
message fails too. A change that alters canonical output fails here; when the change is meant,
rewrite the file with ``PYTHONPATH=src python tests/test_golden_cli.py`` and
review the diff.
"""

import contextlib
import io
import json
import os

import pytest

from prymlab import cli, corr, prym

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_cli.json")
DATA = os.path.join(HERE, "..", "data")

# (scenario, rank, short points, long points) away from the scenarios'
# defaults, so that the predicted entries are pinned at other counts too
SCENARIO_COUNTS = (
    ("pantazis_b2", 2, 16, 20),
    ("recillas_a3", 3, 0, 40),
    ("theorem2_b3", 3, 8, 14),
    ("hyperelliptic_4xi", 3, 22, 4),
    ("d3_antidiagonal", 3, 0, 40),
    ("etale_dn", 4, 0, 20),
    ("b3_complement", 3, 12, 14),
    ("b4_structure", 4, 6, 10),
)

DATA_FILES = ("etale_d3", "pantazis_b2", "theorem2_b3")

# the identities with homology content over the rational base, each pinned on
# its default datum at every rank it applies to
HOMOLOGY_LETTERS = ("a", "b", "c", "d", "e", "f", "g", "j", "k")

CASES = (
    [("--format", "json", "verify", "--scenario", name, "--seed", "0")
     for name in prym.scenario_names()]
    + [("--format", "json", "verify", "--scenario", name, "--n", str(n),
        "--ds", str(ds), "--dl", str(dl), "--seed", "1")
       for name, n, ds, dl in SCENARIO_COUNTS]
    + [("--format", "json", "ptype", f"{name}.json", "--orbit", "spinor", "--dump")
       for name in DATA_FILES]
    + [("--format", "json", "verify", "--scenario", name, "--file", f"{data}.json")
       for name in prym.scenario_names() for data in DATA_FILES]
    + [("--format", "text", "verify", "--scenario", name, "--seed", "0")
       for name in prym.scenario_names()]
    + [("--format", "json", "probe", "--n", "4", "--ds", "4", "--dl", "8",
        "--trials", "2", "--seed", "5")]
    + [("--format", "json", "verify", "--identity", "list")]
    + [("--format", "json", "verify", "--identity", name, "--n", str(n))
       for name in corr.identity_names() for n in corr.applicable_ranks(name)]
    + [("--format", "json", "verify", "--identity", letter, "--n", str(n),
        "--level", "homology")
       for letter in HOMOLOGY_LETTERS for n in corr.applicable_ranks(letter)]
)


def _resolve(argv):
    # data files are named relative to data/, so the pinned text is independent
    # of where the checkout lives
    return [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_resolve(argv))
    return code, out.getvalue(), err.getvalue()


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


def _case_id(argv):
    # JSON is the default case; other formats keep "--format F" in the id
    return " ".join(argv[2:] if argv[:2] == ("--format", "json") else argv)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_cli_output_matches_golden(argv):
    want = _load()[argv]
    code, out, err = _run(argv)
    assert code == want["exit"]
    assert out == want["stdout"]
    if code == cli.EXIT_USAGE:
        assert err == want["stderr"]


if __name__ == "__main__":
    cases = []
    for argv in CASES:
        code, out, err = _run(argv)
        case = {"argv": list(argv), "exit": code, "stdout": out}
        if code == cli.EXIT_USAGE:
            case["stderr"] = err
        cases.append(case)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
