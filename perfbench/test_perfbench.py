"""Tests of the benchmark itself: each workload runs one op and passes its
check, each checker rejects a tampered output, and the op time limit stops
a stuck op, and the metrics printed are the ones BENCHMARK.json names.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import SCENARIOS, WORKLOADS, Op  # noqa: E402

CLI_MAIN = run.import_prymlab()


def _first_op(name, tmp_path, index=0):
    rounds = WORKLOADS[name].make_rounds(0, tmp_path)
    return rounds[0][index]


def _output(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = CLI_MAIN(list(op.argv))
    return buf.getvalue(), rc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_one_op(name, tmp_path):
    w = WORKLOADS[name]
    records = run.run_rounds(w.make_rounds(0, tmp_path), w.op_limit_s, 0, CLI_MAIN, max_ops=1)
    assert len(records) == 1
    assert records[0]["status"] == "ok", records[0]
    s = run.summarize(records)
    assert (s["attempted"], s["failed"], s["correct"]) == (1, 0, True)


def _tampered_json_line(stdout, index, edit):
    lines = stdout.splitlines()
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def test_probe_checker_rejects_doubled_type_entry(tmp_path):
    op = _first_op("probe_r4", tmp_path)
    stdout, rc = _output(op)
    findings = op.check(stdout, rc)
    assert set(findings) == {"agree", "mu_surjective", "scaling"}

    def double_last(row):
        row["computed_type"][-1] *= 2

    with pytest.raises(checks.CheckFailed):
        op.check(_tampered_json_line(stdout, 0, double_last), rc)
    with pytest.raises(checks.CheckFailed):
        op.check(stdout, 1)


def test_verify_checker_rejects_flipped_verdict_and_wrong_type(tmp_path):
    op = _first_op("verify_suite", tmp_path)  # pantazis_b2, a proven statement
    assert "pantazis_b2" in op.argv
    stdout, rc = _output(op)
    op.check(stdout, rc)

    def flip(report):
        report["verdict"] = not report["verdict"]

    def double_entry(report):
        report["computed"]["type P(C,C')"][-1] *= 2

    for edit in (flip, double_entry):
        with pytest.raises(checks.CheckFailed):
            op.check(_tampered_json_line(stdout, 0, edit), rc)


def test_ptype_checker_rejects_doubled_type_entry_and_bad_gram(tmp_path):
    op = _first_op("ptype_r5", tmp_path)
    stdout, rc = _output(op)
    op.check(stdout, rc)

    def double_first(report):
        report["type"][0] *= 2

    def break_symmetry(report):
        report["gram"][0][1] += report["type"][0]

    for edit in (double_first, break_symmetry):
        with pytest.raises(checks.CheckFailed):
            op.check(_tampered_json_line(stdout, 0, edit), rc)


def test_bareiss_det_matches_known_values():
    assert checks.bareiss_det([[0, 2], [-2, 0]]) == 4
    assert checks.bareiss_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert checks.bareiss_det([[1, 2], [2, 4]]) == 0


def test_time_limit_stops_a_stuck_op():
    def stuck(argv):
        time.sleep(5)
        return 0

    op = Op("stuck", (), lambda stdout, rc: None)
    rec = run.run_op(op, 0.2, stuck)
    assert rec["status"] == "timeout"
    assert rec["seconds"] == 0.2
    assert run.summarize([rec])["failed"] == 1


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "verify_suite", "--seed", "0", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == len(SCENARIOS)  # one round
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[key]}
