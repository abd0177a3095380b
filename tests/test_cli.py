import hashlib
import json
import os

import pytest

from prymlab import cli, corr, cover, lattice, prym, surface, weyl


DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _datafile(name):
    return os.path.join(DATA, name)


def test_predict_prints_theorem_types(capsys):
    code, out, _ = _run(capsys, "predict", "--n", "3", "--ds", "4", "--dl", "6", "--gy", "0")
    assert code == 0
    assert "(1, 2)" in out
    assert "(2, 4)" in out


def test_validate_good_file(capsys):
    code, out, _ = _run(capsys, "validate", _datafile("pantazis_b2.json"))
    assert code == 0
    assert "True" in out


def test_validate_bad_product_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "base_genus": 0, "generators": [[-1, 2]]}')
    code, out, _ = _run(capsys, "validate", str(p))
    assert code == 2
    assert "False" in out


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 2,, }')
    code, _, err = _run(capsys, "validate", str(p))
    assert code == 2
    assert "line" in err and "column" in err


# data/pantazis_b2.json (a valid datum) with one field replaced by a JSON value
# that is not an integer; its first generator entry is -1, so int() would
# truncate -1.9 back to the valid datum
@pytest.mark.parametrize("bad", [-1.9, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["n", "a generator entry"])
def test_non_integer_fields_exit_two(tmp_path, capsys, field, bad):
    with open(_datafile("pantazis_b2.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    assert raw["generators"][0][0] == -1
    if field == "n":
        raw["n"] = bad
    else:
        raw["generators"][0][0] = bad
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    for argv in (["validate", str(p)], ["verify", "--scenario", "pantazis_b2", "--file", str(p)]):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{p}: {field} must be an integer, got {json.dumps(bad)}" in err


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int"), ('"n"', "str")])
def test_top_level_value_that_is_not_an_object_exits_two(tmp_path, capsys, text, kind):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = _run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {p}: expected a JSON object, got {kind}\n"


# a generator or handle list of the wrong shape is named with the shape it needs
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"generators": 5}, "generators must be a list of signed permutations, got 5"),
        ({"generators": "12"}, 'generators must be a list of signed permutations, got "12"'),
        ({"generators": [5]}, "a generator must be a list of integers, got 5"),
        (
            {"base_genus": 1, "generators": [], "handles": 3},
            "handles must be a list of [a, b] pairs, got 3",
        ),
        (
            {"base_genus": 1, "generators": [], "handles": [[[1, 2]]]},
            "a handle must be a pair [a, b] of signed permutations, got [[1, 2]]",
        ),
        (
            {"base_genus": 1, "generators": [], "handles": [[[1, 2], 5]]},
            "a handle permutation must be a list of integers, got 5",
        ),
    ],
    ids=["int-generators", "string-generators", "int-generator", "int-handles",
         "short-handle", "int-handle-permutation"],
)
def test_generator_and_handle_shapes_exit_two_naming_the_field(tmp_path, capsys, fields, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, **fields}))
    code, out, err = _run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {p}: {message}\n"


def test_unknown_top_level_field_exits_two_naming_it(tmp_path, capsys):
    with open(_datafile("pantazis_b2.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["handels"] = []  # misspelled "handles"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    for argv in (["validate", str(p)], ["verify", "--scenario", "pantazis_b2", "--file", str(p)]):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f'{p}: unknown field "handels"' in err


def _classify_outputs(capsys, path):
    return [_run(capsys, *fmt, "classify", path) for fmt in ((), ("--format", "json"))]


def test_classify_etale_file(capsys):
    assert _classify_outputs(capsys, _datafile("etale_d3.json")) == [
        (0, "class: FullD\n", ""),
        (0, '{"class":"FullD"}\n', ""),
    ]


@pytest.mark.parametrize("name", ["pantazis_b2.json", "theorem2_b3.json"])
def test_classify_full_b_files(capsys, name):
    assert _classify_outputs(capsys, _datafile(name)) == [
        (0, "class: FullB\n", ""),
        (0, '{"class":"FullB"}\n', ""),
    ]


@pytest.mark.parametrize("long_only, cls", [(False, "FullB"), (True, "G1Conjugate")])
def test_classify_rank_8_datum(tmp_path, capsys, long_only, cls):
    # each simple reflection twice, so the product relation holds; the long
    # ones (all but the last) generate the permutations of 1..8
    simple = [weyl.reflection(r, 8).to_list() for r in weyl.simple_roots(8)]
    if long_only:
        simple = simple[:-1]
    p = tmp_path / "rank8.json"
    p.write_text(json.dumps({"n": 8, "base_genus": 0, "generators": [g for g in simple for _ in "ab"]}))
    assert _run(capsys, "--format", "json", "classify", str(p)) == (0, f'{{"class":"{cls}"}}\n', "")


def test_genera_lists_all_orbits(capsys):
    code, out, _ = _run(capsys, "genera", _datafile("theorem2_b3.json"))
    assert code == 0
    for key in ("vector", "spinor", "pairclass", "parity"):
        assert key in out


def test_homology_dump_json(capsys):
    code, out, _ = _run(
        capsys, "--format", "json", "homology", _datafile("pantazis_b2.json"),
        "--orbit", "spinor", "--dump",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2 * 3  # genus 3 cover of degree 4
    assert len(payload["gram"]) == payload["rank"]


def test_homology_dump_at_rank_8_is_pinned(tmp_path, capsys):
    # the spinor homology of rank 1026 of random_simple(8, 4, 16, 1): its
    # Gram byte for byte as the relation elimination and the leaf-first
    # closure of the cycle basis gave it
    datum = cover.random_simple(8, 4, 16, seed=1)
    p = tmp_path / "rank8.json"
    p.write_text(json.dumps(
        {"n": 8, "base_genus": 0, "generators": [g.to_list() for g in datum.gens]}
    ))
    code, out, err = _run(capsys, "--format", "json", "homology", str(p),
                          "--orbit", "spinor", "--dump")
    assert (code, err, len(out)) == (0, "", 2239285)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9960ce59a82bf2c53c192c2ab17720b94d4a8ef6f39462d01c4bd2e51b3184e2"
    )


def test_ptype_spinor_matches_theorem(capsys):
    code, out, _ = _run(
        capsys, "ptype", _datafile("theorem2_b3.json"), "--orbit", "spinor"
    )
    assert code == 0
    assert "(2, 4)" in out


def test_ptype_dump_forms_the_restricted_gram_once(capsys, monkeypatch):
    calls = []
    restricted_gram = lattice.PolarizedLattice.restricted_gram

    def counted(self):
        calls.append(self.rank)
        return restricted_gram(self)

    monkeypatch.setattr(lattice.PolarizedLattice, "restricted_gram", counted)
    code, out, _ = _run(
        capsys, "--format", "json", "ptype", _datafile("theorem2_b3.json"),
        "--orbit", "spinor", "--dump",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(calls) == 1
    assert len(payload["gram"]) == calls[0] == 2 * len(payload["type"])


def test_verify_scenario_file_exit_zero(capsys):
    code, out, _ = _run(
        capsys, "--format", "json", "verify", "--scenario", "pantazis_b2",
        "--file", _datafile("pantazis_b2.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True


def test_verify_scenario_list(capsys):
    code, out, _ = _run(capsys, "verify", "--scenario", "list")
    assert code == 0
    assert "theorem2_b3" in out


def test_verify_identity(capsys):
    code, out, _ = _run(capsys, "verify", "--identity", "sigma_commutes_D", "--n", "4")
    assert code == 0
    assert "passed: True" in out


def test_verify_identity_list(capsys):
    code, out, _ = _run(capsys, "--format", "json", "verify", "--identity", "list")
    assert code == 0
    payload = json.loads(out)
    assert "quadratic_relation" in payload


def test_verify_unknown_identity_exits_two_with_one_message_line(capsys):
    code, out, err = _run(capsys, "verify", "--identity", "zz", "--n", "3")
    assert (code, out) == (2, "")
    assert err == f"error: unknown identity 'zz'; known: {sorted(corr.identity_names())}\n"


def test_verify_requires_exactly_one_mode(capsys):
    code, _, err = _run(capsys, "verify")
    assert code == 2
    code, _, err = _run(
        capsys, "verify", "--scenario", "pantazis_b2", "--identity", "d"
    )
    assert code == 2


def test_verify_unknown_scenario_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--scenario", "bogus")
    assert code == 2


def test_probe_streams_json_lines(capsys):
    code, out, _ = _run(
        capsys, "probe", "--n", "4", "--ds", "4", "--dl", "8",
        "--trials", "2", "--seed", "5",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3  # two trials plus the summary
    assert lines[0]["trial"] == 0
    assert lines[1]["trial"] == 1
    assert "agreement" in lines[-1]


def test_probe_deterministic_output(capsys):
    args = ["probe", "--n", "4", "--ds", "4", "--dl", "8", "--trials", "2", "--seed", "5"]
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_probe_ignores_threads_variable(capsys, monkeypatch):
    args = ["probe", "--n", "4", "--ds", "4", "--dl", "8", "--trials", "3", "--seed", "2"]
    monkeypatch.delenv("PRYMLAB_THREADS", raising=False)
    code, plain, _ = _run(capsys, *args)
    assert code == 0
    for value in ("1", "3", "abc"):
        monkeypatch.setenv("PRYMLAB_THREADS", value)
        assert _run(capsys, *args) == (0, plain, "")


def test_probe_rejects_low_rank_exits_two(capsys):
    code, out, err = _run(
        capsys, "probe", "--n", "3", "--ds", "4", "--dl", "6", "--trials", "1"
    )
    assert code == 2
    assert out == ""
    assert "rank >= 4" in err


def test_probe_rejects_nonpositive_trials_exits_two(capsys):
    for trials in ("-2", "0"):
        code, out, err = _run(
            capsys, "probe", "--n", "4", "--ds", "4", "--dl", "8", "--trials", trials
        )
        assert code == 2
        assert out == ""
        assert "at least one trial" in err


def test_json_output_is_canonical(capsys):
    args = [
        "--format", "json", "verify", "--scenario", "theorem2_b3",
        "--file", _datafile("theorem2_b3.json"),
    ]
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["computed"]["type P(X,delta)"] == [2, 4]


def test_etale_scenario_from_file(capsys):
    code, out, _ = _run(
        capsys, "--format", "json", "verify", "--scenario", "etale_dn",
        "--file", _datafile("etale_d3.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"]["type P(X,delta)"] == [2, 2]
    assert payload["computed"]["spinor components"] == 2


def test_probe_mismatch_in_unramified_regime_prints_error_line(capsys, monkeypatch):
    real = prym.probe_trial
    monkeypatch.setattr(prym, "probe_trial", lambda *a: dict(real(*a), agree=False))
    code, out, _ = _run(
        capsys, "probe", "--n", "4", "--ds", "0", "--dl", "12", "--trials", "2", "--seed", "9"
    )
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["trial"] for r in lines[:2]] == [0, 1]
    assert lines[2:] == [{"error": "mismatch in the proven unramified regime"}]


def test_verify_identity_rank_mismatch_exits_two(capsys):
    code, out, err = _run(
        capsys, "--format", "json", "verify", "--identity", "sigma_commutes_D", "--n", "4",
        "--file", _datafile("theorem2_b3.json"), "--level", "homology",
    )
    assert code == 2
    assert out == ""
    assert "rank 3" in err and "rank 4" in err


def test_verify_identity_without_homology_content_exits_two(capsys):
    code, out, err = _run(
        capsys, "verify", "--identity", "parity_pullback", "--n", "4", "--level", "homology"
    )
    assert code == 2
    assert out == ""
    assert "no homology content" in err


def test_verify_identity_on_higher_genus_base_exits_two(tmp_path, capsys):
    p = tmp_path / "genus1.json"
    p.write_text('{"n": 2, "base_genus": 1, "generators": [], "handles": [[[1, 2], [2, 1]]]}')
    code, out, err = _run(
        capsys, "verify", "--identity", "sigma_commutes_D", "--n", "2",
        "--file", str(p), "--level", "homology",
    )
    assert code == 2
    assert out == ""
    assert "rational base only" in err


def test_verify_scenario_file_with_counts_exits_two(capsys):
    for extra in (["--n", "4"], ["--ds", "2", "--dl", "40"],
                  ["--n", "4", "--ds", "2", "--dl", "40"]):
        code, out, err = _run(
            capsys, "--format", "json", "verify", "--scenario", "theorem2_b3",
            "--file", _datafile("theorem2_b3.json"), *extra,
        )
        assert code == 2
        assert out == ""
        assert "--file fixes the datum" in err


def test_verify_seed_with_file_exits_two(capsys):
    code, out, err = _run(
        capsys, "--format", "json", "verify", "--scenario", "theorem2_b3",
        "--file", _datafile("theorem2_b3.json"), "--seed", "7",
    )
    assert code == 2
    assert out == ""
    assert "drop --seed" in err


def test_verify_seed_with_identity_exits_two(capsys):
    for name in ("d", "list"):
        code, out, err = _run(
            capsys, "verify", "--identity", name, "--n", "4", "--level", "homology",
            "--seed", "7",
        )
        assert code == 2
        assert out == ""
        assert "drop --seed" in err


def test_verify_list_modes_take_no_other_option(capsys):
    for argv in (
        ("--scenario", "list", "--seed", "7", "--n", "9"),
        ("--identity", "list", "--n", "3", "--file", "x", "--level", "homology"),
    ):
        code, out, err = _run(capsys, "--format", "json", "verify", *argv)
        assert code == 2
        assert out == ""
        assert "list takes no other option" in err


def test_verify_identity_refuses_datum_counts(capsys):
    code, out, err = _run(
        capsys, "verify", "--identity", "d", "--n", "3", "--ds", "2", "--dl", "40",
        "--level", "homology",
    )
    assert code == 2
    assert out == ""
    assert "drop --ds --dl" in err


def test_verify_scenario_refuses_level(capsys):
    code, out, err = _run(
        capsys, "verify", "--scenario", "recillas_a3", "--level", "homology",
    )
    assert code == 2
    assert out == ""
    assert "drop --level" in err


def test_verify_identity_refuses_file_at_fiber_level(capsys):
    for level in ((), ("--level", "fiber")):
        code, out, err = _run(
            capsys, "verify", "--identity", "b", "--n", "3",
            "--file", _datafile("theorem2_b3.json"), *level,
        )
        assert code == 2
        assert out == ""
        assert "drop --file" in err


def test_predict_rejects_huge_rank_exits_two(capsys):
    code, out, err = _run(
        capsys, "--format", "json", "predict", "--n", "20000", "--ds", "2", "--dl", "2"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "rank must be" in err


def test_probe_rejects_rank_without_fiber_matrices_exits_two(capsys):
    code, out, err = _run(
        capsys, "probe", "--n", "8", "--ds", "4", "--dl", "16", "--trials", "1"
    )
    assert code == 2
    assert out == ""
    assert f"fiber matrices supported for rank 2..{corr.FIBER_RANK_MAX}" in err


# random_simple(7, 6, 14, seed=0) and random_simple(8, 4, 16, seed=1), whose
# spinor covers have homology of rank 578 and 1026
RANK_7_8 = {
    "r7": [[1, 2, -3, 4, 5, 6, 7], [1, 2, 3, 4, 5, -6, 7], [1, 2, 3, 4, 5, -6, 7],
           [-1, 2, 3, 4, 5, 6, 7], [1, 2, -3, 4, 5, 6, 7], [1, 2, 3, 4, -5, 6, 7],
           [-7, 2, 3, 4, 5, 6, -1], [1, 2, 6, 4, 5, 3, 7], [-3, 2, -1, 4, 5, 6, 7],
           [4, 2, 3, 1, 5, 6, 7], [1, 2, 7, 4, 5, 6, 3], [1, 2, 3, 6, 5, 4, 7],
           [6, 2, 3, 4, 5, 1, 7], [1, 3, 2, 4, 5, 6, 7], [5, 2, 3, 4, 1, 6, 7],
           [1, 2, 3, -5, -4, 6, 7], [1, 3, 2, 4, 5, 6, 7], [1, 2, -5, 4, -3, 6, 7],
           [-5, 2, 3, 4, -1, 6, 7], [1, 2, 3, 6, 5, 4, 7]],
    "r8": [[1, 2, 3, 4, 5, -6, 7, 8], [-1, 2, 3, 4, 5, 6, 7, 8], [1, -2, 3, 4, 5, 6, 7, 8],
           [1, 2, 3, 4, 5, 6, -7, 8], [1, 2, 3, 4, 5, 8, 7, 6], [1, 2, 8, 4, 5, 6, 7, 3],
           [1, 2, 3, 4, 6, 5, 7, 8], [1, 2, 3, 4, 5, 6, 8, 7], [-6, 2, 3, 4, 5, -1, 7, 8],
           [1, 2, 4, 3, 5, 6, 7, 8], [1, 2, 3, -6, 5, -4, 7, 8], [1, 2, 3, -6, 5, -4, 7, 8],
           [1, 2, -8, 4, 5, 6, 7, -3], [1, 2, 3, 4, -6, -5, 7, 8], [1, 4, 3, 2, 5, 6, 7, 8],
           [1, -4, 3, -2, 5, 6, 7, 8], [1, 2, 3, -8, 5, 6, 7, -4], [1, 2, 7, 4, 5, 6, 3, 8],
           [-5, 2, 3, 4, -1, 6, 7, 8], [1, 2, 3, 4, 5, -8, 7, -6]],
}


def test_ptype_spinor_refuses_rank_before_building(tmp_path, capsys, monkeypatch):
    paths = {}
    for name, gens in RANK_7_8.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"n": len(gens[0]), "base_genus": 0, "generators": gens}))
    with monkeypatch.context() as m:
        def no_build(*args):
            raise AssertionError("homology built before the rank check")

        m.setattr(surface, "build_all", no_build)
        for path in paths.values():
            code, out, err = _run(capsys, "ptype", str(path), "--orbit", "spinor")
            assert code == 2
            assert out == ""
            assert f"fiber matrices supported for rank 2..{corr.FIBER_RANK_MAX}" in err
    # the other orbits need no capped fiber matrix and still run at rank 8
    for orbit in ("vector", "parity"):
        code, out, _ = _run(capsys, "--format", "json", "ptype", str(paths["r8"]), "--orbit", orbit)
        assert code == 0
        assert json.loads(out)["orbit"] == orbit


def test_verify_scenario_rejects_rank_before_drawing_a_datum(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("datum drawn before the rank check")

    monkeypatch.setattr(prym, "random_simple", no_draw)
    for scenario, n, ds, message in [
        ("theorem2_b3", "8", "4", "rank must be 3"),
        ("etale_dn", "7", "0", "supported ranks are 3 and 4"),
    ]:
        code, out, err = _run(
            capsys, "verify", "--scenario", scenario, "--n", n, "--ds", ds, "--dl", "16"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def test_predict_rejects_negative_base_genus(capsys):
    code, out, err = _run(capsys, "predict", "--n", "3", "--ds", "4", "--dl", "6", "--gy", "-1")
    assert code == 2
    assert out == ""
    assert "base genus" in err


def test_verify_identity_failure_exits_one_with_witness(capsys, monkeypatch):
    # D + sigma is equivariant but breaks the quadratic relation
    src, dst, make_D = corr._CORRESPONDENCES["D"]
    wrong = (src, dst, lambda n: make_D(n) + corr.sigma_matrix(n))
    monkeypatch.setitem(corr._CORRESPONDENCES, "D", wrong)
    code, out, err = _run(capsys, "--format", "json", "verify", "--identity", "f", "--n", "3")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    lhs = payload["witness"]["lhs"]
    assert len(lhs) == len(lhs[0]) == 8
    code, out, _ = _run(
        capsys, "--format", "json", "verify", "--identity", "f", "--n", "3",
        "--level", "homology",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    predict = ("predict", "--n", "3", "--ds", "4", "--dl", "6")
    code, as_json, _ = _run(capsys, "--format", "json", *predict)
    assert code == 0 and json.loads(as_json)["types"]
    # the next call falls back to text, not to the json given before
    code, as_text, _ = _run(capsys, *predict)
    assert code == 0 and not as_text.startswith("{") and "(2, 4)" in as_text
    code, out, err = _run(capsys, "predict", "--n", "3")
    assert (code, out) == (2, "") and "required" in err
    assert _run(capsys, *predict) == (0, as_text, "")


@pytest.mark.parametrize(
    "seed,trials",
    [(-1, 1), (2**64, 1), (2**64 - 1, 2), (-(2**64), 3)],
    ids=["negative", "2^64", "last trial past 2^64", "far below"],
)
def test_probe_refuses_seeds_outside_the_stream_before_any_trial(capsys, seed, trials):
    # SplitMix64 takes its seed mod 2^64: -1 and 2^64 would alias other seeds
    code, out, err = _run(
        capsys, "probe", "--n", "4", "--ds", "4", "--dl", "8",
        "--trials", str(trials), "--seed", str(seed),
    )
    assert code == 2
    assert out == ""
    assert f"data seeds {seed}..{seed + trials - 1} must lie in [0, 2^64)" in err


def test_probe_takes_the_last_seed_of_the_stream(capsys):
    code, out, _ = _run(
        capsys, "probe", "--n", "4", "--ds", "4", "--dl", "8",
        "--trials", "1", "--seed", str(2**64 - 1),
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 2**64 - 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_refuses_a_seed_outside_the_stream(capsys, seed):
    code, out, err = _run(capsys, "verify", "--scenario", "theorem2_b3", "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert f"seed must lie in [0, 2^64), got {seed}" in err
