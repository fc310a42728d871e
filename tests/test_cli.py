"""Front-door commands: formats, determinism, exit codes."""

import json
import math
import os
import sys
import time

from fractions import Fraction as F

import pytest

from orthoconv.cli import main
from orthoconv.exactnum import exact_sqrt, value_to_json


def run_cli(args):
    return main(args)


def test_analyze_json_input(tmp_path):
    src = tmp_path / "coef.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    out = tmp_path / "report.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tail_set"] == ["0", "1/3", "2/3", "1"]
    assert rep["v_of_clipped_h"] == pytest.approx(1.0)
    assert rep["criteria"]["information"]["alpha1"] == pytest.approx(1.5849625007)


def test_analyze_csv_and_normalization_notice(tmp_path):
    src = tmp_path / "coef.csv"
    src.write_text("0.5\n0.5\n0.5\n")
    out = tmp_path / "report.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["notice"] is not None
    assert rep["tail_set"] == ["0", "1/3", "2/3", "1"]
    # the notice is decided exactly: a sum within 1e-12 of 1 is rescaled too
    for coeffs, notice, tail in (
            (["1", "1/10000000"], "input squares summed to 1.00000000000001; normalized",
             ["0", "1/100000000000001", "1"]),
            (["3/5", "4/5"], None, ["0", "16/25", "1"])):
        src = tmp_path / "coef.json"
        src.write_text(json.dumps(coeffs))
        assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert (rep["notice"], rep["tail_set"]) == (notice, tail)


def test_analyze_single_coefficient(tmp_path):
    src = tmp_path / "one.json"
    src.write_text('["1"]')
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["criteria"]["information"]["alpha1"] == 0
    assert rep["criteria"]["beta"]["sum"] == 0
    assert rep["criteria"]["tandori"]["sum"] == 0


def _numbers(x):
    if isinstance(x, dict):
        for v in x.values():
            yield from _numbers(v)
    elif isinstance(x, list):
        for v in x:
            yield from _numbers(v)
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield x


def test_analyze_tiny_coefficient_below_float_range(tmp_path):
    # the square 1e-400 underflows to 0.0 as a float; its logs must not
    src = tmp_path / "tiny.json"
    src.write_text('["1", "1e-200"]')
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tail_set"][1] == "1/%d" % (10 ** 400 + 1)
    assert all(math.isfinite(x) for x in _numbers(rep["criteria"]))
    # -log2 of the tiny gap, from its integer parts
    assert rep["information_function"]["max"] == pytest.approx(
        math.log(10 ** 400 + 1) / math.log(3))


def test_measure_tiny_atom_below_float_range(tmp_path):
    src = tmp_path / "p.json"
    src.write_text('["1", "1e-400"]')
    out = tmp_path / "rep.json"
    assert run_cli(["measure", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert math.isfinite(rep["criterion_sum"])


def test_analyze_empty_file_is_data_error(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text("")
    assert run_cli(["analyze", str(src)]) == 2


def test_analyze_deterministic_bytes(tmp_path):
    src = tmp_path / "coef.json"
    src.write_text('["1/2", "1/3", "1/7", "1/9"]')
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["analyze", str(src), "--seed", "7", "--out", str(o1)]) == 0
    assert run_cli(["analyze", str(src), "--seed", "7", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_construct_family_deterministic(tmp_path):
    o1, o2 = tmp_path / "f1.json", tmp_path / "f2.json"
    assert run_cli(["construct", "--k", "2", "--full", "--out", str(o1)]) == 0
    assert run_cli(["construct", "--k", "2", "--full", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    rep = json.loads(o1.read_text())
    assert rep["family_size"] == 9
    for i, row in enumerate(rep["gram"]):
        for j, v in enumerate(row):
            assert v == pytest.approx((3 / 9) if i == j else 0.0)


def test_construct_budget_error():
    assert run_cli(["construct", "--k", "9"]) == 2


def test_construct_usage_error():
    assert run_cli(["construct"]) == 1


def test_construct_grid_process(tmp_path):
    out = tmp_path / "proc.json"
    assert run_cli(["construct", "--grid", "1", "--y", "8",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["achieved_y"] == pytest.approx(8.0)
    assert rep["gram_deviation"] == "0"
    assert rep["final_value_ok"] and rep["membership_ok"]
    assert rep["exceedance_table"] == [
        {"y": "8", "measure_ge": "5/9", "measure_gt": "5/9"}]


def test_construct_points_process(tmp_path):
    out = tmp_path / "proc.json"
    code = run_cli(["construct", "--b", "0,1/3,2/3,1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["achieved_y"] == pytest.approx(4.0)


def test_construct_invalid_points_is_data_error(capsys):
    assert run_cli(["construct", "--b", "0,1/2,1"]) == 2
    assert capsys.readouterr().err == (
        "data error: time set is not triadic: ('missing-base', Fraction(1, 3))\n")
    # a witness built from a long input point is echoed by its first characters
    assert run_cli(["construct", "--b", "0,1/%d,1/3,2/3,1" % 3 ** 300]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: time set is not triadic: ('unpaired', Fraction(1, 1368")
    assert err.endswith("... (171 characters)\n")


@pytest.mark.parametrize("argv, message", [
    # random_triadic_set(Random(100), 3, 8): triadic, with points at level 3
    (["--b", "0,1/3,35/81,955/2187,2866/6561,4/9,2/3,58/81,59/81,7/9,1"],
     "level budget exceeded: 955/2187 is finer than level 2"),
    (["--grid", "3"], "grid level must be 0, 1 or 2"),
    (["--grid", "-1"], "grid level must be 0, 1 or 2"),
])
def test_construct_level_budget(argv, message, capsys):
    assert run_cli(["construct"] + argv) == 2
    assert capsys.readouterr().err == "data error: %s\n" % message


def test_construct_help_names_the_grid_levels(capsys):
    assert run_cli(["construct", "--help"]) == 0
    assert "full grid at level 0, 1 or 2" in capsys.readouterr().out


def test_construct_builds_one_maximal_function(tmp_path, monkeypatch):
    # the build's challenge report carries the maximal function that the
    # exceedance measures read
    import orthoconv.construct as construct
    import orthoconv.ortho as ortho
    calls = []

    def counted(X):
        calls.append(X)
        return maximal_function(X)

    maximal_function = ortho.maximal_function
    for mod in (construct, ortho):
        monkeypatch.setattr(mod, "maximal_function", counted)
    out = tmp_path / "proc.json"
    assert run_cli(["construct", "--b", "0,1/3,2/3,1", "--y", "3",
                    "--out", str(out)]) == 0
    assert len(calls) == 1
    rep = json.loads(out.read_text())
    assert rep["exceedance_at_achieved_y"] == "1/3"
    assert rep["exceedance_table"] == [{"y": "3", "measure_ge": "1/3", "measure_gt": "1/3"}]


def test_verify_selected_suites(tmp_path):
    out = tmp_path / "ver.json"
    code = run_cli(["verify", "--suite", "block_selection",
                    "--suite", "digit_tail_bound", "--seed", "0",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert {r["name"] for r in rep["results"]} == {"block_selection",
                                                   "digit_tail_bound"}


def test_verify_count_reports_the_instances_run(tmp_path):
    # the three suites with a fixed instance set run it whatever --count says
    out = tmp_path / "ver.json"
    assert run_cli(["verify", "--suite", "cell_oscillation_bound", "--suite",
                    "family_exactness", "--suite", "process_gram", "--count", "5",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert {r["name"]: r["instances"] for r in rep["results"]} == {
        "cell_oscillation_bound": 2, "family_exactness": 3, "process_gram": 6}


def test_verify_unknown_suite_is_usage_error():
    assert run_cli(["verify", "--suite", "no-such-suite"]) == 1


def test_verify_seeded_deterministic(tmp_path):
    o1, o2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for o in (o1, o2):
        assert run_cli(["verify", "--suite", "sandwich", "--seed", "3",
                        "--out", str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_cantor_command(tmp_path):
    out = tmp_path / "cantor.json"
    code = run_cli(["cantor", "--t", "0", "--window", "1/3",
                    "--depth", "4", "--depth", "6", "--depth", "8",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    tr = rep["windows"][0]["trace"]
    assert all(tr[i] <= tr[i + 1] + 1e-12 for i in range(len(tr) - 1))


def test_cantor_builds_one_information_function_per_depth(tmp_path, monkeypatch):
    # every window reads the same depth-d function
    import orthoconv.sets as sets
    build, calls = sets.cantor_info_fn, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(sets, "cantor_info_fn", counted)
    assert run_cli(["cantor", "--window", "1/3", "--window", "1/9",
                    "--depth", "4", "--depth", "6",
                    "--out", str(tmp_path / "cantor.json")]) == 0
    assert calls == [4, 6]


def test_measure_command(tmp_path):
    src = tmp_path / "probs.json"
    src.write_text('["1/9","1/9","1/9","1/9","1/9","1/9","1/9","1/9","1/9"]')
    out = tmp_path / "m.json"
    assert run_cli(["measure", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["criterion_sum"] == pytest.approx(2.0)


def test_measure_invalid_distribution(tmp_path):
    src = tmp_path / "probs.json"
    src.write_text('["1/2","1/4"]')
    assert run_cli(["measure", str(src)]) == 2


def _measure_error(tmp_path, capsys, text):
    src = tmp_path / "probs.json"
    src.write_text(text)
    rc = run_cli(["measure", str(src)])
    return rc, capsys.readouterr().err.strip().splitlines()


def test_measure_scalar_input_is_data_error(tmp_path, capsys):
    # a bare value is a CSV file of one line, as for analyze
    rc, err = _measure_error(tmp_path, capsys, "5")
    assert rc == 2 and err == ["data error: atom probabilities must sum to 1"]


def test_measure_scalar_probabilities_is_data_error(tmp_path, capsys):
    rc, err = _measure_error(tmp_path, capsys, '{"probabilities": 5}')
    assert rc == 2 and err == ["data error: probabilities must be a JSON list"]


@pytest.mark.parametrize("text", ['"1/2"', '"1"'])
def test_measure_string_probabilities_is_data_error(tmp_path, capsys, text):
    # a string is not read character by character
    rc, err = _measure_error(tmp_path, capsys, '{"probabilities": %s}' % text)
    assert rc == 2 and err == ["data error: probabilities must be a JSON list"]


def test_measure_huge_probability_is_data_error(tmp_path, capsys):
    # the sum is compared with 1 exactly, not through a float that overflows
    rc, err = _measure_error(tmp_path, capsys, '["1e400"]')
    assert rc == 2 and err == ["data error: atom probabilities must sum to 1"]


@pytest.mark.parametrize("args", [
    ["analyze", "IN"], ["construct", "--k", "2", "--full"]])
def test_exact_env_leaves_reports_unchanged(args, tmp_path, monkeypatch):
    # ORTHO_EXACT once added exact-value fields; it is no longer read
    src = tmp_path / "coef.json"
    src.write_text('["1/2", "1/3", "1/4", "1/5", "1e-3"]')
    args = [str(src) if a == "IN" else a for a in args]
    plain, exact = tmp_path / "plain.json", tmp_path / "exact.json"
    monkeypatch.delenv("ORTHO_EXACT", raising=False)
    assert run_cli(args + ["--out", str(plain)]) == 0
    monkeypatch.setenv("ORTHO_EXACT", "1")
    assert run_cli(args + ["--out", str(exact)]) == 0
    assert exact.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_family_gram_deviation_is_zero(k, tmp_path):
    out = tmp_path / "f.json"
    assert run_cli(["construct", "--k", str(k), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["gram_deviation"] == "0"
    n = rep["family_size"]
    assert rep["gram"] == [[3 / 3 ** k if i == j else 0.0 for j in range(n)]
                           for i in range(n)]


@pytest.mark.parametrize("i, j, delta", [(0, 0, F(1, 81)), (2, 5, F(-2, 7)),
                                         (1, 3, exact_sqrt(3) / 10 ** 400)])
def test_family_with_a_wrong_gram_entry_fails(i, j, delta, tmp_path, monkeypatch):
    import orthoconv.cli as cli
    gram_matrix = cli.gram_matrix

    def corrupted(vectors):
        vectors = list(vectors)
        for r, row in enumerate(gram_matrix(vectors)):
            if r == i and len(vectors) == 9:  # the family, not a norm
                row[j - i] += delta
            yield row

    monkeypatch.setattr(cli, "gram_matrix", corrupted)
    out = tmp_path / "f.json"
    assert run_cli(["construct", "--k", "2", "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    # an irrational deviation below the float range is written exactly
    assert rep["gram_deviation"] == value_to_json(abs(delta))
    assert rep["gram"][i][j] == rep["gram"][j][i] == float((i == j) * F(1, 3) + delta)


def test_analyze_information_value_is_not_negative_zero(tmp_path):
    # the first gap is 1 - 1e-20 of the unit interval: its float quotient
    # rounds to 1.0, and -log(1.0) was written as -0.0
    src = tmp_path / "coef.json"
    src.write_text('["1", "1e-10"]')
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    text = out.read_text()
    low = json.loads(text)["information_function"]["min"]
    assert low == 0.0 and math.copysign(1.0, low) == 1.0
    assert "-0.0" not in text


def test_analyze_all_zero_coefficients_is_data_error(tmp_path, capsys):
    # the zero sequence cannot be normalized: a data error, not a traceback
    src = tmp_path / "zeros.json"
    src.write_text('["0", "0"]')
    assert run_cli(["analyze", str(src)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")


@pytest.mark.parametrize("depth", ["21", "40", "-1"])
def test_cantor_depth_budget_error(depth, capsys, monkeypatch):
    # refused before any Cantor set is built
    import orthoconv.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the set must not be built")

    monkeypatch.setattr(cli, "continuity_verdict", never)
    assert run_cli(["cantor", "--depth", "4", "--depth", depth]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("budget error:")


def test_front_door_does_not_import_sympy():
    # sympy is imported only to write and read "sym:" text, never on import
    import subprocess
    import sys
    code = "import orthoconv.cli, sys; assert 'sympy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize("argv", [
    ["construct", "--k", "2", "--full"],
    ["construct", "--b", "0,1/9,14/81,5/27,2/9,1/3,2/3,1", "--full"],
])
def test_sym_dumps_without_sympy(argv):
    # the "sym:" text is written without sympy, in the same bytes
    import os
    import subprocess
    import sys
    import orthoconv
    src = os.path.dirname(os.path.dirname(os.path.abspath(orthoconv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n%s\nfrom orthoconv.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    runs = [subprocess.run([sys.executable, "-c", code % block] + argv, env=env,
                           capture_output=True)
            for block in ("", "sys.modules['sympy'] = None")]
    for r in runs:
        assert r.returncode == 0, r.stderr
    assert b'"sym:' in runs[0].stdout
    assert runs[1].stdout == runs[0].stdout


def test_front_door_does_not_import_numpy():
    # the package does not use numpy at all
    import subprocess
    import sys
    code = "import orthoconv.cli, sys; assert 'numpy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.parametrize("argv", [
    ["--t", "2", "--window", "1/3"],
    ["--t=-1/3"],
    ["--window", "0"],
    ["--window=-1/3"],
    ["--window", "1/3", "--window", "0"],
])
def test_cantor_meaningless_window_is_data_error(argv, capsys):
    # a time outside [0, 1] or a non-positive half-width has no window
    assert run_cli(["cantor", "--depth", "4"] + argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")


def _data_error(argv, capsys):
    code = run_cli(argv)
    err = capsys.readouterr().err.strip().splitlines()
    return code == 2 and len(err) == 1 and err[0].startswith("data error:")


@pytest.mark.parametrize("command", ["analyze", "measure"])
def test_zero_denominator_in_file_is_data_error(command, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('["1/0"]')
    assert _data_error([command, str(src)], capsys)


@pytest.mark.parametrize("command", ["analyze", "measure"])
def test_nested_brackets_file_is_data_error(command, tmp_path, capsys):
    # deeper than json's recursion limit: one line, not a RecursionError
    src = tmp_path / "nested.json"
    src.write_text("[" * 100000 + "]" * 100000)
    assert _data_error([command, str(src)], capsys)


@pytest.mark.parametrize("argv", [
    ["analyze", "IN"],
    ["measure", "IN"],
    ["construct", "--b", "0,1e-10000000,1"],
    ["construct", "--grid", "0", "--y", "1e-10000000"],
    ["cantor", "--t", "1e-10000000"],
    ["cantor", "--window", "1e-10000000"],
])
def test_exponent_above_the_digit_limit_is_data_error(argv, tmp_path, capsys):
    # the exponent is refused as the value is read; 10**10000000 is never built
    src = tmp_path / "in.json"
    src.write_text('["1e-10000000", "1"]')
    t0 = time.perf_counter()
    assert _data_error([str(src) if a == "IN" else a for a in argv], capsys)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("command, key", [("analyze", "coefficients"),
                                          ("measure", "probabilities")])
def test_object_without_the_key_is_data_error(command, key, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('{"values": ["1"]}')
    assert run_cli([command, str(src)]) == 2
    assert capsys.readouterr().err == "data error: '%s'\n" % key


def test_measure_reads_csv(tmp_path):
    # one reader for both commands: CSV with one value per line
    reports = []
    for name, text in (("p.json", '["1/2", "1/4", "1/4"]'), ("p.csv", "1/2\n1/4\n\n1/4\n")):
        src, out = tmp_path / name, tmp_path / (name + ".out")
        src.write_text(text)
        assert run_cli(["measure", str(src), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["flags"].pop("input") == str(src)
        reports.append(rep)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mode", [["--k", "2", "--b", "0,1/3,2/3,1"],
                                  ["--grid", "1", "--b", "0,1/3,2/3,1"],
                                  ["--k", "2", "--grid", "1"]])
def test_construct_modes_are_exclusive(mode, monkeypatch):
    # a second mode was silently ignored: --k won over --b, --grid over --b
    import orthoconv.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a construct mode ran")

    monkeypatch.setattr(cli, "phi_family", refuse)
    monkeypatch.setattr(cli, "build_divergent", refuse)
    assert run_cli(["construct"] + mode) == 1


@pytest.mark.parametrize("y", ["1/0", "nan"])
def test_construct_bad_threshold_is_data_error(y, capsys):
    # --y is parsed with the other inputs, before any process is built
    assert _data_error(["construct", "--grid", "1", "--y", y], capsys)


def test_analyze_coefficient_above_float_range(tmp_path):
    # the square 1e800 overflows a float; the normalized sequence does not
    src = tmp_path / "huge.json"
    src.write_text('["1e400"]')
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["notice"] == "input squares summed to inf; normalized"
    assert rep["tail_set"] == ["0", "1"]


@pytest.mark.parametrize("coefficients", ['["1", "1e-300"]', '["1e400", "1", "1e-400"]'])
def test_analyze_cond_norm_cell_width_below_float_range(coefficients, tmp_path):
    # the V trace reaches level 10, whose cell width 3**-1024 is 0.0 as a
    # float; the cell means are taken on the integer lattice there
    src = tmp_path / "in.json"
    src.write_text(coefficients)
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["v_trace"]["stabilized_at"] >= 10
    assert all(math.isfinite(x) for x in _numbers(rep))


@pytest.mark.parametrize("text", [
    '{"coefficients": 5}',
    '{"coefficients": "1"}',
    '{"coefficients": {"1": 1}}',
])
def test_analyze_coefficients_not_a_list_is_data_error(text, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(text)
    assert _data_error(["analyze", str(src)], capsys)


@pytest.mark.parametrize("text", ['[true, 1]', '[1, false]', '[null]', '[[1]]',
                                  '{"coefficients": [true]}'])
def test_analyze_non_numeric_coefficient_is_data_error(text, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(text)
    assert _data_error(["analyze", str(src)], capsys)


@pytest.mark.parametrize("count", ["-5", "0"])
def test_verify_nonpositive_count_is_usage_error(count, capsys):
    assert run_cli(["verify", "--suite", "sandwich", "--count", count]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("count", ["501", "2000", "20000", "1" * 100])
def test_verify_count_above_the_budget_is_budget_error(count, capsys, monkeypatch):
    # refused before any suite runs: --count 2000 of digit_tail_bound ran 18 s
    import orthoconv.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("no suite may run")

    monkeypatch.setattr(cli, "run_suites", never)
    assert run_cli(["verify", "--suite", "digit_tail_bound", "--count", count]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["budget error: --count must be at most %d" % cli.VERIFY_MAX_COUNT]


def test_verify_count_at_the_budget_runs(tmp_path, monkeypatch):
    import orthoconv.cli as cli
    counts = []

    def run(names, seed, count):
        counts.append(count)
        return {"seed": seed, "results": [], "passed": True}

    monkeypatch.setattr(cli, "run_suites", run)
    assert run_cli(["verify", "--suite", "sandwich", "--count", str(cli.VERIFY_MAX_COUNT),
                    "--out", str(tmp_path / "v.json")]) == 0
    assert counts == [cli.VERIFY_MAX_COUNT]


@pytest.mark.parametrize("signed, moduli", [
    (["-1"], ["1"]),
    (["-1/2", "1/2", "1/2", "1/2"], ["1/2", "1/2", "1/2", "1/2"]),
    (["-1", "1"], ["1", "1"]),
    (["1/8", "-1/8", "0", "-3/4"], ["1/8", "1/8", "0", "3/4"]),
])
def test_analyze_negative_coefficients_report_on_moduli(signed, moduli, tmp_path):
    # normalized or not, the criteria read |a_n|: the same report as the moduli
    reports = []
    for name, coeffs in (("signed", signed), ("moduli", moduli)):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(coeffs))
        out = tmp_path / (name + ".json")
        assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("indicator", ["I", "H"])
def test_analyze_builds_one_tail_set_and_one_base3_function(indicator, tmp_path, monkeypatch):
    import orthoconv.cli as cli
    import orthoconv.criteria as crit
    calls, tails = [], []

    def counted(fn, label):
        def wrapper(*args, **kwargs):
            calls.append(label(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    def kept(fn):
        def wrapper(seq):
            tails.append(fn(seq))
            return tails[-1]
        return wrapper

    for mod in (cli, crit):
        monkeypatch.setattr(mod, "tail_set", kept(mod.tail_set))
        monkeypatch.setattr(mod, "info_fn", counted(
            mod.info_fn, lambda B, base=3: "info_fn base %d" % base))
    src = tmp_path / "in.json"
    src.write_text('["1/2", "1/3", "1/4", "1/5"]')
    assert run_cli(["analyze", str(src), "--indicator", indicator,
                    "--out", str(tmp_path / "rep.json")]) == 0
    assert sorted(calls) == ["info_fn base 2", "info_fn base 3"]
    # every reader gets the one tail set the sequence keeps
    assert tails and all(B is tails[0] for B in tails)


def test_analyze_derives_each_object_of_the_sequence_once(tmp_path, monkeypatch):
    # one normalized sequence, one tail set, one nonzero-term list and one
    # list of slice sums per run, for signed, unnormalized and normalized input
    import orthoconv.cli as cli
    import orthoconv.criteria as crit
    from orthoconv.info import CoefficientSeq
    made = {}

    def kept(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            made.setdefault(name, []).append(fn(*args))
            return made[name][-1]
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("normalized", "nonzero_terms", "slice_sums"):
        kept(CoefficientSeq, name)
    kept(cli, "tail_set")
    kept(crit, "tail_set")
    src = tmp_path / "in.json"
    for coeffs in (["-3/5", "4/5"], ["1/2", "-1/3", "0", "1/4"], ["3/5", "4/5"]):
        src.write_text(json.dumps(coeffs))
        for indicator in ("I", "H"):
            made.clear()
            assert run_cli(["analyze", str(src), "--indicator", indicator,
                            "--out", str(tmp_path / "rep.json")]) == 0
            # the lists keep every result alive, so equal ids are one object
            assert {name: len({id(x) for x in out}) for name, out in made.items()} == {
                "normalized": 1, "tail_set": 1, "nonzero_terms": 1, "slice_sums": 1}


@pytest.mark.parametrize("argv, code", [
    (["analyze"], 1),
    (["construct", "--k", "x"], 1),
    (["bogus"], 1),
    (["--help"], 0),
])
def test_argparse_exit_codes(argv, code, capsys):
    # argparse's own exit code for a usage error is 2, the data-error code
    assert run_cli(argv) == code


@pytest.mark.parametrize("calls, codes", [
    ([["construct", "--grid", "0", "--y", "1"], ["construct", "--grid", "0"]], [0, 0]),
    ([["verify", "--suite", "sandwich", "--count", "1"], ["verify", "--count", "1"]], [0, 0]),
    ([["cantor", "--window", "1/9", "--window", "1/3"], ["cantor"]], [0, 0]),
    ([["analyze", "--bogus"], ["analyze", "IN"]], [1, 0]),
])
def test_calls_in_one_process_match_calls_alone(calls, codes, tmp_path, capsys, monkeypatch):
    # the parser is built once per process and shared: no flag value of one
    # call may reach the next (the second call of each pair leaves out a
    # repeatable flag, or follows a usage error)
    import subprocess
    import orthoconv
    from orthoconv import cli
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to it
    src = os.path.dirname(os.path.dirname(os.path.abspath(orthoconv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "in.json").write_text('["1/2", "1/3", "1/4"]')
    calls = [[str(tmp_path / "in.json") if a == "IN" else a for a in argv] for argv in calls]
    alone = []
    for argv in calls:
        r = subprocess.run([sys.executable, "-m", "orthoconv.cli"] + argv, env=env,
                           capture_output=True, text=True)
        alone.append((r.returncode, r.stdout, r.stderr))
    assert [code for code, _, _ in alone] == codes
    cli.build_parser.cache_clear()
    together = []
    for argv in calls:
        code = run_cli(argv)
        together.append((code,) + tuple(capsys.readouterr()))
    assert together == alone
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, name", [
    (["cantor", "--t", "1e-4300"], "'1e-4300'"),
    (["cantor", "--window", "1e-4300"], "'1e-4300'"),
    (["construct", "--grid", "0", "--y", "1e-4300"], "'1e-4300'"),
    (["construct", "--grid", "0", "--y", "1e4300"], "'1e4300'"),
])
def test_value_no_report_can_print_is_named(argv, name, capsys):
    # 10**4300 passes the exponent budget but has 4301 digits, more than
    # Python prints; the line names the flag value, not a Python setting
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "data error: %s has more than %d digits, Python's limit for printing an "
        "integer\n" % (name, sys.get_int_max_str_digits()))


@pytest.mark.parametrize("command", ["analyze", "measure"])
@pytest.mark.parametrize("text", ["x" * 10000 + "\n", "[" * 900 + "]" * 900,
                                  '["' + "1" * 300 + '/0"]'],
                         ids=["csv-line", "nested-brackets", "zero-denominator"])
def test_data_error_line_echoes_a_capped_value(command, text, tmp_path, capsys):
    # a long value shows as its first characters and its length
    src = tmp_path / "in.csv"
    src.write_text(text)
    assert run_cli([command, str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert len(err) <= 200 and "characters)" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "IN"],
    ["construct", "--k", "1"],
    ["cantor", "--depth", "4"],
    ["verify", "--suite", "sandwich", "--count", "1"],
])
def test_unwritable_out_is_data_error(argv, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    argv = [str(src) if a == "IN" else a for a in argv]
    out = tmp_path / "missing" / "r.json"
    assert _data_error(argv + ["--out", str(out)], capsys)


def test_analyze_tail_set_beyond_int_digit_limit_is_budget_error(tmp_path, capsys):
    # the tail point 1/((10**2200 + 1)**2 + 1) has a 4401-digit denominator
    src = tmp_path / "in.json"
    src.write_text('["1/%d", "1"]' % (10 ** 2200 + 1))
    out = tmp_path / "rep.json"
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("budget error:")
    assert str(sys.get_int_max_str_digits()) in err[0]
    assert not out.exists()


def test_analyze_checks_the_digit_budget_before_the_v_trace(tmp_path, capsys, monkeypatch):
    import orthoconv.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the V trace ran before the tail set was printed")

    monkeypatch.setattr(cli, "v_functional", refuse)
    src = tmp_path / "in.json"
    src.write_text('["1/%d", "1"]' % (10 ** 2200 + 1))
    assert run_cli(["analyze", str(src), "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["budget error: a tail-set point has more than %d digits, Python's limit "
                   "for printing an integer" % sys.get_int_max_str_digits()]


@pytest.mark.parametrize("argv, slow", [
    (["analyze", "IN"], "orthoconv.cli.tail_set"),
    (["construct", "--k", "6"], "orthoconv.cli.phi_family"),
    (["verify", "--seed", "0"], "orthoconv.cli.run_suites"),
])
def test_unwritable_out_fails_before_any_work(argv, slow, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(slow, refuse)
    src = tmp_path / "in.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    argv = [str(src) if a == "IN" else a for a in argv]
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert _data_error(argv + ["--out", str(out)], capsys)


def test_read_only_out_is_data_error_and_left_unchanged(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    out = tmp_path / "r.json"
    out.write_text("old report\n")
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        pytest.skip("file permissions do not bind this user")
    assert _data_error(["analyze", str(src), "--out", str(out)], capsys)
    assert out.read_text() == "old report\n"


@pytest.mark.parametrize("out", ["-", "/dev/null"])
def test_stdout_and_dev_null_stay_writable(out, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    assert run_cli(["analyze", str(src), "--out", out]) == 0


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name, indicator", [
    ("analyze_rational", "I"), ("analyze_rational", "H"),
    ("analyze_power2", "I"), ("analyze_power2", "H"),
    ("analyze_power3", "I"), ("analyze_power3", "H"),
    ("analyze_increasing", "I"),
])
def test_analyze_report_matches_recorded_bytes(name, indicator, tmp_path):
    # reports recorded before the one-walk V step and information criteria:
    # a rational input that prints the normalization notice, 2- and
    # 3-power inputs with decreasing moduli, and 2-powers increasing
    src = os.path.join(DATA, name + ".json")
    out = tmp_path / "r.json"
    assert run_cli(["analyze", src, "--indicator", indicator, "--out", str(out)]) == 0
    got = out.read_text().replace(json.dumps(src), json.dumps("IN"))
    with open(os.path.join(DATA, "%s_%s.report.json" % (name, indicator)), encoding="utf-8") as fh:
        assert got == fh.read()


@pytest.mark.parametrize("name, argv", [
    ("window9", ["--t", "2/9", "--window", "1/9", "--depth", "10", "--depth", "11",
                 "--depth", "12", "--depth", "13", "--depth", "14"]),
    ("window81", ["--t", "20/27", "--window", "1/81", "--depth", "10", "--depth", "11",
                  "--depth", "12", "--depth", "13", "--depth", "14"]),
    ("default_window", ["--t", "1/3", "--depth", "12", "--depth", "14"]),
    ("defaults", []),
    ("gap", ["--t", "1/2", "--window", "1/10", "--depth", "8", "--depth", "12"]),
    ("wide", ["--t", "1/3", "--window", "3/4", "--depth", "10", "--depth", "12"]),
    ("two_windows", ["--t", "2/9", "--window", "1/9", "--window", "1/81",
                     "--depth", "10", "--depth", "12"]),
    ("non_triadic", ["--t", "1/7", "--window", "1/1000", "--depth", "12", "--depth", "14"]),
])
def test_cantor_report_matches_recorded_bytes(name, argv, tmp_path):
    # reports recorded from the whole-set builder: the benchmark's two
    # window sizes at depths 10-14, the default window and the defaults, a
    # window inside the gap (1/3, 2/3), a half-width above 1/2, two windows
    # in one call and a window off the triadic lattice
    out = tmp_path / "r.json"
    assert run_cli(["cantor"] + argv + ["--out", str(out)]) == 0
    with open(os.path.join(DATA, "cantor_%s.report.json" % name), "rb") as fh:
        assert out.read_bytes() == fh.read()
