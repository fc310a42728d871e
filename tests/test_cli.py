"""Front-door commands: formats, determinism, exit codes."""

import json
import math

import pytest

from orthoconv.cli import main


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


def test_construct_invalid_points_is_data_error(tmp_path):
    assert run_cli(["construct", "--b", "0,1/2,1"]) == 2


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


def test_exact_mode_env(tmp_path, monkeypatch):
    src = tmp_path / "coef.json"
    src.write_text('["1/3", "1/3", "1/3"]')
    out = tmp_path / "rep.json"
    monkeypatch.setenv("ORTHO_EXACT", "1")
    assert run_cli(["analyze", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["tail_set_exact"] == ["0", "1/3", "2/3", "1"]


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
