"""Hostile inputs to the front door.

Every input ends in a report or a documented exit code (0 ok, 1 usage, 2
data or budget, 3 a failed check), with at most one line on stderr and
never an escaping exception, within 10 s.  The files of ``analyze`` and
``measure`` are random JSON shapes, nested lists, objects with and
without their key, and CSV; the strings of ``construct --b/--y`` and
``cantor --t/--window`` are random values.  Values reach down to 1e-200,
and decimal exponents sit on both sides of Python's digit limit for
integer strings, which ``parse_rational`` enforces.  The information
function of an ``analyze`` file stays far below 2**25, the size from
which the V trace's top grid grows out of reach: a tail-set point with
more than the limit's digits is refused before the trace.

Seeded ``random_triadic_set`` draws up to level 2 build through
``construct --b --y`` and pass every exact check of the build.  An
integer with more digits than Python reads, sent to every entry point,
ends in one short line: a ``data error:`` naming it for a value, and
argparse's refusal, capped, for an integer flag.
"""

import json
import random
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from orthoconv.cli import main
from orthoconv.exactnum import format_rational
from orthoconv.suites import random_triadic_set

LIMIT = sys.get_int_max_str_digits()

exponents = st.one_of(st.integers(-300, 300),
                      st.sampled_from([LIMIT, LIMIT + 1, -LIMIT, -LIMIT - 1,
                                       10 ** 7, -(10 ** 7)]))
decimals = st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", "0.3", "7"]), exponents)
rationals = st.builds("{}/{}".format, st.integers(-20, 20), st.integers(-3, 30))
numbers = st.one_of(
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-200, max_value=1e-150),
    st.sampled_from([1e-200, -1e-200, 0.5, 1.0]),
)
strings = st.one_of(decimals, rationals, st.text(max_size=6),
                    st.sampled_from(["", "nan", "inf", "1e", "e5", "1/0", "0x10", " 1/2 "]))
scalars = st.one_of(numbers, strings, st.booleans(), st.none())
json_values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["coefficients", "probabilities", "x"]), inner, max_size=2)),
    max_leaves=12)


@st.composite
def files(draw):
    """The text of a value file: JSON of any shape, or CSV."""
    kind = draw(st.sampled_from(["list", "object", "any", "nested", "csv", "raw"]))
    values = st.lists(st.one_of(numbers, strings), min_size=1, max_size=6)
    if kind == "list":
        data = draw(values)
    elif kind == "object":
        data = {draw(st.sampled_from(["coefficients", "probabilities", "x"])): draw(values)}
    elif kind == "any":
        data = draw(json_values)
    elif kind == "nested":
        depth = draw(st.integers(1, 3000))
        return "[" * depth + draw(st.sampled_from(["", "1", '"1/2"'])) + "]" * depth
    elif kind == "csv":
        return "\n".join(map(str, draw(values)))
    else:
        return draw(st.text(max_size=20))
    return json.dumps(data)


def assert_handled(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv + ["--out", "/dev/null"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err
    assert elapsed < 10


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(st.sampled_from(["analyze", "measure"]), files())
@SETTINGS
def test_value_files_end_in_a_report_or_an_exit_code(tmp_path, capsys, command, text):
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    assert_handled([command, str(src)], capsys)


@given(st.lists(strings, min_size=1, max_size=4), st.lists(strings, max_size=2))
@SETTINGS
def test_construct_strings_end_in_a_report_or_an_exit_code(capsys, points, ys):
    y_args = ["--y=" + y for y in ys]
    assert_handled(["construct", "--b=" + ",".join(points)] + y_args, capsys)
    assert_handled(["construct", "--grid", "0"] + y_args, capsys)


@given(strings, st.lists(strings, max_size=2))
@SETTINGS
def test_cantor_strings_end_in_a_report_or_an_exit_code(capsys, t, windows):
    assert_handled(["cantor", "--depth", "4", "--t=" + t]
                   + ["--window=" + w for w in windows], capsys)


@given(st.integers(0, 2 ** 32), st.sampled_from([1, 2]), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_seeded_triadic_sets_build_and_pass_their_checks(tmp_path_factory, seed, level, pairs):
    B = random_triadic_set(random.Random(seed), level, pairs)
    out = tmp_path_factory.mktemp("build") / "report.json"
    argv = ["construct", "--b", ",".join(map(format_rational, B.points)),
            "--y", "1", "--y", "7/2", "--out", str(out)]
    assert main(argv) == 0
    rep = json.loads(out.read_text())
    assert rep["gram_deviation"] == "0"
    assert rep["final_value_ok"] is True and rep["membership_ok"] is True


# more digits than Python reads into an int from a string
LONG = "1" * (LIMIT + 700)


@pytest.mark.parametrize("command, text", [
    (command, text) for command in ("analyze", "measure")
    for text in ('["%s"]' % LONG, "[%s]" % LONG, LONG + "\n")])
def test_a_long_integer_in_a_file_is_named(tmp_path, capsys, command, text):
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    assert main([command, str(src), "--out", "/dev/null"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: '111") and len(line) <= 200
    assert line.endswith("(%d characters) has more than %d digits, Python's limit "
                         "for integer strings" % (len(LONG), LIMIT))


@pytest.mark.parametrize("argv", [
    ["construct", "--b", "0,1/3,2/3," + LONG], ["construct", "--grid", "0", "--y", LONG],
    ["cantor", "--t", LONG], ["cantor", "--window", LONG]])
def test_a_long_integer_flag_value_is_named(capsys, argv):
    assert main(argv + ["--out", "/dev/null"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("data error: '111") and len(line) <= 200
    assert "has more than %d digits, Python's limit for integer strings" % LIMIT in line


@pytest.mark.parametrize("argv", [
    ["construct", "--k", LONG], ["construct", "--grid", LONG],
    ["construct", "--grid", "0", "--seed", LONG], ["verify", "--count", LONG],
    ["cantor", "--depth", LONG]])
def test_a_long_integer_flag_is_refused_in_short_lines(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "invalid int value: '111" in err and "(%d characters)" % len(LONG) in err
    assert all(len(line) <= 200 for line in err.splitlines())
