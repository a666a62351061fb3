"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srlaguerre
from srlaguerre.cli import main
from srlaguerre.multiset import IntMultiset


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_enumerate_histories_n2(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--kind", "histories")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "count: 2"
    assert sorted(lines[:-1]) == ["EE/0,0", "NS/0,1"]


def test_enumerate_perms_n1(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "1", "--kind", "perms")
    assert code == 0
    assert out.strip().splitlines() == ["1", "count: 1"]


def test_enumerate_count_is_factorial(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "6", "--kind", "histories")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 720"


def test_enumerate_json_and_csv_counts(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--kind", "perms",
                        "--format", "json")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 2}
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--kind", "perms",
                        "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count,2"


def test_enumerate_bad_args(capsys):
    assert run_cli(capsys, "enumerate", "--n", "0", "--kind", "perms")[0] == 2
    assert run_cli(capsys, "enumerate", "--n", "99", "--kind", "perms")[0] == 2


def test_max_n_env_override(capsys):
    os.environ["LAGUERRE_MAX_N"] = "3"
    try:
        assert run_cli(capsys, "enumerate", "--n", "4", "--kind", "perms")[0] == 2
        assert run_cli(capsys, "enumerate", "--n", "3", "--kind", "perms")[0] == 0
    finally:
        del os.environ["LAGUERRE_MAX_N"]


def test_map_examples(capsys):
    code, out = run_cli(capsys, "map", "--via", "rho", "6,7,1,3,9,5,4,8,2")
    assert (code, out.strip()) == (0, "9,3,7,6,2,8,1,4,5")
    code, out = run_cli(capsys, "map", "--via", "mfs", "5,9,6,1,3,7,4,2,8")
    assert (code, out.strip()) == (0, "6,9,5,1,4,7,3,2,8")
    code, out = run_cli(capsys, "map", "--via", "fv", "6,1,8,7,4,2,5,9,3")
    assert (code, out.strip()) == (0, "NNNDESDSS/0,0,0,2,1,3,2,2,1")
    code, out = run_cli(capsys, "map", "--via", "fv-inv",
                        "NNNDESDSS/0,0,0,2,1,3,2,2,1")
    assert (code, out.strip()) == (0, "6,1,8,7,4,2,5,9,3")


def test_module_runs_the_command_line(capsys):
    code, out = run_cli(capsys, "map", "--via", "fv", "3,1,2")
    src = Path(srlaguerre.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "srlaguerre", "map", "--via", "fv", "3,1,2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0


def test_map_accepts_bare_digit_strings(capsys):
    code, out = run_cli(capsys, "map", "--via", "r", "618742593")
    assert (code, out.strip()) == (0, "3,9,5,2,4,7,8,1,6")


def test_map_error_codes(capsys):
    # Unparseable input -> 3; parseable but invariant-violating -> 4.
    assert run_cli(capsys, "map", "--via", "fv", "not-a-perm")[0] == 3
    assert run_cli(capsys, "map", "--via", "fv", "1,1,2")[0] == 4
    assert run_cli(capsys, "map", "--via", "fv-inv", "NX/0,0")[0] == 3
    assert run_cli(capsys, "map", "--via", "fv-inv", "NS/0,0")[0] == 4


def test_stat_examples(capsys):
    code, out = run_cli(capsys, "stat", "--perm", "9,4,7,6,1,2,8,5,3",
                        "--stat", "den")
    assert (code, out.strip()) == (0, "23")
    code, out = run_cli(capsys, "stat", "--perm", "1,2,3", "--stat", "maj")
    assert (code, out.strip()) == (0, "0")
    code, out = run_cli(capsys, "stat", "--perm", "6,1,8,7,4,2,5,9,3",
                        "--stat", "mak")
    assert (code, out.strip()) == (0, "23")


def test_stat_all_is_json(capsys):
    code, out = run_cli(capsys, "stat", "--perm", "6,1,8,7,4,2,5,9,3",
                        "--stat", "all")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"linear", "cyclic", "shifted"}


def test_stat_all_csv_has_one_row_per_field(capsys):
    perm = "6,1,8,7,4,2,5,9,3"
    code, out = run_cli(capsys, "stat", "--perm", perm, "--stat", "all",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 3 for row in rows)
    _, text = run_cli(capsys, "stat", "--perm", perm, "--stat", "all")
    _, as_json = run_cli(capsys, "stat", "--perm", perm, "--stat", "all",
                         "--format", "json")
    assert as_json == text
    expected = json.loads(text)
    assert [(family, field) for family, field, _ in rows] == [
        (family, field) for family, fields in expected.items() for field in fields
    ]
    for family, field, value in rows:
        want = expected[family][field]
        if value.startswith("{"):
            assert IntMultiset.from_text(value).to_json() == want
        elif isinstance(want, list):
            assert [int(v) for v in value.split(",")] == want
        else:
            assert int(value) == want
    assert ["cyclic", "side", "0,0,0,1,2,0,1,0,0"] in rows
    assert ["linear", "Des", "{1,3,4,5,8}"] in rows
    assert ["shifted", "pone", "2"] in rows


def test_stat_unknown_name(capsys):
    assert run_cli(capsys, "stat", "--perm", "1,2", "--stat", "bogus")[0] == 5


def test_distribution_examples(capsys):
    code, out = run_cli(capsys, "distribution", "--n", "3", "--stats", "inv")
    assert (code, out.strip()) == (0, "1 + 2 q + 2 q^2 + q^3")
    code, out = run_cli(capsys, "distribution", "--n", "3", "--stats", "des")
    assert (code, out.strip()) == (0, "1 + 4 q + q^2")
    assert run_cli(capsys, "distribution", "--n", "0", "--stats", "des")[0] == 2


def test_verify_pass_lines(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "thm3.2-involution",
                        "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(": pass" in line for line in lines)


def test_verify_json_report_schema(capsys):
    code, out = run_cli(capsys, "verify", "--claim", "lem4.14", "--n-max", "4",
                        "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        report = json.loads(line)
        assert report["status"] == "pass"
        assert {"claim", "n", "status", "checked", "millis"} <= set(report)


def test_verify_unknown_claim(capsys):
    assert run_cli(capsys, "verify", "--claim", "nope", "--n-max", "3")[0] == 5


def test_verify_threads_deterministic(capsys):
    # Sweeps run serially, so verify takes no --threads option; two runs
    # print the same outcomes.
    for threads in ("1", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--claim", "cor3.3", "--n-max", "3", "--threads", threads])
        assert exc.value.code == 2
    strip = lambda text: [line.split(" (")[0] for line in text.strip().splitlines()]
    first = strip(run_cli(capsys, "verify", "--claim", "cor3.3", "--n-max", "5")[1])
    assert first == strip(run_cli(capsys, "verify", "--claim", "cor3.3", "--n-max", "5")[1])
    assert len(first) == 5 and "fail" not in " ".join(first)


def test_moments(capsys):
    values = lambda text: [int(line.split("=")[1]) for line in
                           text.strip().splitlines()]
    code, out = run_cli(capsys, "moments", "--count", "5")
    assert code == 0
    assert values(out) == [1, 1, 2, 6, 24]
    code, out = run_cli(capsys, "moments", "--alpha", "1", "--count", "4")
    assert code == 0
    assert values(out) == [1, 2, 6, 24]


def test_moments_size_is_capped(capsys):
    # The cap is checked before any moment is computed, so an unbounded
    # count returns at once.
    for argv in (("--count", "1001"), ("--alpha", "2000", "--count", "10"),
                 ("--alpha", "1000", "--count", "1"), ("--count", str(10**6))):
        assert run_cli(capsys, "moments", *argv)[0] == 2, argv
    code, out = run_cli(capsys, "moments", "--count", "1000", "--format", "csv")
    assert code == 0
    assert len(out.split(",")) == 1000


# The exact stdout of each (subcommand, format) pair that no other test
# pins.  ``millis`` varies from run to run, so verify's lines read it as M.
PINNED_OUTPUTS = [
    (["map", "--via", "fv", "3,1,2", "--format", "json"],
     '{"w": ["N", "E", "S"], "h": [0, 1, 1], "c": [0, 0, 1]}\n'),
    (["map", "--via", "fv", "3,1,2", "--format", "csv"], "NES,0 0 1\n"),
    (["map", "--via", "fv-inv", "NES/0,1,1", "--format", "json"], "[2, 3, 1]\n"),
    (["map", "--via", "fv-inv", "NES/0,1,1", "--format", "csv"], "2,3,1\n"),
    (["enumerate", "--n", "3", "--kind", "histories", "--format", "csv"],
     "NES,0 0 1\nNES,0 1 1\nNDS,0 1 1\nNSE,0 1 0\nENS,0 0 1\nEEE,0 0 0\n"
     "count,6\n"),
    (["enumerate", "--n", "3", "--kind", "histories", "--format", "json"],
     '{"w": ["N", "E", "S"], "h": [0, 1, 1], "c": [0, 0, 1]}\n'
     '{"w": ["N", "E", "S"], "h": [0, 1, 1], "c": [0, 1, 1]}\n'
     '{"w": ["N", "D", "S"], "h": [0, 1, 1], "c": [0, 1, 1]}\n'
     '{"w": ["N", "S", "E"], "h": [0, 1, 0], "c": [0, 1, 0]}\n'
     '{"w": ["E", "N", "S"], "h": [0, 0, 1], "c": [0, 0, 1]}\n'
     '{"w": ["E", "E", "E"], "h": [0, 0, 0], "c": [0, 0, 0]}\n'
     '{"count": 6}\n'),
    (["stat", "--perm", "9,4,7,6,1,2,8,5,3", "--stat", "den", "--format", "json"],
     '{"stat": "den", "value": 23}\n'),
    (["stat", "--perm", "9,4,7,6,1,2,8,5,3", "--stat", "den", "--format", "csv"],
     "den,23\n"),
    (["distribution", "--n", "3", "--stats", "des,inv", "--format", "json"],
     '[{"coeff": 1, "exps": {}}, {"coeff": 2, "exps": {"q1": 1, "q2": 1}},'
     ' {"coeff": 2, "exps": {"q1": 1, "q2": 2}},'
     ' {"coeff": 1, "exps": {"q1": 2, "q2": 3}}]\n'),
    (["distribution", "--n", "3", "--stats", "des,inv", "--format", "csv"],
     "1,\n2,q1=1 q2=1\n2,q1=1 q2=2\n1,q1=2 q2=3\n"),
    (["moments", "--count", "4"], "mu_0 = 1\nmu_1 = 1\nmu_2 = 2\nmu_3 = 6\n"),
    (["moments", "--count", "4", "--format", "json"], "[1, 1, 2, 6]\n"),
    (["verify", "--claim", "lem4.14", "--n-max", "3"],
     "lem4.14 n=1: pass (checked 1, M ms)\n"
     "lem4.14 n=2: pass (checked 2, M ms)\n"
     "lem4.14 n=3: pass (checked 6, M ms)\n"),
    (["verify", "--claim", "lem4.14", "--n-max", "3", "--format", "csv"],
     "lem4.14,1,pass,1,M,\nlem4.14,2,pass,2,M,\nlem4.14,3,pass,6,M,\n"),
]


@pytest.mark.parametrize("argv, expected", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUTS])
def test_pinned_stdout(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    out = re.sub(r"\d+ ms\)$", "M ms)", out, flags=re.M)
    out = re.sub(r"^(lem4\.14,\d+,pass,\d+,)\d+,$", r"\1M,", out, flags=re.M)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize("via", ["fv-inv", "fz-inv", "yzl-inv", "xi"])
def test_history_maps_accept_the_empty_history(capsys, via):
    code, out = run_cli(capsys, "map", "--via", via, "/")
    assert code == 0
    assert out == ("/\n" if via == "xi" else "\n")


def test_verify_csv_quotes_counterexamples(monkeypatch, capsys):
    from srlaguerre import claims

    monkeypatch.setattr(claims, "xi", lambda h: h)
    code, out = run_cli(capsys, "verify", "--claim", "cor3.6", "--n-max", "3",
                        "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert rows[1][2] == "fail" and rows[1][5] == "NS/0,1: Neb: {} != {1}"


def test_distribution_filter_readme_example(capsys):
    code, out = run_cli(capsys, "distribution", "--n", "4", "--stats", "des",
                        "--filter", "3,1,2")
    assert (code, out.strip()) == (0, "1 + 6 q + 6 q^2 + q^3")


def test_distribution_filter_bare_digits(capsys):
    code, out = run_cli(capsys, "distribution", "--n", "4", "--stats", "des",
                        "--filter", "312")
    assert (code, out.strip()) == (0, "1 + 6 q + 6 q^2 + q^3")


def test_distribution_filter_parse_failure(capsys):
    assert run_cli(capsys, "distribution", "--n", "3", "--stats", "des",
                   "--filter", "ab")[0] == 3


def test_distribution_filter_not_a_permutation(capsys):
    assert run_cli(capsys, "distribution", "--n", "3", "--stats", "des",
                   "--filter", "11")[0] == 4


def test_max_n_env_not_an_integer(capsys, monkeypatch):
    # ASCII digits only: int() alone would read the cap '1_1' as 11.
    for raw in ("abc", "٣", "1_1", "+3", "３"):
        monkeypatch.setenv("LAGUERRE_MAX_N", raw)
        code = main(["enumerate", "--n", "3", "--kind", "perms"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == (
            "", f"error: LAGUERRE_MAX_N must be an integer, got {raw!r}\n")


def test_max_n_env_below_one(capsys, monkeypatch):
    # A cap below 1 admits no size, so it is the variable that is wrong,
    # not --n.
    for raw in ("0", "-3"):
        monkeypatch.setenv("LAGUERRE_MAX_N", raw)
        code = main(["enumerate", "--n", "3", "--kind", "perms"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == (
            "", f"error: LAGUERRE_MAX_N must be at least 1, got {raw!r}\n")


# Integer options are ASCII digits with an optional minus sign only, as
# text input is.  Every size here is at most 3: an option read wrongly
# must not start a large sweep.
BAD_INTEGER_OPTIONS = [
    (["enumerate", "--n", "٢"], "٢"),
    (["enumerate", "--n", "+2", "--kind", "histories"], "+2"),
    (["distribution", "--n", "0_3", "--stats", "des"], "0_3"),
    (["verify", "--claim", "cor3.3", "--n-max", "３"], "３"),
    (["moments", "--count", "+3"], "+3"),
    (["moments", "--alpha", "٠", "--count", "3"], "٠"),
]


@pytest.mark.parametrize("argv, token", BAD_INTEGER_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in BAD_INTEGER_OPTIONS])
def test_integer_options_take_ascii_digits_only(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"invalid literal for int() with base 10: {token!r}" in captured.err


# Every error exit of the CLI, with the one line it prints on stderr.
ERROR_EXITS = [
    (["enumerate", "--n", "0"], 2, "n must be in 1..10"),
    (["enumerate", "--n", "11", "--kind", "histories"], 2, "n must be in 1..10"),
    (["distribution", "--n", "0", "--stats", "des"], 2, "n must be in 1..10"),
    (["distribution", "--n", "11"], 2, "n must be in 1..10"),
    (["verify", "--claim", "cor3.3", "--n-max", "0"], 2, "n-max must be in 1..10"),
    (["verify", "--claim", "all", "--n-max", "11"], 2, "n-max must be in 1..10"),
    (["moments", "--count", "0"], 2,
     "count must be positive and alpha nonnegative"),
    (["moments", "--alpha", "-1", "--count", "3"], 2,
     "count must be positive and alpha nonnegative"),
    (["moments", "--alpha", "-3", "--count", "4"], 2,
     "count must be positive and alpha nonnegative"),
    (["moments", "--alpha", "990", "--count", "11"], 2,
     "count + alpha must be at most 1000"),
    (["map", "--via", "fv", "not-a-perm"], 3,
     "cannot parse permutation 'not-a-perm'"),
    (["map", "--via", "fv", "1,1,2"], 4, "not a permutation of 1..n: (1, 1, 2)"),
    (["stat", "--perm", "", "--stat", "des"], 3, "empty permutation text"),
    (["stat", "--perm", "1,3", "--stat", "des"], 4,
     "not a permutation of 1..n: (1, 3)"),
    (["distribution", "--n", "3", "--filter", "ab"], 3,
     "cannot parse permutation 'ab'"),
    (["distribution", "--n", "3", "--filter", "11"], 4,
     "not a permutation of 1..n: (1, 1)"),
    (["map", "--via", "fv-inv", "NX/0,0"], 3, "unknown step letter 'X'"),
    (["map", "--via", "fz-inv", "NS"], 3,
     "malformed history literal (missing '/'): 'NS'"),
    (["map", "--via", "yzl-inv", "NS/0,a"], 3,
     "invalid literal for int() with base 10: 'a'"),
    (["map", "--via", "yzl-inv", "NS/0"], 3,
     "step word and weight sequence have different lengths"),
    (["map", "--via", "fv-inv", "NS/0,0"], 4, "weight c_2 = 0 outside [1, 1]"),
    (["map", "--via", "xi", "N/0"], 4, "path ends at height 1, expected 0"),
    (["map", "--via", "xi", "SN/0,0"], 4, "path drops below the axis at step 1"),
    # Integer tokens are ASCII digits with an optional minus sign only.
    (["map", "--via", "r", "²"], 3, "cannot parse permutation '²'"),
    (["map", "--via", "r", "٢١"], 3, "cannot parse permutation '٢١'"),
    (["stat", "--perm", "١,2", "--stat", "des"], 3, "cannot parse permutation '١,2'"),
    (["map", "--via", "r", "+1,2"], 3, "cannot parse permutation '+1,2'"),
    (["map", "--via", "r", "2,1_0,1,3,4,5,6,7,8,9"], 3,
     "cannot parse permutation '2,1_0,1,3,4,5,6,7,8,9'"),
    (["map", "--via", "xi", "E/٠"], 3, "invalid literal for int() with base 10: '٠'"),
    (["map", "--via", "xi", "E/+0"], 3, "invalid literal for int() with base 10: '+0'"),
    (["map", "--via", "xi", "E/1_0"], 3, "invalid literal for int() with base 10: '1_0'"),
    (["stat", "--perm=-1,2", "--stat", "des"], 4, "not a permutation of 1..n: (-1, 2)"),
    (["map", "--via", "xi", "--", "E/-1"], 4, "weight c_1 = -1 outside [0, 0]"),
    (["stat", "--perm", "1,2", "--stat", "bogus"], 5, "unknown statistic 'bogus'"),
    # Pattern letters are ASCII digits only.
    (["stat", "--perm", "3,1,2", "--stat", "1²"], 5, "unknown statistic '1²'"),
    (["distribution", "--n", "3", "--stats", "1²"], 5, "unknown statistic '1²'"),
    (["stat", "--perm", "3,1,2", "--stat", "١u2"], 5, "unknown statistic '١u2'"),
    (["distribution", "--n", "3", "--stats", "des,bogus"], 5,
     "unknown statistic 'bogus'"),
    (["verify", "--claim", "nope", "--n-max", "3"], 5, "unknown claim nope"),
]


@pytest.mark.parametrize("argv, code, message", ERROR_EXITS,
                         ids=[" ".join(row[0]) for row in ERROR_EXITS])
def test_error_exits_print_one_line(capsys, monkeypatch, argv, code, message):
    monkeypatch.delenv("LAGUERRE_MAX_N", raising=False)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
