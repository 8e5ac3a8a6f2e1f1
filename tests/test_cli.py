"""System-file parsing and command-line behaviour."""

import subprocess
import sys

import pytest

from coxboundary import (
    PROXY_DISCLAIMER,
    Ray,
    format_system_file,
    parse_system_file,
)
from coxboundary.cli import main
from coxboundary.errors import SystemFileError

FREE3 = """\
# free product of three involutions
generators: a b c
matrix:
1 inf inf
inf 1 inf
inf inf 1
rays:
alpha = | a b
beta = | a c
"""

DD = """\
generators: a b c d
matrix:
1 inf 2 2
inf 1 2 2
2 2 1 inf
2 2 inf 1
rays:
alpha = | a b
beta = | c d
"""

PADDED = """\
generators: a b c
matrix:
1 inf 2
inf 1 2
2 2 1
"""

FIGURE1 = """\
generators: s t1 t2 t3
matrix:
1 2 2 inf
2 1 4 4
2 4 1 2
inf 4 2 1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_free3():
    system, rays = parse_system_file(FREE3)
    assert system.labels == ("a", "b", "c")
    assert system.right_angled
    assert rays["alpha"] == Ray((), (0, 1))
    assert rays["beta"] == Ray((), (0, 2))


def test_parse_reports_row_width_with_line():
    text = FREE3.replace("inf 1 inf", "inf 1")
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert err.value.line == 5


def test_parse_reports_bad_entry_with_column():
    text = FREE3.replace("1 inf inf", "1 nope inf")
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert err.value.line == 4
    assert err.value.column == 3


def test_parse_reports_matrix_violations():
    text = PADDED.replace("1 inf 2", "1 inf 1")
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert "(0, 2)" in str(err.value)


def test_parse_rejects_unknown_ray_generator():
    text = FREE3 + "gamma = | a z\n"
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert "'z'" in str(err.value)


def test_parse_rejects_unreduced_ray():
    text = FREE3 + "gamma = | a a\n"
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert "not reduced" in str(err.value)


def test_parse_rejects_rays_on_general_systems():
    text = FIGURE1 + "rays:\nalpha = | s t3\n"
    with pytest.raises(SystemFileError) as err:
        parse_system_file(text)
    assert "right-angled" in str(err.value)


def test_round_trip():
    for text in (FREE3, DD, PADDED, FIGURE1):
        system, rays = parse_system_file(text)
        printed = format_system_file(system, rays)
        system2, rays2 = parse_system_file(printed)
        assert system2.labels == system.labels
        assert system2.matrix == system.matrix
        assert rays2 == rays
        assert format_system_file(system2, rays2) == printed


def test_analyze_exit_codes(tmp_path, capsys):
    assert main(["analyze", write(tmp_path, "f3.cox", FREE3)]) == 0
    assert "verdict: scrambled" in capsys.readouterr().out
    assert main(["analyze", write(tmp_path, "dd.cox", DD)]) == 1
    assert "product-split" in capsys.readouterr().out
    assert main(["analyze", write(tmp_path, "p.cox", PADDED)]) == 2
    assert "boundary-too-small" in capsys.readouterr().out
    assert main(["analyze", write(tmp_path, "fig.cox", FIGURE1)]) == 2
    assert "out-of-scope" in capsys.readouterr().out


def test_analyze_parse_error_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.cox", FREE3.replace("inf 1 inf", "inf oops inf"))
    with pytest.raises(SystemExit) as err:
        main(["analyze", path])
    assert err.value.code == 64
    assert "line 5" in capsys.readouterr().err


def test_reduce_command(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    assert main(["reduce", path, "a a"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["", "length: 0"]
    d4 = write(tmp_path, "d4.cox", "generators: t1 t2\nmatrix:\n1 4\n4 1\n")
    assert main(["reduce", d4, "t1 t2 t1 t2 t1"]) == 0
    assert "length: 3" in capsys.readouterr().out


def test_reduce_long_word_on_figure_one(tmp_path, capsys):
    import random

    import oracles

    fig = oracles.figure_one()
    rng = random.Random(3)
    word = [0]
    while len(word) < 200:  # no letter twice in a row, so it cancels less
        s = rng.randrange(4)
        if s != word[-1]:
            word.append(s)
    word = tuple(word)
    length = oracles.root_length(fig, word)
    assert 50 < length < len(word)
    path = write(tmp_path, "fig.cox", FIGURE1)
    text = " ".join(fig.labels[s] for s in word)
    assert main(["reduce", path, text]) == 0
    printed, last = capsys.readouterr().out.splitlines()
    assert last == f"length: {length}"
    out = tuple(fig.labels.index(x) for x in printed.split())
    assert oracles.word_matrix(fig, out) == oracles.word_matrix(fig, word)


def test_reduce_unknown_generator(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    assert main(["reduce", path, "a z"]) == 2
    assert "unknown generator 'z'" in capsys.readouterr().err


def test_descent_command(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    assert main(["descent", path, "a b a"]) == 0
    assert capsys.readouterr().out.strip() == "{a}"


def test_simulate_liminf(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    out_csv = str(tmp_path / "series.csv")
    code = main(
        [
            "simulate", path, "alpha", "beta",
            "--mode", "liminf", "--depth", "32", "--kmax", "6",
            "--out", out_csv,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert PROXY_DISCLAIMER in out
    assert "threshold below 2^-8 reached: yes" in out
    lines = open(out_csv, encoding="utf-8").read().splitlines()
    assert lines[0] == "k,distance"
    assert len(lines) == 7
    assert lines[1] == "1,0.007812499767"


def test_simulate_liminf_with_chosen_s0(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    code = main(
        ["simulate", path, "alpha", "beta", "--mode", "liminf",
         "--depth", "16", "--kmax", "4", "--s0", "b"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "derived: s0=b" in out
    assert PROXY_DISCLAIMER in out


def test_simulate_limsup_equal_rays(tmp_path, capsys):
    text = FREE3 + "gamma = | a b\n"
    path = write(tmp_path, "f3.cox", text)
    code = main(
        ["simulate", path, "alpha", "gamma", "--mode", "limsup", "--L", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max over the radius-2 ball: 0.000000000000" in out
    assert PROXY_DISCLAIMER in out


def test_simulate_obstruction(tmp_path, capsys):
    path = write(tmp_path, "dd.cox", DD)
    code = main(
        ["simulate", path, "alpha", "beta", "--mode", "obstruction", "--L", "4",
         "--depth", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strictly positive: yes" in out
    assert PROXY_DISCLAIMER in out


def test_simulate_refuses_split_period(tmp_path, capsys):
    """A ray whose period splits into commuting factors has no stable
    translates; its lex-least prefixes converge to another ray's."""
    text = DD.replace("beta = | c d", "diag = | a c b d\naxis = | a b")
    path = write(tmp_path, "diag.cox", text)
    code = main(
        ["simulate", path, "diag", "axis", "--mode", "liminf", "--s0", "c",
         "--t0", "d", "--x", "d c d c d c", "--depth", "16", "--kmax", "4"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "'| a c b d'" in captured.err and "{a b} x {c d}" in captured.err


def test_simulate_unknown_ray(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    assert main(["simulate", path, "alpha", "nope", "--mode", "limsup"]) == 2
    assert "no ray named 'nope'" in capsys.readouterr().err


def test_simulate_csv_bit_exact(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    outs = []
    for name in ("one.csv", "two.csv"):
        out_csv = str(tmp_path / name)
        main(
            ["simulate", path, "alpha", "beta", "--mode", "liminf",
             "--depth", "16", "--kmax", "5", "--out", out_csv]
        )
        outs.append(open(out_csv, "rb").read())
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, rest",
    [
        ("simulate", ["alpha", "beta", "--mode", "limsup", "--depth", "-3"]),
        ("simulate", ["alpha", "beta", "--mode", "limsup", "--L", "-1"]),
        ("simulate", ["alpha", "beta", "--mode", "liminf", "--kmax", "0"]),
        ("simulate", ["alpha", "beta", "--mode", "liminf", "--t0", "b"]),
        ("check71", ["--s0", "a", "--t0", "b", "--K", "-1", "--L", "2"]),
        ("check71", ["--s0", "a", "--t0", "b", "--K", "7", "--L", "-1"]),
        ("simulate", ["alpha", "beta", "--mode", "liminf", "--s0", "b", "--x", "a c"]),
        ("simulate", ["alpha", "beta", "--mode", "limsup", "--s0", "a", "--t0", "b"]),
        ("simulate", ["alpha", "beta", "--mode", "obstruction", "--x", "a"]),
        ("check71", ["--s0", "a", "--t0", "b", "--K", "7", "--L", "2", "--table-rows", "-3"]),
    ],
)
def test_bad_bounds_are_usage_errors(tmp_path, capsys, command, rest):
    path = write(tmp_path, "f3.cox", FREE3)
    with pytest.raises(SystemExit) as err:
        main([command, path, *rest])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""


def test_check71_command(tmp_path, capsys):
    path = write(tmp_path, "f3.cox", FREE3)
    code = main(
        ["check71", path, "--s0", "a", "--t0", "b", "--K", "7", "--L", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "condition holds up to length 2: yes" in out
    assert "push-witness: s0=a t0=b bound=7" in out
    assert "x=" in out


def test_check71_failure_exit(tmp_path, capsys):
    dinf = write(tmp_path, "d.cox", "generators: a b\nmatrix:\n1 inf\ninf 1\n")
    code = main(["check71", dinf, "--s0", "a", "--t0", "b", "--K", "0", "--L", "0"])
    assert code == 1
    assert "no" in capsys.readouterr().out


def test_exit_code_is_function_of_verdict():
    from coxboundary.cli import exit_code
    from coxboundary.decision import (
        NOT_SCRAMBLED,
        SCRAMBLED,
        TWO_POINTS,
        UNKNOWN,
        BoundaryTooSmall,
        IrreducibleCore,
        OutOfScope,
        ProductSplit,
        Verdict,
    )

    assert exit_code(Verdict(SCRAMBLED, IrreducibleCore(frozenset({0})))) == 0
    assert (
        exit_code(Verdict(NOT_SCRAMBLED, ProductSplit(frozenset({0}), frozenset({1}))))
        == 1
    )
    assert exit_code(Verdict(NOT_SCRAMBLED, BoundaryTooSmall(TWO_POINTS))) == 2
    assert exit_code(Verdict(UNKNOWN, OutOfScope("x"))) == 2


def test_installed_entry_point(tmp_path):
    path = write(tmp_path, "f3.cox", FREE3)
    proc = subprocess.run(
        [sys.executable, "-m", "coxboundary.cli", "analyze", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: scrambled" in proc.stdout
