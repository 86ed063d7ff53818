import json

import pytest

from dcroadmap import cli, curves


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_components_of_the_unit_circle(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    assert cli.main(["components", "-f", path]) == 0
    assert capsys.readouterr().out.split() == ["1"]


def test_components_writes_the_roadmap_json(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    out = tmp_path / "out.json"
    assert cli.main(["components", "-f", path, "-o", str(out)]) == 0
    assert capsys.readouterr().out.split() == ["1"]
    assert len(json.loads(out.read_text(encoding="utf-8"))["components"]) == 1


def test_components_without_anchors(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    assert cli.main(["components", "-f", path, "--no-anchors"]) == 0
    assert capsys.readouterr().out.split() == ["1"]


@pytest.mark.parametrize("bound", [2, 3])
def test_a_dimension_bound_past_the_divide_range_is_an_algorithm_error(tmp_path, capsys, bound):
    # a set in k = 2 variables has dimension at most 1 unless it is the
    # plane, so a bound of 2 or more is rejected before any tree is built
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    assert cli.main(["components", "-f", path, "--dim-bound", str(bound)]) == 3
    got = capsys.readouterr()
    assert got.out == ""
    assert f"dimension bound {bound} is not below the 2 variables" in got.err


def test_malformed_line_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "vars: x y\nx^2 + * y\n")
    assert cli.main(["components", "-f", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_oracle_counts_the_unit_circle(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    assert cli.main(["oracle", "-f", path]) == 0
    assert capsys.readouterr().out.split() == ["1"]


def _point(tmp_path, name, x):
    # the point (x, 0) as a RUR: the root t = x of t - x, with F = (1, t, 0)
    return _write(tmp_path, name, '{"uvar": "t", "f": "t - (%d)", "signs": [0, 1], '
                                  '"F": ["1", "t", "0"]}' % x)


@pytest.mark.parametrize("x1, x2, code, out, err", [
    (1, -1, 0, "connected", ""),
    (1, 4, 0, "disconnected", ""),
    (1, 0, 4, "", "point not on the variety"),
])
def test_connect_on_two_disjoint_circles(tmp_path, capsys, x1, x2, code, out, err):
    path = _write(tmp_path, "circles.txt",
                  "vars: x y\n(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1)\n")
    p1, p2 = _point(tmp_path, "p1.json", x1), _point(tmp_path, "p2.json", x2)
    assert cli.main(["connect", "-f", path, "--p1", p1, "--p2", p2]) == code
    got = capsys.readouterr()
    assert got.out.split()[:1] == ([out] if out else [])
    assert err in got.err


@pytest.mark.parametrize("record", [
    '{"uvar": "t", "f": "t - 1", "signs": [0, 1], "F": ["1", "t"]}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, -1], "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": "t^2 + 1", "signs": [0, 1, 1], "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, 1], "F": ["0", "0", "t"]}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, 1], "F": ["t - 1", "0", "t"]}',
], ids=["F shorter than k + 1", "signs of no root", "f with no real root",
        "a zero denominator", "a denominator that vanishes at the root"])
def test_a_malformed_point_is_a_point_parse_error(tmp_path, capsys, record):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    good = _point(tmp_path, "good.json", 1)
    bad = _write(tmp_path, "bad.json", record)
    assert cli.main(["connect", "-f", path, "--p1", good, "--p2", bad]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "point parse error" in got.err


@pytest.mark.parametrize("record", [
    '{"uvar": 1, "f": "t - 1", "signs": [0, 1], "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": 5, "signs": [0, 1], "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": "t - 1", "signs": 3, "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, "1"], "F": ["1", "t", "0"]}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, 1], "F": "1t0"}',
    '{"uvar": "t", "f": "t - 1", "signs": [0, 1], "F": ["1", "t", 0]}',
], ids=["uvar a number", "f a number", "signs a number", "a sign a string",
        "F a string", "an entry of F a number"])
def test_a_point_field_of_the_wrong_type_is_a_point_parse_error(tmp_path, capsys, record):
    # "F": "1t0" would otherwise be read character by character as (1, t, 0)
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    good = _point(tmp_path, "good.json", 1)
    bad = _write(tmp_path, "bad.json", record)
    assert cli.main(["connect", "-f", path, "--p1", good, "--p2", bad]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "point parse error" in got.err


def test_a_point_file_that_is_not_an_object_or_missing_is_a_point_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    good = _point(tmp_path, "good.json", 1)
    for bad in (_write(tmp_path, "list.json", "[1, 2]"), str(tmp_path / "missing.json")):
        assert cli.main(["connect", "-f", path, "--p1", good, "--p2", bad]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert "point parse error" in got.err


@pytest.mark.parametrize("command", ["components", "connect", "oracle"])
def test_a_missing_input_file_is_a_parse_error(tmp_path, capsys, command):
    argv = [command, "-f", str(tmp_path / "missing.txt")]
    if command == "connect":
        argv += ["--p1", _point(tmp_path, "p1.json", 1), "--p2", _point(tmp_path, "p2.json", -1)]
    assert cli.main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert "parse error" in got.err


@pytest.mark.parametrize("command", ["components", "connect"])
def test_a_failed_step_is_an_algorithm_error(tmp_path, capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise ArithmeticError("injected failure")

    monkeypatch.setattr(curves, "signs_at_encodings", fail)
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 4\n")
    argv = [command, "-f", path]
    if command == "connect":
        argv += ["--p1", _point(tmp_path, "p1.json", 2), "--p2", _point(tmp_path, "p2.json", -2)]
    assert cli.main(argv) == 3
    got = capsys.readouterr()
    assert got.out == ""
    assert "algorithm error: injected failure" in got.err
