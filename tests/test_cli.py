import pytest

from dcroadmap import cli


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_components_of_the_unit_circle(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", "vars: x y\nx^2 + y^2 - 1\n")
    assert cli.main(["components", "-f", path]) == 0
    assert capsys.readouterr().out.split() == ["1"]


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
