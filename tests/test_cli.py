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
