"""README examples: the library quickstart and the command-line example
print what the README says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from metricflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str, after: str) -> list:
    """Lines of the first ```lang block after the heading ``after``."""
    text = README.read_text()
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start:text.index("```", start)].splitlines()


def _expected_prints(lines: list) -> list:
    """The documented output of each print: its line's trailing comment, or
    the comment line right after it."""
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].partition("#")[2]
            out.append(comment.strip())
    return out


def test_library_quickstart_prints_the_documented_values():
    lines = _block("python", "## Library quickstart")
    expected = _expected_prints(lines)
    assert expected == ["1.5 0.0", "True 4.999593645732696", "0.05569859683110867"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile("\n".join(lines), str(README), "exec"), {})
    assert buf.getvalue().splitlines() == expected


def test_command_line_example_prints_the_documented_lines(tmp_path, monkeypatch, capsys):
    """Each ``$ metricflow ...`` command exits 0, and the lines shown under
    it appear in its output in order; ``...`` stands for any text."""
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in _block("sh", "## Command line"):
        if line.startswith("$ "):
            commands.append((shlex.split(line[2:]), []))
        elif line and line != "...":
            commands[-1][1].append(line)
    assert [argv[:2] for argv, _ in commands] == [
        ["metricflow", "generate"], ["metricflow", "verify"],
        ["metricflow", "generate"], ["metricflow", "distance"],
    ]
    shown = [line for _, lines in commands for line in lines]
    assert "H-concentration constant: 1.9999999998809124 (witness (0, 1, 0, 0))" in shown
    assert "value r = 0.050025906092710626" in shown
    for argv, lines in commands:
        rc = main(argv[1:])
        rest = iter(capsys.readouterr().out.splitlines())
        assert rc == 0, argv
        for line in lines:
            pattern = re.escape(line).replace(re.escape("..."), ".*")
            assert any(re.fullmatch(pattern, got) for got in rest), (argv, line)
