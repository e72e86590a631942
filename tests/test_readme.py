"""The README's examples, run as written, print what the README says."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from skeindepth.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the given heading line."""
    section = README.split("\n" + heading + "\n", 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_library_quickstart():
    code = fenced_block("## Library quickstart", "python")
    # each print line ends in "# <output>", optionally followed by two
    # spaces and a remark
    want = [
        line.split("#", 1)[1].strip().split("  ")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def shell_session() -> list[tuple[str, list[str]]]:
    """(command, output lines) for each "$ " line of the command-line block."""
    steps: list[tuple[str, list[str]]] = []
    for line in fenced_block("## Command line", "sh").splitlines():
        if line.startswith("$ "):
            steps.append((line[2:].split("#", 1)[0].strip(), []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SKEIN_CACHE", raising=False)
    steps = shell_session()
    echo = re.fullmatch(r"echo '(.*)' > (\S+)", steps[0][0])
    Path(echo.group(2)).write_text(echo.group(1) + "\n")
    ran = []
    for command, want in steps[1:]:
        argv = shlex.split(command)
        if argv[:2] not in (
            ["skeindepth", "poly"],
            ["skeindepth", "bounds"],
            ["skeindepth", "td"],
            ["skeindepth", "tree"],
        ):
            continue
        # a command with a cache file runs twice: cold, then warm from
        # the file the first run saved
        for _ in range(2 if "--cache" in argv else 1):
            assert main(argv[1:]) == 0, command
            assert capsys.readouterr().out.splitlines() == want, command
        ran.append(argv[1])
    assert ran == ["poly", "bounds", "td", "td", "tree"]
    assert Path("tref.cache").read_text().startswith("v2\t")
    assert Path("tref.dot").read_text().startswith("digraph skein {")
