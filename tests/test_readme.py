"""The README's Quick start block and `mubkit` command lines, run as written."""

import re
import shlex
from pathlib import Path

from mubkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# %.3e deviations depend on the BLAS build, so they are masked on both sides
SCI = re.compile(r"\d\.\d{3}e[+-]\d{2}")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def commands() -> list[tuple[str, list[str] | None]]:
    """Each `mubkit` line of the sh blocks, in order, with the output lines
    printed under it: a list for a `$ mubkit` transcript, None for a plain
    command line, which shows no output."""
    out = []
    for block in blocks("sh"):
        shown = None
        for line in block.splitlines():
            if line.startswith(("$ mubkit ", "mubkit ")):
                shown = [] if line.startswith("$") else None
                out.append((line.removeprefix("$ ").removeprefix("mubkit "), shown))
            elif shown is not None:
                shown.append(line)
    return out


def test_quick_start(capsys):
    code = blocks("python")[0]
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 2
    assert printed[:2] == expected
    assert len(printed) == 5  # and one line per classified basis


def test_command_transcripts(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["complement", "--p", "2", "--n", "2", "--out", "c22.json"]) == 0
    cmds = commands()
    assert sum(shown is not None for _, shown in cmds) == 6
    for line, shown in cmds:
        code = main(shlex.split(line))
        out = capsys.readouterr().out
        assert code == 0, line
        if shown:  # a transcript that prints nothing under its command is not compared
            assert SCI.sub("X", out) == SCI.sub("X", "\n".join(shown) + "\n"), line
