"""The examples in README.md, run: each `$ tametori ...` block through the CLI
and the Quick start block through Python, against the output printed there."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from tametori.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _sessions():
    """(command, printed lines) for every `$ ` line of the untagged blocks; the
    printed lines run up to the next `$ ` line or the end of the block."""
    out = []
    for lang, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if lang == "" and chunk.startswith("$ "):
                command, *printed = chunk.rstrip("\n").splitlines()
                while printed and not printed[-1].strip():
                    printed.pop()
                out.append((command[2:], printed))
    return out


SESSIONS = _sessions()
CONFIGS = {cmd.split()[1]: lines for cmd, lines in SESSIONS if cmd.startswith("cat ")}
RUNS = [(cmd, lines) for cmd, lines in SESSIONS if cmd.startswith("tametori ")]


def test_readme_examples_found():
    assert set(CONFIGS) == {"grid.cfg"}
    assert [cmd.split()[1] for cmd, _ in RUNS] == ["classify", "verify", "sweep", "sweep"]


@pytest.mark.parametrize("command,printed", RUNS, ids=[cmd for cmd, _ in RUNS])
def test_readme_command(capsys, tmp_path, monkeypatch, command, printed):
    """The printed lines match the output token for token (the README lines
    up the TSV columns with spaces), and the example exits 0."""
    for name, lines in CONFIGS.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [line.split() for line in printed]


def test_readme_quick_start(capsys):
    """The Quick start block prints what its comments say: a trailing comment
    on a print line, or a comment line of its own after it."""
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = [
        line.split("# ", 1)[1].strip()
        for line in code.splitlines()
        if "# " in line and ("print(" in line or line.startswith("# "))
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 2
