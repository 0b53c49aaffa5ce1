"""Every README example runs.

The Python block of the "Quick start" section and each ``lagrtori`` command
of the "Command line" section run in a fresh interpreter, in a temporary
directory (the ``plot`` example writes a file), with the package imported
from ``src/``.  Each must exit 0.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _first_block(section: str, lang: str) -> str:
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", body, re.S)
    assert match, f"no {lang} block in the README section {section!r}"
    return match.group(1)


def _commands() -> list[list[str]]:
    text = _first_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [c for c in commands if c]


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_quick_start_runs(tmp_path):
    proc = _run([sys.executable, "-c", _first_block("Quick start", "python")], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[1])
def test_command_line_example_runs(argv, tmp_path):
    assert argv[0] == "lagrtori"
    proc = _run([sys.executable, "-m", "lagrtori.cli"] + argv[1:], tmp_path)
    assert proc.returncode == 0, proc.stderr
