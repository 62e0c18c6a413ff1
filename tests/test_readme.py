"""Every ``ifdma`` command shown in README.md's sh blocks runs and exits 0.

Commands that read a file the README does not ship (``@requests.json``,
``--config``) are left out.
"""

import re
import shlex
from pathlib import Path

import pytest

from ifdma.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines
            if line.startswith("ifdma ") and "@" not in line and "--config" not in line]


def test_readme_shows_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
