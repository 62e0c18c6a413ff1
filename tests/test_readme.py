"""README.md's examples work as shown.

Every ``ifdma`` command in its sh blocks runs and exits 0, with the
README's ``requests.json`` block in the working directory; its sim config
block passes ``build_configs``.  Only ``--config`` commands are left out:
the example sweep takes minutes.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from ifdma.cli import main
from ifdma.sim import build_configs

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def readme_commands() -> list[str]:
    lines = [line.split("#")[0].strip()
             for block in readme_blocks("sh") for line in block.splitlines()]
    return [line for line in lines if line.startswith("ifdma ") and "--config" not in line]


def readme_json(kind: type):
    """The one json block of the given top-level type."""
    (doc,) = [doc for doc in map(json.loads, readme_blocks("json")) if isinstance(doc, kind)]
    return doc


def test_readme_shows_commands():
    assert len(readme_commands()) >= 10


def test_readme_sim_config_builds():
    assert build_configs(readme_json(dict))


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, capsys, tmp_path, monkeypatch):
    (tmp_path / "requests.json").write_text(json.dumps(readme_json(list)))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
