"""README.md's examples work as shown.

Every ``ifdma`` command in its sh blocks runs and exits 0, with the
README's ``requests.json`` block in the working directory; its sim config
block passes ``build_configs``.  Only ``--config`` commands are left out:
the example sweep takes minutes.  Every python block runs, and an
expression line with a trailing comment, ``expr  # value``, asserts that
expr equals the value shown.
"""

import ast
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


def checked_session(block: str) -> str:
    """The block with each ``expr  # value`` line turned into an assertion."""
    lines = []
    for line in block.splitlines():
        code, hash_, shown = line.partition("#")
        body = ast.parse(code).body if hash_ else []
        if len(body) == 1 and isinstance(body[0], ast.Expr):
            line = f"assert ({code.strip()}) == ({shown.strip()}), {code.strip()!r}"
        lines.append(line)
    return "\n".join(lines)


def test_readme_python_sessions_run_as_shown():
    sessions = [checked_session(block) for block in readme_blocks("python")]
    assert sum(session.count("assert (") for session in sessions) >= 1
    for session in sessions:
        exec(compile(session, str(README), "exec"), {})


def test_readme_shows_commands():
    assert len(readme_commands()) >= 10


def test_readme_sim_config_builds():
    assert build_configs(readme_json(dict))


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, capsys, tmp_path, monkeypatch):
    (tmp_path / "requests.json").write_text(json.dumps(readme_json(list)))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
