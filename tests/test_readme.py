"""README.md says what the package offers; the docstrings say how.

These checks keep it that way: the README stays short enough to read in
one sitting, every `genstruct` name it cites in backticks exists, and
every `genstruct build` example of its CLI block runs.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from genstruct import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
MODULES = ("structures", "classes", "forcing", "autorder", "analysis", "cli")
# Backticked dotted names, such as `classes.glue_and_check`; file names
# such as `pyproject.toml` end in a known suffix instead.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_SUFFIXES = ("toml", "json", "py", "md", "tmp", "dot")


def cited_names() -> list[str]:
    return [name for name in DOTTED.findall(TEXT) if name.rsplit(".", 1)[1] not in FILE_SUFFIXES]


def cli_block() -> str:
    return re.search(r"## CLI\n\n```sh\n(.*?)```", TEXT, re.S).group(1)


def build_examples() -> list[list[str]]:
    lines = cli_block().replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("genstruct build ")]


def resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] == "genstruct":
        parts = parts[1:]
    if parts[0] not in MODULES:
        return False
    obj = importlib.import_module(f"genstruct.{parts[0]}")
    for attr in parts[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_is_under_200_lines():
    assert len(TEXT.splitlines()) < 200


def test_cited_names_resolve():
    names = cited_names()
    assert len(names) >= 30
    assert [name for name in names if not resolves(name)] == []


def test_cli_block_has_the_build_examples():
    assert len(build_examples()) == 3


@pytest.mark.parametrize("argv", build_examples(), ids=" ".join)
def test_build_example_exits_zero(argv, tmp_path):
    out = argv.index("--out") + 1
    argv = argv[:out] + [str(tmp_path / argv[out])] + argv[out + 1:]
    assert cli.main(argv) == 0
    assert Path(argv[out]).stat().st_size > 0
