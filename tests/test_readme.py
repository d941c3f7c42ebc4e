"""The README's Python examples run as written."""

import re
from pathlib import Path

from pggpc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # The blocks read as one session: each runs in the namespace the ones
    # before it left, so an API change cannot leave an example broken.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), namespace)


def test_readme_command_table_is_the_cli_commands():
    # A removed subcommand must not linger in the table, nor a new one be missing.
    names = re.findall(r"^\| `pggpc ([\w-]+)` \|", README.read_text(), re.M)
    assert sorted(names) == sorted(cli._COMMANDS)
