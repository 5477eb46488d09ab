"""The README's examples stay loadable: its `permsel run` config passes
`load_config`, and every command of its "Command line" block parses."""

import re
import shlex
from pathlib import Path

from permsel.cli import build_parser
from permsel.runner import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str, lang: str) -> str:
    start = README.index(marker)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    assert match, f"no {lang} block after {marker!r}"
    return match.group(1)


def test_run_config_example_loads(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(_block_after("`permsel run` reads a JSON file:", "json"),
                    encoding="utf-8")
    load_config(path)  # raises unless the config validates; reads no dataset


def test_command_line_examples_parse():
    block = _block_after("## Command line", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("permsel ")]
    assert {argv[1] for argv in commands} == {"synth", "select", "rank", "run", "report"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])  # argparse exits on a bad flag
        assert args.command == argv[1]
