"""Every `aicg` command of README § Command line runs as printed, and so does
the python block of § Library."""

import re
import shlex
from pathlib import Path

import pytest

from aicg.cli import _resolve, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(readme: Path) -> list[list[str]]:
    """The arguments of each `aicg` line of the Command line section's shell
    block, with `\\` continuations joined and `#` comments dropped."""
    text = readme.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("aicg ")]


COMMANDS = readme_commands(ROOT / "README.md")


def _with_out(args: list[str], tmp_path: Path) -> list[str]:
    """args writing into tmp_path: its --out path moved there, or one added."""
    if "--out" not in args:
        return [*args, "--out", str(tmp_path / "out")]
    k = args.index("--out") + 1
    return [*args[:k], str(tmp_path / args[k]), *args[k + 1:]]


def test_every_subcommand_has_an_example():
    assert {args[0] for args in COMMANDS} == {"bias", "target", "select", "regions", "radii"}


def test_continuations_join(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("## Command line\n\n```sh\n# a comment\naicg bias --model t1 \\\n"
                      "    --mu0y 0   # -> 1\nnot a command\n```\n\n## Next\n",
                      encoding="utf-8")
    assert readme_commands(readme) == [["bias", "--model", "t1", "--mu0y", "0"]]


@pytest.mark.parametrize("args", COMMANDS, ids=[f"{k}-{a[0]}" for k, a in enumerate(COMMANDS)])
def test_example_runs(tmp_path, args):
    args = _with_out(args, tmp_path)
    if args[0] == "target":
        # a README-size curve takes seconds: its flags and config must
        # parse and resolve, which is where a stale example fails
        _resolve(build_parser().parse_args(args))
        return
    assert main(args) == 0


def library_block(readme: Path) -> str:
    """The python block of the Library section."""
    text = readme.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    # the example's API (records, their fields, the engine's pairs) cannot drift
    names: dict = {}
    exec(compile(library_block(ROOT / "README.md"), "README.md § Library", "exec"), names)
    assert (names["target"], names["target_se"]) == pytest.approx((1.681, 0.0107), abs=1e-3)
    assert (names["plugin"], names["plugin_se"]) == pytest.approx((1.577, 0.00113), abs=1e-3)
