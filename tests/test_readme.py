"""README's size caps and command examples, checked against the code."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from ghzpolytope import indices
from ghzpolytope.cli import EXIT_OK, main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_readme_states_every_size_cap_of_the_indices_table():
    bullets = [" ".join(b.split()) for b in section("Size caps").split("\n- ")[1:]]
    stated = {}
    for bullet in bullets:
        # "at n = 16", "at 256 threads", "at 2^32 samples"
        match = re.match(r"`(\w+)` stops .*? at (?:n = )?(\d+)(?:\^(\d+))?\b", bullet)
        assert match, bullet
        stated[match[1]] = int(match[2]) ** int(match[3] or 1)
    table = {name: value for name, value in vars(indices).items()
             if name.endswith("MAX_QUBITS") or name.startswith("MC_MAX_")}
    assert stated == table


def readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("ghzpolytope ")]


def test_readme_has_command_examples():
    assert {argv[0] for argv in readme_commands()} == {
        "classify", "mermin", "extremes", "facets", "ball", "volume", "certify", "report"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_example_runs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    assert (code, err.getvalue()) == (EXIT_OK, "")
    assert out.getvalue()
