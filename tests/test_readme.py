import argparse
import configparser
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from anomtax.cli import _build_parser, main
from anomtax.config import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(tmp_path):
    # the Command line walkthrough's synth, label and compare at seed 0
    run = tmp_path / "run"
    for argv in (["synth", str(tmp_path / "synth.csv")],
                 ["--out", str(run), "label", str(tmp_path / "synth.csv")],
                 ["--out", str(run / "cmp"), "compare",
                  str(run / "labeled.csv")]):
        assert main(["--seed", "0", "--quiet", *argv]) == 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code += ("from anomtax.mlp import save_model\n"
             "save_model(nn.model, 'nn_model.txt')\n"
             "save_model(best.model, 'ga_best_model.txt')\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (run / "cmp" / "summary.txt").read_text(
        encoding="utf-8")
    for name in ("nn_model.txt", "ga_best_model.txt"):
        assert ((tmp_path / name).read_bytes()
                == (run / "cmp" / name).read_bytes()), name


def _expand(name: str) -> list:
    """Every file name a brace list such as ``a.{txt,csv}`` stands for."""
    match = re.search(r"\{([^}]*)\}", name)
    if match is None:
        return [name]
    return [full for alt in match.group(1).split(",")
            for full in _expand(name[:match.start()] + alt
                                + name[match.end():])]


def test_command_line_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    parser = _build_parser()
    ran, checked, out, listing = set(), 0, ".", False
    for line in block.splitlines():
        if line.startswith("anomtax "):
            argv = shlex.split(line)[1:]
            ran.add(parser.parse_args(argv).command)
            out = argv[argv.index("--out") + 1] if "--out" in argv else "."
            done = subprocess.run([sys.executable, "-m", "anomtax.cli"]
                                  + argv, cwd=tmp_path, env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, (line, done.stderr)
            continue
        # a "->" comment and its indented continuation lines name the
        # files of the command above; a name with a "/" is relative to
        # the working directory, a bare one to the command's --out
        listing = "->" in line or (listing and line.startswith("#    "))
        if not listing:
            continue
        text = re.sub(r'"[^"]*"|\([^)]*\)', "",
                      line.split("->")[-1].lstrip("#"))
        for token in re.findall(r"(?:[\w<>/.-]|\{[^}]*\})+", text):
            for name in _expand(token):
                base = tmp_path if "/" in name else tmp_path / out
                found = list(base.glob(name.replace("<CLASS>", "*")))
                assert found, (line, name)
                checked += 1
    # the walkthrough runs every subcommand the parser has, and no other
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert ran == set(commands) and checked >= 20


def _listed(tmp_path, text: str, after: str) -> set:
    """The comma list that follows ``after`` in the error load_config
    raises for a config file holding ``text``."""
    path = tmp_path / "probe.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config(str(path), seed=0)
    return {item.strip("[]") for item in
            str(info.value).split(after, 1)[1].split(", ")}


def test_config_block_names_every_accepted_key(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    load_config(str(path), None)  # the block names no key the loader rejects
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(block)
    documented = {name: {"blobN" if key.startswith("blob") else key
                         for key in parser[name]}
                  for name in parser.sections()}
    accepted = {name: _listed(tmp_path, f"[{name}]\nzz = 1\n", " accepts ")
                for name in _listed(tmp_path, "[zz]\n", "sections are ")}
    assert documented == accepted
