import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from anomtax.config import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    nn_error, ga_error = map(float, done.stdout.split())
    assert 0.0 <= nn_error <= 1.0 and 0.0 <= ga_error <= 1.0


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
    load_config(str(path))  # the block names no key the loader rejects
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(block)
    documented = {name: {"blobN" if key.startswith("blob") else key
                         for key in parser[name]}
                  for name in parser.sections()}
    accepted = {name: _listed(tmp_path, f"[{name}]\nzz = 1\n", " accepts ")
                for name in _listed(tmp_path, "[zz]\n", "sections are ")}
    assert documented == accepted
