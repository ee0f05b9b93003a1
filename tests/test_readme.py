"""The README's CLI quickstart and library snippets run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from qmyo.features import save_recording
from qmyo.synthetic import default_mixing_model, generate_raw_emg

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    """Text of the README section under ``## title``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def blocks(text, language):
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def commands(text):
    """The ``qmyo`` command lines of the shell blocks, continuations joined."""
    lines = "\n".join(blocks(text, "sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("qmyo ")]


def test_quickstart_and_library_snippets_run(tmp_path, monkeypatch):
    # the raw decode example reads a recording the quickstart does not make
    mixing = default_mixing_model(seed=1)
    rng = np.random.default_rng([1, 3])
    recording = generate_raw_emg(mixing, {mixing.dofs[0]: 20.0}, 1.0, rng=rng)
    save_recording(recording, tmp_path / "recording.csv")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argvs = commands(section("CLI quickstart"))
    assert [argv[1] for argv in argvs] == [
        "synth", "train", "inspect-model", "evaluate", "evaluate", "learning-curve", "decode"]
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), argv

    monkeypatch.chdir(tmp_path)
    namespace = {}
    snippets = blocks(section("Library use"), "python")
    assert len(snippets) == 2
    for snippet in snippets:
        exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["model"].n_channels == 8
    assert len(namespace["batch"]) == 8216


def test_stated_src_line_count_is_current():
    [stated] = re.findall(r"`src/` holds (\d+) lines of Python\.", README)
    # counted as bench/run.py counts src_lines for its run metadata
    counted = sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))
    assert int(stated) == counted
