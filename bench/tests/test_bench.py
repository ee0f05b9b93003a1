"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest bench/tests

Each workload runs at a tiny size and must print every metric that
BENCHMARK.json names, with its unit; the correctness checker must flag a
decode that is off by a millionth of a degree.
"""

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from qmyo import control, experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0.5", "--scale", "0.02"]

NAMED = {
    "cli-pipeline": {"pipeline_s": "s", "eval_windows_per_s": "1/s"},
    "stream-decode": {"stream_p50_us": "us", "stream_p99_us": "us", "stream_windows_per_s": "1/s"},
    "train-sweep": {"train_sweep_s": "s", "train_samples_per_s": "1/s"},
}
SHARED = {"setup_s": "s", "peak_rss_mb": "MB"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace, section):
    out = run_bench("--workload", workload, "--trace", str(trace), *TINY)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    report = dict(re.findall(r"^(\w+) = \S+ (\S+)", out.stdout, re.M))
    assert report.items() >= (NAMED[workload] | SHARED).items()
    assert re.search(r"^failed_ratio = 0\.0 \(0 failed / [1-9]\d* attempted", out.stdout, re.M)


def _off_by_a_microdegree(decode):
    def shifted(fv, model):
        action = decode(fv, model)
        per_dof = {
            dof: d if d.direction.value == "rest" else dataclasses.replace(d, angle=d.angle + 1e-6)
            for dof, d in action.per_dof.items()
        }
        return dataclasses.replace(action, per_dof=per_dof)

    return shifted


def test_checker_flags_stream_decode_off_by_a_microdegree(monkeypatch, tmp_path):
    workload = workloads.StreamDecode(3, 0.02, tmp_path)
    workload.prepare()
    monkeypatch.setattr(control, "decode_features", _off_by_a_microdegree(control.decode_features))
    rec = workload.run_pass()
    moving = int((workload.want != 0).any(axis=1).sum())
    workload.verify(rec, None, detailed=True)
    assert moving > 0
    assert rec.mismatches == rec.failed == moving


def test_checker_flags_cli_decode_off_by_a_microdegree(monkeypatch, tmp_path):
    workload = workloads.CliPipeline(3, 0.02, tmp_path)
    workload.prepare()
    monkeypatch.setattr(
        experiment, "decode_features", _off_by_a_microdegree(experiment.decode_features)
    )
    rec = workload.run_pass()
    workload.verify(rec, None, detailed=True)
    assert rec.codes == {"synth": 0, "train": 0, "evaluate": 0}
    assert rec.failed == 1 and rec.mismatches > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "cli-pipeline", "--trace", "0", *TINY, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
