"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the root.

The smoke mode runs every workload, untraced and traced, on tiny inputs;
each run must pass its checks and report exactly the metric names and
units BENCHMARK.json declares.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    res = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_reasons_match_the_benchmark_file():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.metric_units())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""


def _in_s_n(seq: list[int]) -> bool:
    for i, v in enumerate(seq, start=1):
        if not 1 <= v <= i:
            return False
        if any(seq[i - r - 1] > v - r for r in range(1, v)):
            return False
    return True


def test_generated_sequences_are_members_of_s_n():
    rng = random.Random(3)
    for n in list(range(1, 13)) * 20 + [200, 400]:
        assert _in_s_n(workloads.random_sequence(rng, n))


def test_same_seed_same_inputs_and_fixed_size_mix(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.build("roundtrip", 5, "smoke", a)
    workloads.build("roundtrip", 5, "smoke", b)
    text_a = (a / "roundtrip.in").read_text()
    assert text_a == (b / "roundtrip.in").read_text()
    c = tmp_path / "c"
    c.mkdir()
    workloads.build("roundtrip", 6, "smoke", c)
    text_c = (c / "roundtrip.in").read_text()
    assert text_c != text_a
    assert [len(x.split()) for x in text_c.splitlines()] == [
        len(x.split()) for x in text_a.splitlines()
    ]


def test_checks_catch_wrong_output():
    tally = workloads.Tally()
    workloads.check_special_listing(1)(0, "1|2,4|3\n1,3|2\n", tally)
    workloads.check_map(["1 1"])(0, "1 2\n", tally)
    workloads.check_verify(1)(1, '{"status": "fail", "counts": [1, 2], "checks": []}', tally)
    assert tally.failed >= 5


def test_wiring_problems_flag_a_layer_that_should_be_silent():
    units = tracing.metric_units()
    metrics = {name: (1 if name.endswith(".calls") else 0.0, unit) for name, unit in units.items()}
    problems = tracing.wiring_problems("roundtrip", metrics, seed_tree=False)
    assert any(p.startswith("kernels.") for p in problems)
    problems = tracing.wiring_problems("enumerate", metrics, seed_tree=False)
    assert any(p.startswith("bijection.") for p in problems)
    metrics["verify.walks_per_size"] = (2.0, "ratio")
    assert tracing.wiring_problems("verify", metrics, seed_tree=True)
    assert not tracing.wiring_problems("verify", metrics, seed_tree=False)
