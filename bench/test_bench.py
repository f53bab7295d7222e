"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    # the reference checks ran: verdicts compared and certificates re-validated
    refs = next(line for line in lines if line.startswith("references:"))
    checked, validated = re.search(r"(\d+) verdicts checked.* (\d+) certificates validated", refs).groups()
    assert int(checked) > 0 and int(validated) > 0


def test_generators_are_decided_by_the_seed():
    for name, generate in workloads.GENERATORS.items():
        assert generate(7) == generate(7), name
        assert generate(7) != generate(8), name


def test_benchmark_runs_every_workload_but_the_defect_witness():
    assert set(WORKLOADS) == set(workloads.GENERATORS) - {"guarded_mix"}


def test_ground_references_agree_with_the_oracle():
    """ground_mix's own propositional check against satloc's Herbrand oracle
    (which is complete on ground problems), both ways."""
    sys.path.insert(0, str(ROOT / "src"))
    from satloc import HerbrandBound, oracle_entails, parse_clause_text, parse_problem

    wl = workloads.ground_mix(3, problems=4)
    verdicts = set()
    for p in wl.problems:
        problem = parse_problem(p.text)
        for q in p.queries:
            goal = parse_clause_text(q.text, problem.signature)
            oracle = oracle_entails(problem.clauses, goal, HerbrandBound(0)).verdict
            assert (oracle == "entailed") == (q.expected == workloads.ENTAILED), q.text
            verdicts.add(q.expected)
    assert verdicts == {workloads.ENTAILED, workloads.NOT_ENTAILED}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_subsumes_reproducer_query_is_entailed_by_the_oracle():
    """The reproducer's reference verdict, independent of saturation."""
    sys.path.insert(0, str(ROOT / "src"))
    from satloc import HerbrandBound, oracle_entails, parse_problem

    problem = parse_problem((BENCH / "subsumes_repro.p").read_text(encoding="utf-8"))
    (goal,) = problem.queries
    assert oracle_entails(problem.clauses, goal, HerbrandBound(0)).verdict == "entailed"
