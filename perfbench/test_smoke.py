"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench

One small CLI operation per workload through the benchmark's own spawn and
output checks, the generator self-check, the failure accounting for a
wrong expectation, and the refusal to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._bootstrap()

import checks  # noqa: E402
import gen  # noqa: E402
from bvhy import serialize  # noqa: E402


def _smallest(docs):
    return min(range(len(docs)), key=lambda i: len(docs[i].algebra["product"]))


def _one_op(workload, tmp_path):
    docs = gen.generate(workload, checks.DEFAULT_SEED)
    i = _smallest(docs)
    path = tmp_path / "doc.json"
    path.write_text(serialize.dump(docs[i].algebra))
    table = tmp_path / "table.json"
    rec = run.spawn(run.cli_argv(docs[i], path, table),
                    tmp_path / "out", tmp_path / "err")
    outputs = [(tmp_path / name).read_bytes() if (tmp_path / name).exists()
               else b"" for name in ("out", "err", "table.json")]
    checker = run.OutputChecks(workload, checks.DEFAULT_SEED, docs)
    return checker, i, rec["exit"], outputs


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_op_per_workload(workload, tmp_path):
    checker, i, exit_code, outputs = _one_op(workload, tmp_path)
    assert checker.check(i, exit_code, *outputs), checker.errors


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_documents_self_check(workload):
    docs = gen.generate(workload, 1)
    assert gen.self_check(docs) == []
    assert sum(not d.valid for d in docs) == \
        (len(docs) // 4 if workload == "validate-axioms" else 0)


def test_same_seed_same_documents():
    for workload in gen.WORKLOADS:
        a = [serialize.dump(d.algebra) for d in gen.generate(workload, 7)]
        b = [serialize.dump(d.algebra) for d in gen.generate(workload, 7)]
        assert a == b


def test_wrong_digest_counts_as_failure(tmp_path):
    checker, i, exit_code, outputs = _one_op("transfer-collapse", tmp_path)
    checker.digests[checker.docs[i].name] = "0" * 64
    assert not checker.check(i, exit_code, *outputs)
    assert "digest" in checker.errors[0]


def test_wrong_verdict_counts_as_failure(tmp_path):
    checker, i, exit_code, outputs = _one_op("validate-hodge", tmp_path)
    checker.docs[i].valid = False
    checker.docs[i].breaks = gen.ASSOC
    assert not checker.check(i, exit_code, *outputs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer-collapse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, key):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         "transfer-collapse", "--seed", "0", "--seconds", "0",
         "--trace", str(trace)], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench[key]}
