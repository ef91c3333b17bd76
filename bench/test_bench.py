"""Self-test of the benchmark: ``python3 -m pytest bench -q``.

Tiny rounds of every workload must print every named metric with its unit
and pass every check; a wrong oracle value must make ``error_rate``
non-zero; nothing the benchmark writes or prints may hold an identifier of
the run; and without the program next to it the benchmark must fail.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def tiny(tmp_path: Path, workload: str, trace: int, collect_ids: bool = False):
    args = run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", "--out", str(tmp_path)]
    )
    return run.run(args, collect_ids=collect_ids)


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["cycle_socket", "redeem_inproc", "scenario_drill"] == NAMES
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for g in ("end_to_end", "per_layer") for m in SPEC[g])
    assert SPEC["command"][:2] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(tmp_path, workload):
    cpus = os.sched_getaffinity(0)
    result, info, _ = tiny(tmp_path, workload, trace=0)
    assert os.sched_getaffinity(0) == cpus  # the run pins itself to one CPU and restores
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, info["check_failures"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0, spec["name"]
    prov = info["provenance"]
    assert prov["seed"] == 7 and prov["loopback_only"] and prov["python"] and prov["cryptography"]
    assert prov["nproc"] == len(cpus) and prov["pinned_to_cpu"] == min(cpus)
    assert prov["params"] == workloads.WORKLOADS[workload](tiny=True).params


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric_and_leaks_no_identifier(tmp_path, workload):
    result, info, ids = tiny(tmp_path, workload, trace=1, collect_ids=True)
    assert result["correct"], info["check_failures"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["error_rate"] == 0 and values["trace.overhead"] > 0 and values["trace.spans"] > 0
    assert values["reputation.submit_rating.calls"] > 0 and values["wire.frames"] > 0

    # acceptance tests 5 and 6, applied to what the benchmark emits
    assert len(ids) > 10
    emitted = [json.dumps(info), json.dumps(result)]
    emitted += [p.read_text() for p in sorted(tmp_path.rglob("*")) if p.is_file()]
    assert len(emitted) >= 4  # result file, spans file and the two printed lines
    for text in emitted:
        for ident in ids:
            assert ident not in text


def test_timings_are_scaled_to_the_reference_speed():
    rec = workloads.Recorder(setup_s=[0.2, 0.2], per_round=[(0.5, 100, 40, 10, 0.01)] * 2, acquire_s=[0.002] * 4)
    rec.round_samples = [{"acquire_s": slice(0, 2), "redeem_s": slice(0, 0), "score_s": slice(0, 0)},
                         {"acquire_s": slice(2, 4), "redeem_s": slice(0, 0), "score_s": slice(0, 0)}]
    rec.speeds = [run.REFERENCE_SPEED / 2] * 2  # the machine ran at half the reference speed
    unscaled, scaled = run.end_to_end(rec, scaled=False), run.end_to_end(rec)
    assert unscaled["steps_per_s"] == 200 and scaled["steps_per_s"] == 400
    assert scaled["ratings_per_s"] == 160 and scaled["scores_per_s"] == 2000
    assert unscaled["setup_s"] == 0.2 and scaled["setup_s"] == 0.1
    assert scaled["acquire_ms.p50"] == pytest.approx(1.0) and scaled["acquire_ms.p95"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_score_oracle_makes_error_rate_nonzero(tmp_path, workload, monkeypatch):
    right = oracle.expected_score
    monkeypatch.setattr(oracle, "expected_score", lambda ratings: (right(ratings)[0] + 1, right(ratings)[1]))
    result, info, _ = tiny(tmp_path, workload, trace=1)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["error_rate"]["value"] > 0
    assert info["check_failures"]


@pytest.mark.parametrize("workload", ["cycle_socket", "scenario_drill"])
def test_wrong_price_oracle_is_reported_under_the_ledger_defect(tmp_path, workload, monkeypatch):
    wrong = lambda policy, groups: oracle.price(policy, 1, 0) + sum(  # noqa: E731
        oracle.price(policy, g, i) for i, g in enumerate(groups)
    )
    monkeypatch.setattr(oracle, "expected_charged", wrong)
    monkeypatch.setattr(workloads, "expected_charged", wrong)
    result, info, _ = tiny(tmp_path, workload, trace=0)
    assert result["failed"] > 0
    assert any(name.startswith("ledger.charged_total (ROADMAP") for name in info["check_failures"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", "redeem_inproc", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
