"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end_tiny(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "0", "--size", "tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "1", "--size", "tiny"))
    assert out["correct"]
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # module self times plus cli.main's make up the traced pass (medians of
    # each term, so only close to the median total)
    parts = metrics["cli.main_self_s"]["value"] + sum(
        metrics[f"{mod}.self_s"]["value"] for mod in tracing.MODULES)
    assert parts == pytest.approx(metrics["trace.self_total_s"]["value"], rel=0.2)


def test_self_time_never_exceeds_span_duration():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from workloads import commands

    workdir = run.fresh_dir(run.WORK / "selftest")
    for workload in WORKLOADS:
        recorder = tracing.Recorder()
        with tracing.installed(recorder):
            run.inprocess_pass(commands(workload, "golden", "tiny"), workdir, recorder)
        assert recorder.spans
        own_times = recorder.self_times()
        for span, own in zip(recorder.spans, own_times):
            assert 0.0 <= own <= span.end - span.start + 1e-12, span.name
        top = sum(s.end - s.start for s in recorder.spans if s.parent < 0)
        assert sum(own_times) == pytest.approx(top, rel=1e-9)


def test_gate_tolerances():
    ref = gate.load_reference()["golden"]["orbit"]
    got = json.loads(json.dumps(ref))
    assert gate.compare("orbit", got, ref) == []
    col = ref["columns"].index("empirical_mean")
    row = got["rows"][-1]
    row[col] = repr(float(row[col]) + 2e-7)  # within a more accurate kernel's reach
    assert gate.compare("orbit", got, ref) == []
    row[col] = repr(float(row[col]) + 1e-3)  # what a wrong reduction does
    assert gate.compare("orbit", got, ref) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
