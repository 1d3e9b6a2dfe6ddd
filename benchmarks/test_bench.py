"""Self-test of the benchmark: tiny runs of every workload in both modes, and
the oracle fed deliberately corrupted outputs.

Run from the repository root::

    python3 -m pytest benchmarks -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", str(TINY), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 10

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: entry["unit"] for metric, entry in summary["metrics"].items()
    }
    values = {metric: entry["value"] for metric, entry in summary["metrics"].items()}
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values.values())

    result = json.loads((tmp_path / f"{name}-seed3-trace{trace}.json").read_text())
    assert result["failed_ratio"] == 0
    assert len(result["xml_sha256"]) == 64
    stamp = result["environment"]
    assert {"python", "nproc", "git_sha", "loadavg_start", "loadavg_end"} <= set(stamp)
    assert not list(tmp_path.glob("work-*")), "the work directory must be removed"

    if trace:
        assert values["trace.overhead_ratio"] > 0
        assert values["moodle_xml.parse_s"] > 0 and values["cli.self_s"] > 0
        generators = {k: v for k, v in values.items() if k.startswith("generators.")}
        if name == "author-pools":
            assert values["generators.yield"] == 1
            assert values["generators.pairs_scale_2x"] > 0
        else:
            assert not any(generators.values())
        assert (tmp_path / result["spans_file"]).is_file()
    else:
        assert all(v > 0 for v in values.values())
        # reference.py runs on either side of every timed command and set-up.
        refs = result["reference_s"]
        assert len(refs["sessions"]) == result["sessions"] and all(len(r) == 6 for r in refs["sessions"])
        assert len(refs["setups"]) == len(result["samples"]["setup_s"]) and all(len(r) == 2 for r in refs["setups"])
        assert set(result["wall_medians"]) == {m for m in values if m.endswith("_s")}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One real in-process session of a tiny author-pools workload."""
    workdir = tmp_path_factory.mktemp("session")
    workload = workloads.make("author-pools", 5, TINY)
    workload.write(workdir)
    return workload, run._session(workload, workdir, run._in_process(workdir))


def _failures(workload, results):
    return Oracle(workload.expected).check_session(results)


def test_oracle_accepts_a_correct_session(session):
    workload, results = session
    assert _failures(workload, results) == []


def _corrupt(results, label, edit):
    corrupted = copy.deepcopy(results)
    entry = next(r for r in corrupted if r.label == label)
    entry.output = edit(entry.output)
    return corrupted


@pytest.mark.parametrize(
    "label, edit",
    [
        ("build", lambda xml: xml[: len(xml) // 2]),
        ("build", lambda xml: xml.replace(b'fraction="-33.33333"', b'fraction="100"', 1)),
        ("penalty", lambda xml: xml.replace(b'fraction="-25"', b'fraction="-24"', 1)),
        ("replace", lambda xml: xml.replace(b"TODO", workloads.MARKER.encode(), 1)),
        ("preview", lambda html: html.replace(b'<article class="question"', b"<article", 1)),
    ],
    ids=["truncated", "flipped-fraction", "wrong-penalty", "marker-left", "preview-short"],
)
def test_oracle_counts_corrupted_output(session, label, edit):
    workload, results = session
    failures = _failures(workload, _corrupt(results, label, edit))
    assert failures and all(f.startswith(label) for f in failures)


def test_oracle_counts_failed_commands_and_nondeterminism(session):
    workload, results = session
    oracle = Oracle(workload.expected)
    assert oracle.check_session(results) == []
    broken = copy.deepcopy(results)
    broken[1].returncode = 2
    broken[1].stderr = "Traceback (most recent call last):\n"
    broken[0].output = results[0].output.replace(b"</quiz>", b"</quiz>\n")
    failures = oracle.check_session(broken)
    assert any("exit code 2" in f for f in failures)
    assert any("traceback" in f for f in failures)
    assert any("xml_sha256" in f for f in failures)
