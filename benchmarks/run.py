"""quizbank benchmark: timed author -> inspect -> edit -> preview sessions.

Run from the repository root::

    python3 benchmarks/run.py --workload bulk-bank --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                       # every workload in turn

One session is the command sequence an instructor runs: ``build`` of the
workload's authoring script, ``stats``, ``maintain replace-text``,
``maintain set-penalty`` and ``preview``. With ``--trace 0`` each command
runs as ``python -m quizbank.cli`` in a fresh child process, one at a
time, and the end-to-end metrics of BENCHMARK.json are reported. With
``--trace 1`` the same sessions run in this process through
``quizbank.cli.main`` with span wrappers installed (see tracing.py), and
the per-layer metrics are reported instead.

The host this was written on changes speed by a fifth or more from one
few-second stretch to the next, so the end-to-end timings are scaled to a
fixed host speed: a fixed program (reference.py) runs through the same
launcher before and after every command, and each command's wall time is
multiplied by REFERENCE_S / the mean of the two reference times beside it.
The unscaled wall times go to the result file.

Every session's outputs are checked (oracle.py), outside the timed
regions. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with samples, tails and an environment stamp goes to ``benchmarks/out/``.
See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from oracle import CommandResult, Oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-ups per --trace 0 run; setup_s is their median.
SETUPS = 3
# Timings are reported as if each reference.py run had taken this long
# (its typical wall time on the 2-vCPU VM the benchmark was written on).
REFERENCE_S = 0.15
# A child command that takes longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size factor (the self-test uses tiny ones)"
    )
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out", help="results directory")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "quizbank" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/quizbank or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, units) for name in names]
    if len(results) == 1:
        summary = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in results
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


def run_workload(name, args, units) -> dict:
    environment = _environment()
    workdir = args.out / f"work-{name}-{args.seed}"
    try:
        if args.trace:
            measured = _traced_run(name, args, workdir)
        else:
            measured = _timed_run(name, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    environment["loadavg_end"] = _loadavg()

    values = measured.pop("values")
    attempted, failed = measured["attempted"], len(measured["failures"])
    result = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "environment": environment,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
        **measured,
    }
    result["failures"] = measured["failures"][:50]
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    _report(result, path)
    return result


# -- end-to-end run: every command in a fresh child process --------------------


def _timed_run(name, args, workdir) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # The warm-up must leave compiled modules behind for the timed sessions.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    setups, sessions, failures = [], [], []
    # Reference times: two around each set-up, six around each session's commands.
    setup_refs, session_refs = [], []
    oracle = None
    with Launcher(env) as launcher:
        run = functools.partial(launcher.run, cwd=workdir)
        reference = functools.partial(launcher.reference, workdir, failures)
        for _ in range(SETUPS):
            # Every set-up starts without compiled quizbank modules, as a fresh
            # checkout does, so each setup_s includes compiling them.
            for cache in list(SRC.rglob("__pycache__")):
                shutil.rmtree(cache, ignore_errors=True)
            workdir.mkdir(parents=True, exist_ok=True)
            before = reference()
            start = time.perf_counter()
            workload = workloads.make(name, args.seed, args.scale)
            shutil.rmtree(workdir, ignore_errors=True)
            workload.write(workdir)
            warm_up = _session(workload, workdir, run)
            setups.append(time.perf_counter() - start)
            setup_refs.append([before, reference()])
            oracle = oracle or Oracle(workload.expected)
            failures += oracle.check_session(warm_up)
        xml_bytes = len(warm_up[0].output)
        del warm_up

        deadline = time.perf_counter() + args.seconds
        while not sessions or time.perf_counter() < deadline:
            refs = []
            session = _session(workload, workdir, run, between=lambda: refs.append(reference()))
            failures += oracle.check_session(session)
            for result in session:
                result.output = b""
            sessions.append(session)
            session_refs.append(refs)

    # A timing is scaled by the mean of the reference runs on either side of it.
    def scaled(seconds, before, after):
        return seconds * 2 * REFERENCE_S / (before + after)

    raw = {
        f"{label}_s": [s[i].seconds for s in sessions]
        for i, (label, _) in enumerate(workload.commands())
    }
    samples = {
        metric: [scaled(x, refs[i], refs[i + 1]) for x, refs in zip(xs, session_refs)]
        for i, (metric, xs) in enumerate(raw.items())
    }
    raw["session_s"] = [sum(r.seconds for r in s) for s in sessions]
    samples["session_s"] = [sum(xs) for xs in zip(*samples.values())]
    raw["setup_s"] = setups
    samples["setup_s"] = [scaled(x, *refs) for x, refs in zip(setups, setup_refs)]
    samples["peak_rss_mb"] = [max(r.maxrss_kb for r in s) * 1024 / 1e6 for s in sessions]
    values = {metric: statistics.median(xs) for metric, xs in samples.items()}
    values["xml_mb"] = xml_bytes / 1e6
    return {
        "values": values,
        "attempted": 5 * (len(setups) + len(sessions)) + 2 * len(setups) + 6 * len(sessions),
        "failures": failures,
        "sessions": len(sessions),
        "xml_sha256": oracle.xml_sha256,
        "samples": samples,
        "tails": {metric: _tail(xs) for metric, xs in samples.items()},
        "wall_medians": {metric: statistics.median(xs) for metric, xs in raw.items()},
        "wall_samples": raw,
        "reference_s": {"sessions": session_refs, "setups": setup_refs},
    }


class Launcher:
    """Client of launcher.py, the process that runs and measures each child."""

    def __init__(self, env):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        try:
            self.process.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def reference(self, cwd: Path, failures: list) -> float:
        """Wall time of one run of reference.py; a failed run is recorded."""
        result = self._run("reference", [str(BENCH_DIR / "reference.py")], cwd)
        if result.returncode != 0 or len(result.stdout.strip()) != 64:
            failures.append(f"reference: exit code {result.returncode}, output {result.stdout[:70]!r}")
        return result.seconds

    def run(self, argv, cwd: Path) -> CommandResult:
        return self._run(argv[0], ["-m", "quizbank.cli", *argv], cwd)

    def _run(self, label, python_args, cwd: Path) -> CommandResult:
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        request = {
            "argv": [sys.executable, *python_args],
            "cwd": str(cwd),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        return CommandResult(
            label=label,
            seconds=reply["seconds"],
            returncode=reply["returncode"],
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            maxrss_kb=reply["maxrss_kb"],
        )


def _session(workload, workdir: Path, run, between=None) -> list[CommandResult]:
    """Run the five commands; snapshot each one's output file between them.

    ``between``, if given, is called before the first command and after each.
    """
    for stale in [workdir / workloads.BANK, workdir / workloads.PREVIEW, *workdir.glob("*.bak")]:
        stale.unlink(missing_ok=True)
    between = between or (lambda: None)
    results = []
    between()
    for label, argv in workload.commands():
        result = run(argv)
        between()
        result.label = label
        written = workdir / (workloads.PREVIEW if label == "preview" else workloads.BANK)
        result.output = written.read_bytes() if written.exists() else b""
        results.append(result)
    return results


# -- traced run: the same sessions in process, with spans ----------------------


def _traced_run(name, args, workdir) -> dict:
    import tracing

    workload = workloads.make(name, args.seed, args.scale)
    shutil.rmtree(workdir, ignore_errors=True)
    workload.write(workdir)
    oracle = Oracle(workload.expected)
    failures = oracle.check_session(_session(workload, workdir, _in_process(workdir)))

    traced, plain, per_session, spans, modules = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        # Alternate which kind runs first so neither always follows the other.
        for with_trace in (True, False) if len(traced) % 2 == 0 else (False, True):
            tracer = tracing.Tracer(len(traced)) if with_trace else None
            with tracer.installed() if tracer else contextlib.nullcontext():
                session = _session(workload, workdir, _in_process(workdir, tracer))
            failures += oracle.check_session(session)
            (traced if with_trace else plain).append(sum(r.seconds for r in session))
            built = session[0].output
            if tracer:
                per_session.append(
                    tracing.session_metrics(tracer.spans, workload.expected.generated, len(built))
                )
                modules.append(tracing.module_table(tracer.spans))
                spans += tracer.spans

    values = tracing.median_metrics(per_session)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    values["generators.pairs_scale_2x"] = _pairs_scale(workload) if workload.pairs else 0.0
    values["moodle_xml.parse_scale_2x"] = _parse_scale(built)

    args.out.mkdir(parents=True, exist_ok=True)
    spans_path = args.out / f"{name}-seed{args.seed}-spans.jsonl.gz"
    with gzip.open(spans_path, "wt") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return {
        "values": values,
        "attempted": 5 * (1 + len(traced) + len(plain)),
        "failures": failures,
        "sessions": len(traced),
        "xml_sha256": oracle.xml_sha256,
        "session_seconds": {"traced": traced, "untraced": plain},
        "modules": {
            module: {key: statistics.median(m[module][key] for m in modules) for key in ("self_s", "calls")}
            for module in modules[0]
        },
        "spans_file": spans_path.name,
    }


def _in_process(workdir: Path, tracer=None):
    """A command runner calling quizbank.cli.main in this process."""
    import quizbank.cli

    def run(argv) -> CommandResult:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.command(argv[0]) if tracer else contextlib.nullcontext()
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with span:
                    try:
                        code = quizbank.cli.main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = -1
                seconds = time.perf_counter() - start
        finally:
            os.chdir(previous)
        return CommandResult(argv[0], seconds, code, out.getvalue(), err.getvalue())

    return run


def _pairs_scale(workload, reps=3) -> float:
    """Pairs-generator time at the workload's n over its time at n/2."""
    from quizbank import QuestionBank

    sizes = (workload.pairs, workload.pairs[: len(workload.pairs) // 2])

    def generate(pairs):
        bank = QuestionBank(None, seed=workload.build_seed)
        bank.addMultipleChoiceFromPairs("pairs", workload.pairs_pattern, pairs)

    return _ratio(generate, sizes, reps)


def _parse_scale(data: bytes, reps=5) -> float:
    """parse_bank time on the built bank over its time on the first half of it."""
    from quizbank import parse_bank, serialize_bank

    half = parse_bank(data)
    half.questions = half.questions[: len(half.questions) // 2]
    return _ratio(parse_bank, (data, serialize_bank(half)), reps)


def _ratio(function, inputs, reps) -> float:
    times = ([], [])
    for rep in range(reps):
        for which in (0, 1) if rep % 2 == 0 else (1, 0):
            start = time.perf_counter()
            function(inputs[which])
            times[which].append(time.perf_counter() - start)
    return statistics.median(times[0]) / statistics.median(times[1])


# -- reporting ---------------------------------------------------------------


def _tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return {"percentile": math.floor(100 * (index + 1) / len(ordered)), "value": ordered[index]}


def _report(result, path) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"sessions {result['sessions']}  commands {result['attempted']}"
    )
    tails = result.get("tails", {})
    for metric, entry in result["metrics"].items():
        line = f"  {metric:32} {entry['value']:14.6g} {entry['unit']}"
        if metric in tails:
            tail = tails[metric]
            n = len(result["samples"][metric])
            shown = f"p{tail['percentile']} {tail['value']:.6g}" if tail else "none"
            line += f"   tail {shown}  (n={n})"
        if metric in result.get("wall_medians", {}):
            line += f"  wall {result['wall_medians'][metric]:.6g} s"
        print(line)
    print(f"  {'failed_ratio':32} {result['failed_ratio']:14.6g} ratio")
    print(f"  xml_sha256 {result['xml_sha256']}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    try:
        shown = path.relative_to(ROOT)
    except ValueError:
        shown = path
    print(f"  results {shown}")


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_start": _loadavg(),
    }


def _loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git_sha():
    """HEAD of the repository rooted exactly here, or None (e.g. an export)."""
    # The ceiling stops git at ROOT, so an exported tree that happens to lie
    # inside some other repository does not report that repository's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
