"""Spans around the calls into each quizbank module, and the per-layer
metrics derived from them.

The benchmark owns every wrapper. ``Tracer.installed`` places each one at
the name the code resolves at call time (a class attribute, or a module
global looked up on each call) and restores the original on exit. A
wrapper records one span and passes arguments, results and exceptions
through unchanged.

A span is ``[name, start, end, parent, session, value]``: ``parent`` is
the index of the enclosing span in the same session's list (None for a
command span), ``session`` the traced session's id, and ``value`` a size
or count taken from the call's arguments or result after the clock has
stopped. A span's self time is its
duration minus the durations of its direct children; calls run on one
thread and nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import quizbank
import quizbank.bank
import quizbank.cli
import quizbank.generators
import quizbank.moodle_xml
import quizbank.preview
from quizbank import QuestionBank

_BUILDERS = ("setCategory", "addShortAnswer", "addNumerical", "addMultipleChoice", "addMatching")
_GENERATORS = {
    "addMultipleChoiceFromPairs": "generators.pairs_s",
    "addMultipleChoiceFromLists": "generators.lists_s",
    "addCompleteCode": "generators.complete_code_s",
}


def _result(args, result):
    return result


def _first_len(args, result):
    return len(args[0])


def _second_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result)


# (owner, attribute, span name, module, value taken after the call)
TARGETS = (
    [(QuestionBank, name, f"QuestionBank.{name}", "bank", None) for name in _BUILDERS]
    + [(QuestionBank, name, f"QuestionBank.{name}", "generators", _result) for name in _GENERATORS]
    + [
        (quizbank.generators, "sample_distractors", "generators.sample_distractors", "generators", None),
        (quizbank, "embed_image", "quizbank.embed_image", "media", None),
        (quizbank.cli, "question_media_bytes", "cli.question_media_bytes", "media", None),
        (quizbank.cli, "parse_bank", "cli.parse_bank", "moodle_xml", _first_len),
        (quizbank.cli, "serialize_bank", "cli.serialize_bank", "moodle_xml", _result_len),
        (quizbank.moodle_xml, "serialize_bank", "moodle_xml.serialize_bank", "moodle_xml", _result_len),
        (quizbank.cli, "atomic_write_bytes", "cli.atomic_write_bytes", "fileio", _second_len),
        (quizbank.bank, "atomic_write_bytes", "bank.atomic_write_bytes", "fileio", _second_len),
        (quizbank.cli, "timestamped_backup", "cli.timestamped_backup", "fileio", None),
        (quizbank.cli, "replace_text", "cli.replace_text", "maintenance", _result),
        (quizbank.cli, "set_wrong_penalty", "cli.set_wrong_penalty", "maintenance", _result),
        (quizbank.cli, "render_preview", "cli.render_preview", "preview", None),
        (quizbank.preview, "build_preview_html", "preview.build_preview_html", "preview", _result_len),
    ]
)

MODULES = {name: module for _, _, name, module, _ in TARGETS}
COMMAND_PREFIX = "command:"


class Tracer:
    """Records the spans of one traced session."""

    def __init__(self, session):
        self.session = session
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.session, None]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def wrap(self, name, function, value=None):
        clock = time.perf_counter
        stack = self._stack
        open_span = self._open

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = open_span(name)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def command(self, label):
        """Span around one CLI command; the root of that command's spans."""
        span = self._open(COMMAND_PREFIX + label)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in TARGETS]
        try:
            for (owner, attr, name, _, value), (_, _, original) in zip(TARGETS, originals):
                setattr(owner, attr, self.wrap(name, original, value))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, by index."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def module_table(spans):
    """Per-module self seconds and call counts over the given spans."""
    table: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name.startswith(COMMAND_PREFIX):
            module = "script" if name == COMMAND_PREFIX + "build" else "cli"
        else:
            module = MODULES[name]
        row = table.setdefault(module, [0.0, 0])
        row[0] += own
        row[1] += 1
    return {module: {"self_s": row[0], "calls": row[1]} for module, row in sorted(table.items())}


def session_metrics(spans, requested, scanned_bytes):
    """Per-layer metrics of one traced session.

    ``spans`` is one Tracer's list, ``requested`` the number of questions
    the workload's generator calls ask for, and ``scanned_bytes`` the size
    of the bank the ``stats`` command scans for media.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[0]
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        selfs[name] = selfs.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if span[5] is not None:
            values[name] = values.get(name, 0) + span[5]

    def t(*names):
        return sum(total.get(name, 0.0) for name in names)

    def v(*names):
        return sum(values.get(name, 0) for name in names)

    def rate(megabytes, seconds):
        return megabytes / seconds if seconds > 0 else 0.0

    produced = v(*(f"QuestionBank.{name}" for name in _GENERATORS))
    sample_calls = calls.get("generators.sample_distractors", 0)
    builders = [f"QuestionBank.{name}" for name in _BUILDERS]
    serialize = ("cli.serialize_bank", "moodle_xml.serialize_bank")
    writes = ("cli.atomic_write_bytes", "bank.atomic_write_bytes")
    commands = [name for name in calls if name.startswith(COMMAND_PREFIX)]
    metrics = {
        **{metric: t(f"QuestionBank.{name}") for name, metric in _GENERATORS.items()},
        "generators.sample_calls": sample_calls,
        "generators.draws_per_question": sample_calls / produced if produced else 0.0,
        "generators.yield": produced / requested if requested else 0.0,
        "bank.builders_s": t(*builders),
        "bank.builder_calls": sum(calls.get(name, 0) for name in builders),
        "media.embed_s": t("quizbank.embed_image"),
        "media.scan_s": t("cli.question_media_bytes"),
        "media.scan_mb_per_s": rate(scanned_bytes / 1e6, t("cli.question_media_bytes")),
        "moodle_xml.serialize_s": t(*serialize),
        "moodle_xml.serialize_mb_per_s": rate(v(*serialize) / 1e6, t(*serialize)),
        "moodle_xml.parse_s": t("cli.parse_bank"),
        "moodle_xml.parse_mb_per_s": rate(v("cli.parse_bank") / 1e6, t("cli.parse_bank")),
        "fileio.write_s": t(*writes),
        "fileio.write_mb": v(*writes) / 1e6,
        "fileio.backup_s": t("cli.timestamped_backup"),
        "maintenance.replace_s": t("cli.replace_text"),
        "maintenance.replacements": v("cli.replace_text"),
        "maintenance.penalty_s": t("cli.set_wrong_penalty"),
        "maintenance.questions_updated": v("cli.set_wrong_penalty"),
        "preview.render_s": selfs.get("cli.render_preview", 0.0),
        "preview.build_html_s": t("preview.build_preview_html"),
        "preview.html_mb": v("preview.build_preview_html") / 1e6,
        "cli.self_s": sum(selfs[name] for name in commands if name != COMMAND_PREFIX + "build"),
        "script.self_s": selfs.get(COMMAND_PREFIX + "build", 0.0),
    }
    return metrics


def median_metrics(per_session: list[dict]) -> dict:
    return {key: statistics.median(m[key] for m in per_session) for key in per_session[0]}
