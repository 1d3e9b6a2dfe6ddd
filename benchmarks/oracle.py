"""Output checks for one benchmark session.

Expected values come from the workload's own parameters (``Expected``),
never from the program under test. Bank documents are read with the
standard library's ElementTree, not with quizbank's parser; only the
round-trip check calls quizbank, because byte-identical re-serialization
is a property of quizbank itself.

Each check that fails adds one entry to the session's failure list; the
benchmark's ``failed_ratio`` is (failed commands + failed checks) divided
by the commands attempted.
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from workloads import MARKER, PENALTY, Expected


@dataclass
class CommandResult:
    label: str
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0
    # The file the command wrote (the bank, or the preview page).
    output: bytes = b""


@dataclass
class Oracle:
    """Checks sessions of one workload run.

    Content checks depend only on a file's bytes, so their verdicts are
    cached by SHA-256: a run's sessions must produce identical bytes, and
    any session that does not is both a determinism failure and checked
    afresh.
    """

    expected: Expected
    xml_sha256: str | None = None
    _verdicts: dict = field(default_factory=dict)

    def check_session(self, results: list[CommandResult]) -> list[str]:
        failures = []
        for result in results:
            if result.returncode != 0:
                failures.append(f"{result.label}: exit code {result.returncode}")
            if "Traceback" in result.stdout or "Traceback" in result.stderr:
                failures.append(f"{result.label}: printed a traceback")
        by_label = {result.label: result for result in results}
        built = by_label["build"].output
        digest = hashlib.sha256(built).hexdigest()
        if self.xml_sha256 is None:
            self.xml_sha256 = digest
        elif digest != self.xml_sha256:
            failures.append(f"build: xml_sha256 {digest[:12]} differs from {self.xml_sha256[:12]}")
        failures += self._cached("build", built, check_built)
        failures += check_stats(by_label["stats"].stdout, self.expected)
        failures += _expect_line(by_label["replace"].stdout, "replacements", self.expected.markers)
        failures += self._cached("replace", by_label["replace"].output, check_replaced)
        failures += _expect_line(by_label["penalty"].stdout, "questions updated", self.expected.mcqs)
        failures += self._cached("penalty", by_label["penalty"].output, check_penalized)
        failures += self._cached("preview", by_label["preview"].output, check_preview)
        return failures

    def _cached(self, label, data, check):
        key = (label, hashlib.sha256(data).digest())
        if key not in self._verdicts:
            self._verdicts[key] = [f"{label}: {message}" for message in check(data, self.expected)]
        return self._verdicts[key]


def _questions(data: bytes):
    """Parse a bank with ElementTree; return its non-category <question>s."""
    root = ET.fromstring(data)
    return [q for q in root.iter("question") if q.get("type") != "category"]


def check_built(data: bytes, expected: Expected) -> list[str]:
    try:
        questions = _questions(data)
    except ET.ParseError as exc:
        return [f"bank does not parse: {exc}"]
    failures = []
    failures += _round_trip(data)
    kinds: dict[str, int] = {}
    for question in questions:
        kinds[question.get("type")] = kinds.get(question.get("type"), 0) + 1
    if kinds != expected.kinds:
        failures.append(f"question kinds {kinds} != expected {expected.kinds}")
    if data.count(MARKER.encode()) != expected.markers:
        failures.append(f"bank holds {data.count(MARKER.encode())} markers, planted {expected.markers}")

    by_title: dict[str, list] = {}
    bad_mcq = 0
    for question in questions:
        if question.get("type") != "multichoice":
            continue
        answers = [
            (a.get("fraction"), a.findtext("text") or "") for a in question.iter("answer")
        ]
        if sum(1 for fraction, _ in answers if fraction == "100") != 1:
            bad_mcq += 1
        by_title.setdefault(question.findtext("name/text"), []).append(answers)
    if bad_mcq:
        failures.append(f"{bad_mcq} multiple-choice questions lack exactly one +100 choice")

    for call in expected.generator_calls:
        generated = by_title.get(call.title, [])
        if len(generated) != call.count:
            failures.append(f"{call.title}: {len(generated)} questions, expected {call.count}")
            continue
        signatures = []
        for answers in generated:
            texts = [text.strip() for _, text in answers]
            correct = [text for (fraction, _), text in zip(answers, texts) if fraction == "100"]
            if len(texts) != 4 or len(set(texts)) != 4 or len(correct) != 1:
                failures.append(f"{call.title}: a question lacks 4 distinct choices with one correct")
                break
            signatures.append((correct[0], frozenset(texts) - {correct[0]}))
        else:
            if len(set(signatures)) != len(signatures):
                failures.append(f"{call.title}: questions are not pairwise distinct")
            prefix = [correct for correct, _ in signatures[: call.unique_prefix]]
            if len(set(prefix)) != len(prefix):
                failures.append(f"{call.title}: first {call.unique_prefix} correct answers repeat")
    return failures


def _round_trip(data: bytes) -> list[str]:
    from quizbank import parse_bank, serialize_bank

    try:
        again = serialize_bank(parse_bank(data))
    except Exception as exc:  # any failure of the program is a failed check
        return [f"re-serialization raised {type(exc).__name__}: {exc}"]
    if again != data:
        return ["re-serialized bank differs from the built bytes"]
    return []


def check_stats(stdout: str, expected: Expected) -> list[str]:
    failures = []
    failures += _expect_line(stdout, "questions", expected.questions)
    for kind, count in expected.kinds.items():
        failures += _expect_line(stdout, kind, count)
    failures += _expect_line(stdout, "embedded media bytes", expected.media_bytes)
    return [f"stats: {message}" for message in failures]


def _expect_line(stdout: str, label: str, value: int) -> list[str]:
    found = re.search(rf"^\s*{re.escape(label)}: (-?\d+)\s*$", stdout, re.MULTILINE)
    if found is None:
        return [f"no '{label}:' line in output"]
    if int(found.group(1)) != value:
        return [f"'{label}' is {found.group(1)}, expected {value}"]
    return []


def check_replaced(data: bytes, expected: Expected) -> list[str]:
    left = data.count(MARKER.encode())
    return [f"{left} markers left after replacement"] if left else []


def check_penalized(data: bytes, expected: Expected) -> list[str]:
    try:
        questions = _questions(data)
    except ET.ParseError as exc:
        return [f"bank does not parse: {exc}"]
    wrong = [
        answer.get("fraction")
        for question in questions
        if question.get("type") == "multichoice"
        for answer in question.iter("answer")
        if answer.get("fraction") != "100"
    ]
    off = sum(1 for fraction in wrong if _number(fraction) != PENALTY)
    return [f"{off} wrong choices are not at {PENALTY}"] if off else []


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def check_preview(data: bytes, expected: Expected) -> list[str]:
    articles = data.count(b'<article class="question"')
    if articles != expected.questions:
        return [f"preview has {articles} questions, expected {expected.questions}"]
    return []
