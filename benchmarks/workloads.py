"""Seeded benchmark workloads: an authoring script, its data files, and the
values the oracle expects from every command of a session.

Everything here derives from the workload name, the seed and a size
scale. The program under test only ever sees the files written by
``Workload.write``; the ``Expected`` record is computed from the same
parameters and never from the program's output.
"""

from __future__ import annotations

import base64
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("author-pools", "bulk-bank", "media-heavy")

MARKER = "FIXME"
REPLACEMENT = "TODO"
PENALTY = -25
SCRIPT = "script.py"
BANK = "bank.xml"
PREVIEW = "preview.html"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GeneratorCall:
    """One pool-generator call: its question name, how many questions it
    must produce, and how many leading questions must have unique correct
    answers."""

    title: str
    count: int
    unique_prefix: int


@dataclass
class Expected:
    kinds: dict[str, int]
    markers: int
    media_bytes: int = 0
    generator_calls: list[GeneratorCall] = field(default_factory=list)

    @property
    def questions(self) -> int:
        return sum(self.kinds.values())

    @property
    def mcqs(self) -> int:
        return self.kinds.get("multichoice", 0)

    @property
    def generated(self) -> int:
        return sum(call.count for call in self.generator_calls)


@dataclass
class Workload:
    build_seed: int
    files: dict[str, bytes]
    expected: Expected
    # Inputs the traced run re-uses for its scaling ratio.
    pairs: list = field(default_factory=list)
    pairs_pattern: str = ""

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in self.files.items():
            (directory / name).write_bytes(content)

    def commands(self) -> list[tuple[str, list[str]]]:
        """The five commands of one session, as (label, quizbank argv)."""
        return [
            ("build", ["build", SCRIPT, "--seed", str(self.build_seed)]),
            ("stats", ["stats", BANK]),
            ("replace", ["maintain", BANK, "replace-text", MARKER, REPLACEMENT]),
            ("penalty", ["maintain", BANK, "set-penalty", str(PENALTY)]),
            ("preview", ["preview", BANK, "--out", PREVIEW]),
        ]


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    build_seed = rng.randrange(2**31)
    maker = {
        "author-pools": _author_pools,
        "bulk-bank": _bulk_bank,
        "media-heavy": _media_heavy,
    }[name]
    return maker(build_seed, rng, scale)


def _sized(value: int, scale: float, minimum: int) -> int:
    return max(minimum, round(value * scale))


def _words(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct lowercase pseudo-words (never containing MARKER)."""
    seen: dict[str, None] = {}
    while len(seen) < count:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(5, 9)))
        seen[word] = None
    return list(seen)


def _script(body: str) -> bytes:
    header = (
        "import json\n"
        "from pathlib import Path\n\n"
        "import quizbank\n"
        "from quizbank import QuestionBank\n\n"
        "HERE = Path(__file__).parent\n"
        "data = json.loads((HERE / 'inputs.json').read_text())\n"
        f"Q = QuestionBank({BANK!r}, seed=0)\n"
    )
    return (header + body + "Q.close()\n").encode()


# -- author-pools: generation dominates ---------------------------------------


def _author_pools(build_seed, rng, scale):
    n_pairs = _sized(1000, scale, 8)
    full_d = 20 if scale >= 0.5 else 6
    full_count = math.comb(full_d, 3)
    wide_c, wide_d = _sized(200, scale, 4), _sized(40, scale, 6)
    n_tokens = _sized(40, scale, 6)
    code_count = _sized(200, scale, n_tokens)

    words = _words(rng, 2 * n_pairs + 1 + full_d + wide_c + wide_d)
    keys, answers = words[:n_pairs], words[n_pairs : 2 * n_pairs]
    rest = words[2 * n_pairs :]
    full_correct, rest = rest[:1], rest[1:]
    full_distractors, rest = rest[:full_d], rest[full_d:]
    wide_correct, wide_distractors = rest[:wide_c], rest[wide_c:]

    # The numbered prefix keeps any token from occurring inside another one.
    tokens = [f"q{i:02d}_{word}" for i, word in enumerate(_words(rng, n_tokens))]
    lines = [
        f"{tokens[i]} = {tokens[(i + 1) % n_tokens]} + {rng.randint(1, 99)}"
        for i in range(n_tokens)
    ]
    # Every generated stem embeds the whole source, so it carries exactly one
    # marker, at a seeded line.
    lines.insert(rng.randrange(len(lines) + 1), f"# {MARKER}: check the constants")
    source = "\n".join(lines)

    pairs_pattern = "Which term is paired with <i>%s</i> in the glossary?"
    inputs = {
        "pairs": [[k, a] for k, a in zip(keys, answers)],
        "pairs_pattern": pairs_pattern,
        "full_correct": full_correct,
        "full_distractors": full_distractors,
        "full_count": full_count,
        "wide_correct": wide_correct,
        "wide_distractors": wide_distractors,
        "code_source": source,
        "code_tokens": tokens,
        "code_count": code_count,
    }
    body = (
        "Q.setCategory('Pools/Pairs')\n"
        "Q.addMultipleChoiceFromPairs('pairs', data['pairs_pattern'], data['pairs'])\n"
        "Q.setCategory('Pools/Lists')\n"
        "Q.addMultipleChoiceFromLists('lists-full', 'Select the <b>valid</b> term:',\n"
        "    data['full_correct'], data['full_distractors'], data['full_count'])\n"
        "Q.addMultipleChoiceFromLists('lists-default', 'Which term is \\\\(\\\\in S\\\\)?',\n"
        "    data['wide_correct'], data['wide_distractors'])\n"
        "Q.setCategory('Pools/Code')\n"
        "Q.addCompleteCode('code', 'Complete the code:<pre>%s</pre>',\n"
        "    data['code_source'], data['code_tokens'], num_questions=data['code_count'])\n"
    )
    calls = [
        GeneratorCall("pairs", n_pairs, n_pairs),
        GeneratorCall("lists-full", full_count, 1),
        GeneratorCall("lists-default", wide_c, wide_c),
        GeneratorCall("code", code_count, n_tokens),
    ]
    expected = Expected(
        kinds={"multichoice": sum(c.count for c in calls)},
        markers=code_count,
        generator_calls=calls,
    )
    return Workload(
        build_seed,
        {SCRIPT: _script(body), "inputs.json": json.dumps(inputs).encode()},
        expected,
        pairs=inputs["pairs"],
        pairs_pattern=pairs_pattern,
    )


# -- bulk-bank: many single-question builder calls ------------------------------

_BULK_BODY = """\
current = None
for kind, category, name, stem, body in data['questions']:
    if category != current:
        Q.setCategory(category)
        current = category
    if kind == 'mc':
        Q.addMultipleChoice(name, stem, body)
    elif kind == 'num':
        Q.addNumerical(name, stem, body[0], body[1])
    elif kind == 'sa':
        Q.addShortAnswer(name, stem, body)
    else:
        Q.addMatching(name, stem, [tuple(pair) for pair in body])
"""

_KIND_NAMES = {"mc": "multichoice", "num": "numerical", "sa": "shortanswer", "mt": "matching"}


def _bulk_bank(build_seed, rng, scale):
    count = _sized(5000, scale, 40)
    vocabulary = _words(rng, 400)
    categories = sorted(f"Course/Unit{u:02d}/{rng.choice(vocabulary)}" for u in range(12))
    markers = 0

    def stem():
        nonlocal markers
        words = [rng.choice(vocabulary) for _ in range(rng.randint(6, 14))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            words.insert(rng.randrange(len(words) + 1), MARKER)
            markers += 1
        text = " ".join(words)
        a, b = rng.randint(2, 9), rng.randint(2, 99)
        return rng.choice(
            (
                f"<p>{text}</p> \\(x^{{{a}}} + {b}x\\)",
                f"<b>{text}</b> $$\\frac{{{a}}}{{{b}}}$$",
                f"{text} <code>f({a}, {b})</code>",
                f"<p>{text}</p>",
            )
        )

    questions = []
    kinds = {}
    for index in range(count):
        kind = rng.choices(("mc", "num", "sa", "mt"), weights=(4, 2, 2, 2))[0]
        kinds[_KIND_NAMES[kind]] = kinds.get(_KIND_NAMES[kind], 0) + 1
        if kind == "mc":
            choices = rng.sample(vocabulary, rng.randint(4, 5))
            choices = [f"\\({c}\\)" if rng.random() < 0.2 else c for c in choices]
            if rng.random() < 0.3:
                choices[-1] += f" {MARKER}"
                markers += 1
            body = choices
        elif kind == "num":
            values = [round(rng.uniform(-1000, 1000), 3) for _ in range(rng.randint(1, 2))]
            body = [values, rng.choice((0.01, 0.5, 1))]
        elif kind == "sa":
            body = rng.sample(vocabulary, rng.randint(1, 3))
        else:
            prompts = rng.sample(vocabulary, rng.randint(3, 5))
            body = [[f"<i>{p}</i>", rng.choice(vocabulary)] for p in prompts]
        questions.append([kind, rng.choice(categories), f"q{index:05d}", stem(), body])
    questions.sort(key=lambda q: q[1])

    expected = Expected(kinds=kinds, markers=markers)
    files = {
        SCRIPT: _script(_BULK_BODY),
        "inputs.json": json.dumps({"questions": questions}).encode(),
    }
    return Workload(build_seed, files, expected)


# -- media-heavy: few questions, huge strings ------------------------------------

_MEDIA_BODY = """\
Q.setCategory('Media')
for index, (stem, choices) in enumerate(data['images']):
    raw = (HERE / f'image{index}.bin').read_bytes()
    img = quizbank.embed_image(quizbank.MediaAsset(raw, 'image/png', alt_text='plot'))
    Q.addMultipleChoice(f'image-{index}', stem.replace('%s', img), choices)
Q.setCategory('Plain')
for name, stem, choices in data['plain']:
    Q.addMultipleChoice(name, stem, choices)
"""


def _media_heavy(build_seed, rng, scale):
    vocabulary = _words(rng, 120)
    markers = 0

    def stem_text():
        nonlocal markers
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(5, 10)))
        if rng.random() < 0.5:
            text += f" {MARKER}"
            markers += 1
        return text

    files = {}
    images = []
    media_bytes = 0
    for index in range(3):
        # Seeded sizes within 1% of 2 MB keep xml_mb comparable across seeds.
        size = _sized(2_000_000, scale, 4096) + rng.randrange(_sized(20_000, scale, 64))
        image = rng.randbytes(size)
        # A marker inside the base64 payload would be replaced too; re-draw.
        while MARKER.encode() in base64.b64encode(image):
            image = rng.randbytes(size)
        files[f"image{index}.bin"] = image
        media_bytes += size
        # The marker sits after the image, so replace-text scans the payload.
        images.append([f"<p>Which curve is shown?</p><p>%s</p> {MARKER}", rng.sample(vocabulary, 4)])
        markers += 1
    plain = [
        [f"plain-{i}", stem_text(), rng.sample(vocabulary, 4)]
        for i in range(_sized(20, scale, 4))
    ]
    files[SCRIPT] = _script(_MEDIA_BODY)
    files["inputs.json"] = json.dumps({"images": images, "plain": plain}).encode()
    expected = Expected(
        kinds={"multichoice": len(images) + len(plain)},
        markers=markers,
        media_bytes=media_bytes,
    )
    return Workload(build_seed, files, expected)
