"""Random multiple-choice generation from instructor-provided pools.

It defines QuestionBank's three camelCase generator methods as functions of
the bank, which the class binds as they are.

Vocabulary used throughout this module: two generated questions are
*unique* when their correct answers differ (their distractors may
overlap), and *distinct* when they differ in at least one choice. Choice
order inside a question does not count, since the importing LMS shuffles
choices itself.

A pool with c correct answers and d usable distractors therefore supports
up to c unique questions and up to c * C(d, 3) distinct ones. Every
generator defaults to producing the c unique questions (fewer, with a
warning, when pairs sharing an answer leave fewer distinct ones); asking
for more keeps cycling the correct answers, and each correct answer draws
its distractor subsets by rank without replacement, so all questions of
one call stay pairwise distinct.

List arguments are read by model.as_values (a str is one value), and all
comparisons use trimmed exact string comparison of the rendered texts.
"""

from __future__ import annotations

import math

from .errors import CapacityError, SamplingError, ValidationError
from .model import Question, QuestionKind, as_values, graded_choices, normalize, render_text
from .model import require_stem, value_pairs

DISTRACTORS_PER_QUESTION = 3

# Replacement for blanked-out tokens. The plain marker reads fine in
# <pre>/code contexts and plain text; the span variant renders as an
# underlined gap in proportional HTML text.
BLANK_MARKER = "________"
BLANK_MARKER_HTML = (
    '<span style="display:inline-block;min-width:6em;'
    'border-bottom:1px solid currentColor">&nbsp;</span>'
)


def count_unique(c: int) -> int:
    """Number of unique questions a pool with c correct answers supports."""
    if not isinstance(c, int) or isinstance(c, bool) or c < 1:
        raise ValidationError(f"correct-answer count must be a positive integer, got {c!r}")
    return c


def count_distinct(c: int, d: int) -> int:
    """Number of distinct questions for c correct answers and d distractors."""
    count_unique(c)
    if not isinstance(d, int) or isinstance(d, bool) or d < 3:
        raise ValidationError(
            f"distractor count must be an integer >= 3 (3 are drawn per question), got {d!r}"
        )
    return c * math.comb(d, DISTRACTORS_PER_QUESTION)


def sample_distractors(pool, k, exclude, rng) -> list[str]:
    """Draw k pool items, uniformly over the valid k-subsets.

    Pool items are compared after rendering: duplicates collapse, and any
    item whose trimmed text appears in ``exclude`` is unavailable. Raises
    SamplingError when fewer than k usable items remain.
    """
    excluded = {normalize(render_text(e)) for e in as_values(exclude)}
    valid = [t for t in _unique_texts(pool) if normalize(t) not in excluded]
    if len(valid) < k:
        raise SamplingError(f"need {k} distractors but only {len(valid)} usable candidates remain")
    return rng.sample(valid, k)


# -- the three generator methods ---------------------------------------------


def addMultipleChoiceFromLists(bank, title, question, correct, distractors, num_questions=-1):
    """Generate multiple-choice questions from a correct/distractor pool.

    Each question pairs one correct answer with 3 sampled distractors.
    With c usable correct answers and d distractors the pool yields up
    to c unique questions (different correct answers) and c * C(d, 3)
    distinct ones (differing in at least one choice); the default of
    -1 asks for the c unique ones. Returns the number added.
    """
    bank._require_open()
    correct_texts = _unique_texts(correct)
    distractor_texts = _unique_texts(distractors)
    if not correct_texts:
        raise ValidationError("the correct-answer list is empty")
    if len(distractor_texts) < DISTRACTORS_PER_QUESTION:
        raise ValidationError(
            f"need at least {DISTRACTORS_PER_QUESTION} distractors, got {len(distractor_texts)}"
        )
    overlap = {normalize(t) for t in correct_texts} & {normalize(t) for t in distractor_texts}
    if overlap:
        raise ValidationError(f"correct answers and distractors overlap: {sorted(overlap)}")
    slots = [(text, question) for text in correct_texts]
    return _generate(bank, title, distractor_texts, slots, num_questions)


def addMultipleChoiceFromPairs(
    bank, title, pattern, pairs, extra_distractors=(), num_questions=-1
):
    """Generate multiple-choice questions from (key, answer) pairs.

    ``pattern`` must contain exactly one ``%s``, which each generated
    stem replaces with the chosen key. Distractors come from the other
    answers plus ``extra_distractors``, never equal (as strings) to
    the chosen answer. Returns the number added.
    """
    bank._require_open()
    _require_single_placeholder(pattern)
    if not (rendered := value_pairs(pairs)):
        raise ValidationError("at least one (key, answer) pair is required")
    extras = _unique_texts(extra_distractors)

    # Nominal per-key pool size: the other answers plus the extras.
    d = len(rendered) - 1 + len(extras)
    if d < DISTRACTORS_PER_QUESTION:
        raise ValidationError(
            f"per-key distractor pool has size {d} (other answers plus extras); "
            f"need at least {DISTRACTORS_PER_QUESTION}"
        )

    # Answers need not be injective, so the usable pool (every distinct
    # answer and extra except the key's own answer) can fall below 3. It
    # has the same size for every key, so either all keys are usable or none.
    pool = _unique_texts([answer for _, answer in rendered] + extras)
    usable = len(pool) - 1
    if usable < DISTRACTORS_PER_QUESTION:
        raise SamplingError(
            f"none of the {len(rendered)} keys has {DISTRACTORS_PER_QUESTION} usable distractors: "
            f"the pool holds {usable} once each key's own answer is removed; "
            "provide more pairs or extra distractors"
        )
    slots = [(answer, pattern.replace("%s", key, 1)) for key, answer in rendered]
    return _generate(bank, title, pool, slots, num_questions)


def addCompleteCode(
    bank, title, pattern, source_text, tokens, extra_distractors=(), num_questions=-1, blank=None
):
    """Generate fill-in-the-blank questions by blanking tokens in a text.

    Each question picks one token, replaces all its occurrences in
    ``source_text`` with a blank marker, splices the blanked text into
    ``pattern`` at its single ``%s``, and offers the token plus 3
    distractors drawn from the other tokens and ``extra_distractors``.
    ``blank`` overrides the plain-text marker, e.g. with a styled span
    for HTML contexts. Returns the number added.
    """
    bank._require_open()
    _require_single_placeholder(pattern)
    if not isinstance(source_text, str) or not source_text:
        raise ValidationError("source text must be a non-empty string")
    source_text = render_text(source_text)  # tokens are canonical texts too
    blank = BLANK_MARKER if blank is None else blank
    token_texts = _unique_texts(tokens)
    if not token_texts:
        raise ValidationError("the token list is empty")
    for token in token_texts:
        if token not in source_text:
            raise ValidationError(f"token {token!r} does not occur in the source text")

    # Each token's distractors are the other tokens plus the extras.
    pool = _unique_texts(token_texts + _unique_texts(extra_distractors))
    if len(pool) - 1 < DISTRACTORS_PER_QUESTION:
        raise ValidationError(
            f"token {token_texts[0]!r} has only {len(pool) - 1} usable distractors; "
            f"need at least {DISTRACTORS_PER_QUESTION}"
        )
    slots = [(t, pattern.replace("%s", source_text.replace(t, blank), 1)) for t in token_texts]
    return _generate(bank, title, pool, slots, num_questions)


# -- shared machinery ---------------------------------------------------------


def _generate(bank, title, pool, slots, num_questions):
    """Append questions built from ``slots`` and return how many were added.

    Every stem is checked with the builders' rule (model.require_stem)
    before the bank or its RNG changes, so a call that raises leaves both
    as they were; choices are distinct by construction. ``pool`` holds
    rendered, deduplicated distractor texts. A slot is a (correct text,
    stem) pair; its distractors are the pool minus the entry equal to its
    correct text, if any. Slots sharing a correct answer share one space of
    C(m, 3) distractor subsets, so the exact capacity is the sum of
    C(m, 3) over the distinct answers. Each answer draws the subset ranks
    it needs without replacement and unranks them, which keeps every
    question of the call distinct without rejection sampling.
    """
    for _, stem in slots:
        require_stem(stem)
    slots = [(normalize(correct), correct, render_text(stem)) for correct, stem in slots]
    name, kind = render_text(title), QuestionKind.MULTIPLE_CHOICE
    wrong = bank.wrong_fraction_rule(1 + DISTRACTORS_PER_QUESTION)
    where = {normalize(text): i for i, text in enumerate(pool)}
    # Per distinct answer: the pool index it leaves out (len(pool) when it
    # is not in the pool), and its number of distractor subsets.
    spaces = {}
    for answer, _, _ in slots:
        if answer not in spaces:
            m = len(pool) - (answer in where)
            spaces[answer] = (where.get(answer, len(pool)), math.comb(m, DISTRACTORS_PER_QUESTION))
    capacity = sum(size for _, size in spaces.values())
    wanted = _resolve_count(num_questions, len(slots), capacity)
    if num_questions == -1 and wanted < len(slots):
        bank.warn(
            f"question {title!r}: the pool supports only {capacity} distinct "
            f"questions for {len(slots)} keys; generating {capacity}"
        )

    # Round-robin over the shuffled slots, dropping a slot once its answer
    # has used up its subsets. Each pass removes or emits every live slot.
    bank.rng.shuffle(slots)
    taken = dict.fromkeys(spaces, 0)
    sequence = []
    while len(sequence) < wanted:
        for slot in slots:
            if taken[slot[0]] < spaces[slot[0]][1]:
                taken[slot[0]] += 1
                sequence.append(slot)
                if len(sequence) == wanted:
                    break
        slots = [slot for slot in slots if taken[slot[0]] < spaces[slot[0]][1]]

    ranks = {a: iter(bank.rng.sample(range(spaces[a][1]), n)) for a, n in taken.items()}
    for answer, correct, stem in sequence:
        skip = spaces[answer][0]
        picks = [pool[i + (i >= skip)] for i in _unrank_triple(next(ranks[answer]))]
        choices = graded_choices([correct, *picks], wrong)
        bank.questions.append(Question(kind, name, stem, choices, bank.category))
    return wanted


def _unrank_triple(rank):
    """The 3-subset (a, b, c), a < b < c, with rank C(c,3) + C(b,2) + C(a,1).

    This is the combinatorial number system (colex order): ranks
    0 .. C(m,3)-1 map one-to-one onto the 3-subsets of range(m).
    """
    c = round((6 * rank) ** (1 / 3)) + 1
    while math.comb(c, 3) > rank:
        c -= 1
    while math.comb(c + 1, 3) <= rank:
        c += 1
    rank -= math.comb(c, 3)
    b = (1 + math.isqrt(1 + 8 * rank)) // 2
    return rank - b * (b - 1) // 2, b, c


def _unique_texts(items) -> list[str]:
    """Render as_values(items) to text, collapsing duplicates, keeping first-seen order."""
    seen: dict[str, str] = {}
    for item in as_values(items):
        text = render_text(item)
        key = normalize(text)
        if key not in seen:
            seen[key] = text
    return list(seen.values())


def _resolve_count(num_questions, default, capacity):
    if not isinstance(num_questions, int) or isinstance(num_questions, bool):
        raise ValidationError(f"question count must be an integer, got {num_questions!r}")
    if num_questions < -1:
        raise ValidationError(f"question count must be >= -1, got {num_questions}")
    if num_questions == -1:
        return min(default, capacity)
    if num_questions > capacity:
        raise CapacityError(
            f"requested {num_questions} questions but the pool supports at most "
            f"{capacity} distinct questions"
        )
    return num_questions


def _require_single_placeholder(pattern) -> None:
    if not isinstance(pattern, str) or pattern.count("%s") != 1:
        raise ValidationError("the question pattern must contain exactly one %s placeholder")
