"""Static, shareable HTML preview of a question bank.

The page approximates an LMS quiz page but deliberately leaks answers to
the instructor: the first multiple-choice alternative is always the
correct one, accepted numerical/short answers sit next to the (disabled)
input field, and matching drop-downs come pre-aligned with their prompts.
Question names are shown too (auto-numbered "Q1", "Q2", ... when empty),
so large banks can be searched in the browser.

Everything is inlined except the optional math renderer, which defaults
to a CDN script tag; pass a local file path to inline it for fully
offline previews, or None to drop math rendering.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from .fileio import atomic_write_chunks, utf8_chunks
from .model import QuestionKind, canonical_number, unencodable_error

_STYLE = """
body { font-family: sans-serif; background: #f4f4f4; margin: 0; padding: 1em; }
main { max-width: 860px; margin: 0 auto; }
h1 { font-size: 1.3em; }
h2.category { font-size: 1.05em; color: #334; border-bottom: 2px solid #889;
  padding-bottom: 0.2em; margin-top: 1.4em; }
article.question { background: #fff; border: 1px solid #ccc; border-radius: 6px;
  padding: 0.8em 1em; margin: 0.9em 0; }
article.question > header { display: flex; justify-content: space-between;
  color: #246; font-weight: bold; margin-bottom: 0.5em; }
span.question-kind { color: #789; font-weight: normal; font-size: 0.85em; }
div.stem { margin-bottom: 0.6em; }
ol.choices { list-style: none; padding-left: 0.4em; margin: 0; }
ol.choices li { margin: 0.25em 0; }
li.choice.correct { background: #e7f6e7; border-radius: 4px; }
div.response input[type=text] { border: 1px solid #aaa; border-radius: 3px;
  padding: 0.15em 0.4em; }
span.accepted { color: #164; margin-left: 0.6em; font-weight: bold; }
span.tolerance { color: #666; margin-left: 0.4em; }
table.match-pairs td { padding: 0.25em 0.7em 0.25em 0; vertical-align: top; }
p.empty-notice { background: #fff3d4; border: 1px solid #dbc37a; padding: 0.8em;
  border-radius: 6px; }
pre { background: #f7f7f7; border: 1px solid #ddd; padding: 0.5em; overflow-x: auto; }
""".strip()

MATHJAX_CDN_URL = "https://cdn.jsdelivr.net/npm/mathjax@3/es5/tex-chtml.js"

_MATH_CONFIG = (
    "window.MathJax = {tex: {inlineMath: [['\\\\(', '\\\\)']], "
    "displayMath: [['$$', '$$']]}};"
)

# Per kind, built from its value (how a member itself formats differs between
# Python versions): the value and the opening, "%s" left for the shown name.
_OPENINGS = {
    kind: (kind.value, f'<article class="question" data-kind="{kind.value}">\n<header>'
           '<span class="question-name">%s</span>'
           f'<span class="question-kind">{kind.value}</span></header>\n<div class="stem">')
    for kind in QuestionKind
}
_RESPONSE = (
    '<div class="response"><input type="text" disabled><span class="accepted">%s</span>%s</div>'
)
_CORRECT = '<li class="choice correct"><label><input type="radio" disabled checked> '
_WRONG = '<li class="choice"><label><input type="radio" disabled> '
_SELECT = "</td><td><select disabled>%s selected%s</select></td></tr>\n"


def render_preview(bank, output_path, math="cdn"):
    """Write the preview page for ``bank`` to ``output_path``.

    ``math`` selects the LaTeX renderer: "cdn" references it from a CDN,
    a file path inlines that script for offline use, None omits it.
    Returns the output path.
    """
    output_path = Path(output_path)
    # Only a lone surrogate fails to encode: the error names its question.
    fail = functools.partial(unencodable_error, bank, "[\ud800-\udfff]", "UTF-8")
    atomic_write_chunks(output_path, utf8_chunks(_page_blocks(bank, math), fail))
    return output_path


def render_temp_preview(bank) -> Path:
    """Render to a new, owner-only ``quizbank-preview-*.html`` temp file and
    return its path; a failed render removes the file."""
    import tempfile  # here, not at the top: only a page without --out needs it

    fd, name = tempfile.mkstemp(prefix="quizbank-preview-", suffix=".html")
    os.close(fd)
    try:
        return render_preview(bank, name)
    except BaseException:
        Path(name).unlink(missing_ok=True)
        raise


def build_preview_html(bank, math="cdn") -> str:
    """The page render_preview writes, as one string."""
    return "".join([piece for block in _page_blocks(bank, math) for piece in block])


def _page_blocks(bank, math):
    """The page as lists of str pieces: the head, then one list per question.

    Stems, choice texts and matching prompts are pieces of their own, so no
    join copies them before the page is encoded.
    """
    head = [
        '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">',
        f"<title>Question bank preview</title>\n<style>{_STYLE}</style>",
        *_math_script(math),
        "</head>\n<body>\n<main>",
    ]
    # A path from argv holds a lone surrogate for each undecodable byte: shown as "?".
    source = str(bank.output_path).encode(errors="replace").decode() if bank.output_path else ""
    head.append(f"<h1>Question bank preview &mdash; {_escaped(source or 'unsaved bank')}</h1>")
    if not bank.questions:
        head.append('<p class="empty-notice">This bank contains no questions.</p>')
    yield ["\n".join(head) + "\n"]
    shown_category = ""
    for index, question in enumerate(bank.questions, start=1):
        block = []
        category = question.category
        if category != shown_category:
            heading = category.replace("/", " / ") if category else "Default category"
            block.append(f'<h2 class="category">{_escaped(heading)}</h2>\n')
            shown_category = category
        _question_block(block, question, index)
        yield block
    yield ["</main>\n</body>\n</html>\n"]


def _math_script(math):
    if math is None:
        return []
    if math == "cdn":
        renderer = f'<script async src="{MATHJAX_CDN_URL}"></script>'
    else:
        renderer = f"<script>{Path(math).read_text(encoding='utf-8')}</script>"
    return [f"<script>{_MATH_CONFIG}</script>", renderer]


def _escaped(text: str) -> str:
    """html.escape(text), or text itself when it holds none of &<>"'."""
    if "&" in text or "<" in text or ">" in text or '"' in text or "'" in text:
        from html import escape  # here, not at the top: only such texts need it
        return escape(text)
    return text


def _question_block(pieces, question, index) -> None:
    """Append the question's <article> and a line break to ``pieces``."""
    kind, opening = _OPENINGS[question.kind]
    payload = question.payload
    pieces += (opening % _escaped(question.name or f"Q{index}"), question.stem, "</div>\n")
    if kind == "multichoice":
        _choices_body(pieces, payload.choices)
    elif kind == "numerical":  # numbers hold nothing to escape
        accepted = " | ".join([canonical_number(a) for a in payload.answers])
        tolerance = canonical_number(payload.tolerance)
        tolerance = f'<span class="tolerance">&plusmn; {tolerance}</span>'
        pieces.append(_RESPONSE % (accepted, tolerance))
    elif kind == "shortanswer":
        pieces.append(_RESPONSE % (_escaped(" | ".join(payload.answers)), ""))
    else:
        _matching_body(pieces, payload.pairs)
    pieces.append("\n</article>\n")


def _choices_body(pieces, choices) -> None:
    # Correct alternative(s) first; everything else keeps its stored order.
    correct, wrong = [], []
    for choice in choices:
        if choice.fraction == 100:
            correct += (_CORRECT, choice.text, "</label></li>\n")
        else:
            wrong += (_WRONG, choice.text, "</label></li>\n")
    # Each item ends its own line; a list with none keeps one blank line.
    pieces.append('<ol class="choices">\n' if choices else '<ol class="choices">\n\n')
    pieces += correct
    pieces += wrong
    pieces.append("</ol>")


def _matching_body(pieces, pairs) -> None:
    # One drop-down per prompt, options in pair order, the first option equal
    # to its own match selected. Each match is escaped once: a drop-down is
    # all the options, cut after the "<option" of its selected one.
    options, cuts, cut = [], {}, len("<option")
    for _, match in pairs:
        cuts.setdefault(match, cut)
        options.append(f"<option>{_escaped(match)}</option>")
        cut += len(options[-1])
    options = "".join(options)
    pieces.append('<table class="match-pairs">\n')
    for prompt, match in pairs:
        select = _SELECT % (options[:cuts[match]], options[cuts[match]:])
        pieces += ('<tr><td class="match-prompt">', prompt, select)
    pieces.append("</table>")
