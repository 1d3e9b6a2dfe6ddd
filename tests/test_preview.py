"""Preview page conventions: instructor-facing answer leaks, ordering, search."""

import re
import tempfile

import pytest

from quizbank import QuizbankError, render_preview
from quizbank.preview import MATHJAX_CDN_URL, build_preview_html, open_preview




def question_blocks(html_text):
    return re.findall(r'<article class="question".*?</article>', html_text, flags=re.S)


class TestConventions:
    def test_one_block_per_question_in_order(self, rich_bank):
        html_text = build_preview_html(rich_bank)
        blocks = question_blocks(html_text)
        assert len(blocks) == len(rich_bank.questions)
        names = [q.name for q in rich_bank.questions]
        positions = [html_text.index(name) for name in names]
        assert positions == sorted(positions)

    def test_correct_choice_listed_first(self, make_bank):
        bank = make_bank(seed=5)
        bank.addMultipleChoice("", "Q?", ["RIGHT", "w1", "w2", "w3"])
        bank.addMultipleChoiceFromLists("g", "stem", ["c1", "c2"], ["d1", "d2", "d3"])
        html_text = build_preview_html(bank)
        for block in question_blocks(html_text):
            first = re.search(r'<li class="([^"]*)"', block)
            assert first.group(1) == "choice correct"

    def test_question_names_visible_with_auto_ordinals(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("named", "Q1?", ["a"])
        bank.addShortAnswer("", "Q2?", ["b"])
        html_text = build_preview_html(bank)
        assert '<span class="question-name">named</span>' in html_text
        assert '<span class="question-name">Q2</span>' in html_text

    def test_numerical_answers_next_to_disabled_input(self, make_bank):
        bank = make_bank()
        bank.addNumerical("", "Solve \\(2x^2+4x-30=0\\)", [3, -5])
        block = question_blocks(build_preview_html(bank))[0]
        assert re.search(
            r'<input type="text" disabled><span class="accepted">3 \| -5</span>', block
        )

    def test_short_answers_next_to_disabled_input(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Capital of France?", ["Paris", "paris"])
        block = question_blocks(build_preview_html(bank))[0]
        assert "Paris | paris" in block
        assert "disabled" in block

    def test_matching_dropdowns_prealigned_in_pair_order(self, make_bank):
        bank = make_bank()
        pairs = [("Flux", "W"), ("Intensity", "W/sr"), ("Irradiance", "W/m^2")]
        bank.addMatching("", "Match:", pairs)
        block = question_blocks(build_preview_html(bank))[0]
        selects = re.findall(r"<select disabled>(.*?)</select>", block)
        assert len(selects) == 3
        for (prompt, match), select in zip(pairs, selects):
            options = re.findall(r"<option( selected)?>([^<]*)</option>", select)
            assert [text for _, text in options] == ["W", "W/sr", "W/m^2"]
            selected = [text for flag, text in options if flag]
            assert selected == [match]

    def test_category_headings_rendered(self, rich_bank):
        html_text = build_preview_html(rich_bank)
        assert "Algebra / Quadratics" in html_text
        assert "Radiometry" in html_text
        assert "Default category" in html_text

    def test_searchable_for_stems_names_and_answers(self, rich_bank):
        html_text = build_preview_html(rich_bank)
        for needle in ("capitals", "2x^2+4x-30", "Paris", "W/sr", "Radiance"):
            assert needle in html_text


class TestSelfContainment:
    def test_embedded_image_needs_no_network(self, rich_bank):
        html_text = build_preview_html(rich_bank)
        assert "data:image/png;base64," in html_text
        urls = re.findall(r'(?:src|href)="(https?://[^"]+)"', html_text)
        assert urls == [MATHJAX_CDN_URL]

    def test_math_renderer_can_be_inlined(self, make_bank, tmp_path):
        script = tmp_path / "math.js"
        script.write_text("registerMathRenderer();", encoding="utf-8")
        bank = make_bank()
        bank.addNumerical("", "Solve \\(x=1\\)", [1])
        html_text = build_preview_html(bank, math=script)
        assert "registerMathRenderer();" in html_text
        assert "https://" not in html_text

    def test_math_renderer_can_be_dropped(self, make_bank):
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        assert "MathJax" not in build_preview_html(bank, math=None)


class TestRenderPreview:
    def test_writes_file_and_returns_path(self, rich_bank, tmp_path):
        out = render_preview(rich_bank, tmp_path / "preview.html")
        assert out.exists()
        assert "<!DOCTYPE html>" in out.read_text(encoding="utf-8")

    def test_empty_bank_gets_notice(self, make_bank, tmp_path):
        out = render_preview(make_bank(), tmp_path / "empty.html")
        assert "no questions" in out.read_text(encoding="utf-8")

    def test_unwritable_path_errors(self, rich_bank, tmp_path):
        with pytest.raises(OSError) as err:
            render_preview(rich_bank, tmp_path / "nope" / "preview.html")
        assert "preview.html" in str(err.value)


def _surrogate_bank(make_bank):
    """A control character is fine in HTML; the lone surrogate after it is not."""
    bank = make_bank()
    bank.addShortAnswer("bell", "Ring \x07?", ["a"])
    bank.addMultipleChoice("n", "Pick one", ["ok", "bad \udcff"])
    return bank


class TestUnencodablePage:
    def test_render_preview_names_the_question(self, make_bank, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(QuizbankError, match=r"question 'n' contains character '\\udcff'"):
            render_preview(_surrogate_bank(make_bank), out / "preview.html")
        assert list(out.iterdir()) == []

    def test_bank_method_names_the_question(self, make_bank, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(out))  # where mkstemp makes the page
        with pytest.raises(QuizbankError, match="question 'n' contains"):
            _surrogate_bank(make_bank).preview()
        assert list(out.iterdir()) == []  # neither the page nor a .tmp sibling is left


class TestOpenPreview:
    def test_browser_failure_prints_path(self, make_bank, capsys, monkeypatch):
        monkeypatch.setattr("webbrowser.open", lambda url: False)
        bank = make_bank()
        for i in range(6):
            bank.addShortAnswer("", f"Q{i}?", [f"a{i}"])
        path = open_preview(bank)
        try:
            assert str(path) in capsys.readouterr().out
            assert len(question_blocks(path.read_text(encoding="utf-8"))) == 6
        finally:
            path.unlink()

    def test_two_calls_use_independent_files(self, make_bank, monkeypatch):
        monkeypatch.setattr("webbrowser.open", lambda url: True)
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        first = open_preview(bank)
        second = open_preview(bank)
        try:
            assert first != second
            assert first.exists() and second.exists()
        finally:
            first.unlink()
            second.unlink()

    def test_bank_method_delegates(self, make_bank, monkeypatch):
        monkeypatch.setattr("webbrowser.open", lambda url: True)
        bank = make_bank()
        bank.addShortAnswer("", "Q?", ["a"])
        path = bank.preview()
        try:
            assert path.exists()
        finally:
            path.unlink()
