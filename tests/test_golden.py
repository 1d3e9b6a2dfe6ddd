"""Pinned output bytes: every bank and preview the demos write, one
kitchen-sink bank with its preview and its ``stats`` output, and that bank
after each kind of ``maintain`` edit with the edit's report, by sha256.

A change that alters any of these bytes fails here. One that means to
alter them recomputes the values and says why in CHANGES.md.
"""

import hashlib
import html
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from quizbank import QuestionBank, cli, render_preview

DEMO_DIR = Path(__file__).parent.parent / "demos"

DEMOS = {
    "01_single_questions": {
        "single_questions.html": "576596c08586a6c67e92c66f657b3d5e6451ad7853e61f935d2c3f43b6eb9981",
        "single_questions.xml": "ebe55cf5931944a5b524a8053201f7f50b981bb8b71a70061d0b48b84980557f",
    },
    "02_random_parameters": {
        "random_quadratics.xml": "333abfd3caa714c8ee255fb59f266a16b11760d3a407d66513f99260b6003e08",
    },
    "03_list_pools": {
        "status_codes.xml": "ff8de28d50444583f70c37ea6660b914f451555ae1436b32e6eb6789a7d244d0",
    },
    "04_pair_pools": {
        "pairs.xml": "f3ef08212424f42beb3b2a1eca511766f80e48f8640298d85a0c78c8becba58d",
    },
    "05_complete_code": {
        "complete_code.html": "5f79ab28719f80021944daf195813363bb1d356ae347bcb522ba79d1d49a6065",
        "complete_code.xml": "600978a5c4e872f60ae3f5447963820b03059414848cdd65a03fe438896635a1",
    },
    "06_media_embedding": {
        "media.html": "ba7fded25f21d7f4a11c475b4e58852873a41ea25bbdcc480e077f7564076442",
        "media.xml": "e75d10e25525fe478ec37a45de9e585b2f5af9dc92317d47f41f9989defa001d",
    },
    "07_maintenance": {
        "radiometry.xml": "88653402a64e086e252b7756427b3b2704e39bf3eae903de73d363c44b14a1de",
    },
}

KITCHEN_SINK = {
    "sink.xml": "ba1f36b03182016b33ed1783e4d47249f68f470d3a3e0ae151f30656124cef7c",
    "sink.html": "ac17651e50893baa25f80d553d635ac1c23e500fd1738e0e4ffff6b9a04840bd",
    "stats": "95a521b0ea24f0097e8cfdfbeca999d611e831428f6c8c9fd82c14911a2aebc5",
}

# Each edit writes the kitchen-sink bank to a new file with --out: the
# edited bank's digest, then the digest of the command's standard output.
MAINTAINED = {
    "literal": (
        ["replace-text", "]]>", "]]]>"],
        "e63922fdc22f7b475a76717861b8d535941148a59e2fcf6b8d75ea11ee42a96c",
        "d87db6a2c19f81f77f161361f1f16e6c0eee2e9cbc4c58113c81e7515d212a67",
    ),
    "regex": (
        ["replace-text", "--regex", r"choice (\d+)", r"option \1"],
        "80064128413c1c61eb2a065b8227f4b7dfba9d6c80953afcb337e739717195ca",
        "551d19cd6b3445c51f012c5a1ad849e3c32ae36323257abc1669aeb1378c9036",
    ),
    "penalty": (
        ["set-penalty", "-25"],
        "f4dd656c4fa9a1295b7acc9c61ea4ebac5c01bb9f2bf943058302301a4c88233",
        "46bcd591f7ea99cebfc8e0c78e94a730f03fb8afe8d2834b06201d403d7fce88",
    ),
}

HOSTILE = "&<>\"' ]]> end"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _page_digest(path: Path, tmp_path: Path) -> str:
    """The page's digest with the temporary path in its <h1> as "TMP"."""
    head, close, rest = path.read_text(encoding="utf-8").partition("</h1>")
    assert close and html.escape(str(tmp_path)) in head
    return _digest((head.replace(html.escape(str(tmp_path)), "TMP") + close + rest).encode())


def _output_digests(directory: Path, tmp_path: Path) -> dict:
    return {
        path.name: _page_digest(path, tmp_path) if path.suffix == ".html"
        else _digest(path.read_bytes())
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_outputs(name, tmp_path, monkeypatch, capsys):
    # Demo 06 draws its built-in PNG, not a plot from whatever matplotlib is installed.
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMO_DIR / script.name, script)
    runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()
    assert _output_digests(tmp_path / "output", tmp_path) == DEMOS[name]


def test_every_demo_is_pinned():
    assert sorted(DEMOS) == sorted(path.stem for path in DEMO_DIR.glob("*.py"))


def _fill_kitchen_sink(bank) -> None:
    """All four kinds, all three generators, category changes (back to the
    default too), a 12-choice question and texts holding &<>"' and ]]>."""
    bank.addShortAnswer(f"short {HOSTILE}", f"Type the text {HOSTILE}:", [HOSTILE, "plain"])
    bank.setCategory("Physics/Units & <Measures>")
    bank.addNumerical("numerical", "Speed of light in km/s?", [299792, 3e5], tolerance=0.5)
    bank.addMultipleChoice(
        f"twelve {HOSTILE}", f"Which is the first of twelve? {HOSTILE}",
        [f"choice {i} {HOSTILE}" for i in range(12)],
    )
    bank.addMatching(
        "matching", f"Match each text: {HOSTILE}",
        [(f"prompt <b>{i}</b> ]]>", f"match & {i} \"q\" 'a'") for i in range(4)],
    )
    bank.setCategory("")
    bank.addMultipleChoiceFromLists(
        f"lists {HOSTILE}", "Select the <b>prime</b> number ]]>:",
        [2, 3, 5, 7, 11], [4, 6, 8, 9, 10, 12],
    )
    bank.setCategory("Chemistry")
    bank.addMultipleChoiceFromPairs(
        "pairs", "The symbol of %s & co?",
        [("gold", "Au"), ("silver", "Ag"), ("iron", "Fe"), ("lead", "Pb"), ("tin", "Sn")],
        extra_distractors=["<Xx>"],
    )
    bank.setCategory("Code")
    bank.addCompleteCode(
        "code", "Complete: <pre>%s</pre>",
        "total = price * qty\nif total > limit and qty < 3:\n    print(total)",
        ["total", "price", "qty", "limit"], ["cost", "amount"],
    )
    bank.setCategory("")
    bank.addShortAnswer("", "Back in the default category", "yes")


def test_kitchen_sink(tmp_path, capsys):
    bank = QuestionBank(tmp_path / "sink.xml", seed=2020)
    _fill_kitchen_sink(bank)
    bank.close()
    render_preview(bank, tmp_path / "sink.html")
    capsys.readouterr()
    assert cli.main(["stats", str(tmp_path / "sink.xml")]) == 0
    stats = capsys.readouterr().out.encode()
    digests = _output_digests(tmp_path, tmp_path)
    assert digests | {"stats": _digest(stats)} == KITCHEN_SINK


@pytest.mark.parametrize("edit", sorted(MAINTAINED))
def test_maintained_kitchen_sink(edit, tmp_path, capsys):
    # The path the benchmark's replace and penalty commands take: parse the
    # writer's own layout, edit, and serialize again.
    operation, bank_digest, stdout_digest = MAINTAINED[edit]
    bank = QuestionBank(tmp_path / "sink.xml", seed=2020)
    _fill_kitchen_sink(bank)
    bank.close()
    capsys.readouterr()
    out = tmp_path / "edited.xml"
    assert cli.main(["maintain", str(tmp_path / "sink.xml"), *operation, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (_digest(out.read_bytes()), _digest(captured.out.encode())) == (
        bank_digest, stdout_digest,
    )
