"""Fixed reference program that measures how fast the host is right now.

It does the kinds of work a quizbank command does: interpreter start-up,
building and escaping many small strings, serializing and parsing an XML
document with ElementTree, regex scans, base64 over a megabyte, and
one file write and read. It never imports quizbank, and its input is the
same on every run, so its wall time changes only with the host. run.py
starts it through the launcher before and after every command and scales
the command timings by it (see README.md, "Host-speed scaling").

It prints a digest of what it computed, so a broken run is noticed.
"""

import base64
import hashlib
import html
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

QUESTIONS = 700
BLOB_BYTES = 700_000


def main() -> None:
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7)) for _ in range(400)]
    quiz = ET.Element("quiz")
    for index in range(QUESTIONS):
        question = ET.SubElement(quiz, "question", type="multichoice")
        stem = " ".join(rng.choice(words) for _ in range(12))
        ET.SubElement(ET.SubElement(question, "name"), "text").text = f"q{index:05d}"
        ET.SubElement(ET.SubElement(question, "questiontext"), "text").text = html.escape(f"<p>{stem}</p>")
        for choice in rng.sample(words, 4):
            answer = ET.SubElement(question, "answer", fraction="100" if choice < "m" else "-33.3")
            ET.SubElement(answer, "text").text = choice
    document = ET.tostring(quiz, encoding="utf-8")

    parsed = ET.fromstring(document)
    texts = [node.text for node in parsed.iter("text")]
    pools = {word: sorted({t for t in texts[:2000] if t and word[0] in t}) for word in words[:60]}
    found = len(re.findall(r"<p>([a-z ]+)</p>", "\n".join(html.unescape(t) for t in texts)))

    blob = base64.b64encode(rng.randbytes(BLOB_BYTES))
    path = Path(".reference.bin")
    path.write_bytes(blob)
    back = path.read_bytes()
    path.unlink()
    marks = len(re.findall(rb"data:[a-z]+/", back.replace(b"Q", b"data:image/")))

    digest = hashlib.sha256(document)
    digest.update(f"{found}:{marks}:{sum(map(len, pools.values()))}".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
