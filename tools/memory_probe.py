"""Peak memory of each quizbank command on a bank of three embedded videos,
and of stats and preview on a generated bank that repeats its pool's texts.

Usage: python tools/memory_probe.py [--mb 50]

Writes an authoring script that embeds three random videos of --mb MB each
with embed_video, then runs build, stats, maintain (replace-text, in place
with its backup) and preview on the bank it writes, one child process each,
in a temporary directory. os.wait4 gives each child's peak resident set size
(ru_maxrss). The probe also exits 1 unless maintain leaves one .bak whose
SHA-256 is that of the bank before the edit.

The floor is the peak of a child that only imports quizbank.cli. The fields
are the bank's texts, almost all of them the three video fragments. The
probe prints each command's peak and exits 1 if one fails or peaks above
its bound:

    stats, preview     floor + 1.2 x fields + 1 MiB
    build              floor + fields + 3 x the largest field + 1 MiB
    maintain           floor + 2 x the largest field + 1 MiB

where the 1 MiB covers what a command needs beyond the import whatever the
bank's size (its argument parser, compiled patterns, small objects). Reading
a bank holds its fields and one window of the file, so stats and preview sit
near floor + fields. maintain streams the bank one question at a time: it
holds the question in hand and its edited copy, and drops both before it
reads the next, so its bound does not grow with the number of videos.

The generated bank is 4,000 addMultipleChoiceFromLists questions over 64
texts of 1 KiB, so its 16 MiB of choice texts hold 64 KiB of distinct ones.
A read holds one str per distinct name and answer text, so stats and
preview are bounded by

    floor + distinct fields + 1 KiB per question + 1 MiB

where 1 KiB covers what a read holds for each question beyond its pooled
texts: its stem and the question, payload and choice records (under
tracemalloc, about 0.5 KiB on Python 3.11). A read that kept every
question's own copies of its choice texts would peak some 15 MiB above the
floor, far above the bound.

This process holds no large data itself: Linux folds the peak of the
process that forks a child into that child's ru_maxrss.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VIDEOS = 3
MIB = 1 << 20

SCRIPT = """\
import random

from quizbank import MediaAsset, QuestionBank, embed_video

bank = QuestionBank("bank.xml")
rng = random.Random(0)
for number in range({videos}):
    video = MediaAsset(rng.randbytes({size}), "video/mp4")
    bank.addShortAnswer(f"video {{number}}", embed_video(video), ["x"])
    del video  # keeps only the fragment, as a script that renders one video at a time
bank.close()
"""

POOL_TEXTS, POOL_QUESTIONS, KIB = 64, 4000, 1 << 10

POOL_SCRIPT = f"""\
import random

from quizbank import QuestionBank

rng = random.Random(0)
texts = [rng.randbytes({KIB // 2}).hex() for _ in range({POOL_TEXTS})]
bank = QuestionBank("pools.xml", seed=0)
half = len(texts) // 2
bank.addMultipleChoiceFromLists("pick", "Which one is correct?", texts[:half], texts[half:], {POOL_QUESTIONS})
bank.close()
"""

POOL_COMMANDS = [
    ("build", ["build", "pools.py"]),
    ("stats", ["stats", "pools.xml"]),
    ("preview", ["preview", "pools.xml", "--out", "pools.html"]),
]

COMMANDS = [
    ("build", ["build", "script.py"]),
    ("stats", ["stats", "bank.xml"]),
    ("maintain", ["maintain", "bank.xml", "replace-text", "video", "clip"]),
    ("preview", ["preview", "bank.xml", "--out", "preview.html"]),
]


def peak_kib(python_args, cwd) -> int:
    """Run one child Python and return its ru_maxrss; exit 1 if it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(Path(cwd, "stderr.txt"), "w+b") as err:
        child = subprocess.Popen(
            [sys.executable, *python_args], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(child.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
            sys.exit(f"memory probe: {' '.join(python_args)} exited with {code}")
    return usage.ru_maxrss


def sha256(path) -> str:
    with open(path, "rb") as file:
        return hashlib.file_digest(file, "sha256").hexdigest()  # reads in small blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mb", type=int, default=50, help="size of each video (MB, 10^6 bytes)")
    args = parser.parse_args(argv)
    if args.mb < 1:
        parser.error("--mb must be at least 1")
    size = args.mb * 1_000_000
    # The fragment: <video controls src="data:video/mp4;base64,...."></video>
    largest = len('<video controls src="data:video/mp4;base64,"></video>') + 4 * ((size + 2) // 3)
    fields = VIDEOS * largest
    with tempfile.TemporaryDirectory(prefix="quizbank-memory-probe-") as directory:
        Path(directory, "script.py").write_text(SCRIPT.format(videos=VIDEOS, size=size))
        floor = peak_kib(["-c", "import quizbank.cli"], directory) * 1024
        read = floor + 1.2 * fields + MIB
        bounds = {"build": floor + fields + 3 * largest + MIB, "stats": read,
                  "maintain": floor + 2 * largest + MIB, "preview": read}
        print(f"{VIDEOS} videos of {args.mb} MB: fields {fields / MIB:.1f} MiB, "
              f"largest {largest / MIB:.1f} MiB, floor {floor / MIB:.1f} MiB, bounds "
              + ", ".join(f"{label} {bounds[label] / MIB:.1f} MiB" for label, _ in COMMANDS))
        over = []
        for label, command in COMMANDS:
            if label == "maintain":
                before = sha256(Path(directory, "bank.xml"))
            peak = peak_kib(["-m", "quizbank.cli", *command], directory) * 1024
            if label == "maintain":
                backups = [sha256(path) for path in Path(directory).glob("bank.xml.*.bak")]
                if backups != [before]:
                    sys.exit("memory probe: maintain left no .bak of the bank before the edit")
            share = (peak - floor) / fields
            print(f"  {label:<9} {peak / MIB:8.1f} MiB  floor + {share:.2f} x fields")
            if peak > bounds[label]:
                over.append(label)
        Path(directory, "pools.py").write_text(POOL_SCRIPT)
        distinct = POOL_TEXTS * KIB + len("pick") + len("Which one is correct?")
        read = floor + distinct + POOL_QUESTIONS * KIB + MIB
        print(f"{POOL_QUESTIONS} generated questions over {POOL_TEXTS} texts of 1 KiB: "
              f"bound {read / MIB:.1f} MiB for stats and preview")
        for label, command in POOL_COMMANDS:
            peak = peak_kib(["-m", "quizbank.cli", *command], directory) * 1024
            print(f"  {label:<9} {peak / MIB:8.1f} MiB  floor + {(peak - floor) / MIB:.2f} MiB")
            if label != "build" and peak > read:
                over.append(f"generated {label}")
    if over:
        print(f"memory probe: above the bound: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
