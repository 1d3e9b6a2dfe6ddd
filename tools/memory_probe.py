"""Peak memory of each quizbank command on a bank of three embedded videos.

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

    floor + fields + 3 x the largest field + 1 MiB,

where the 1 MiB covers what a command needs beyond the import whatever the
bank's size (its argument parser, compiled patterns, small objects). Reading
a bank holds its text and its fields, so stats, maintain and preview sit
near floor + 2 x fields.

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
        bound = floor + fields + 3 * largest + MIB
        print(f"{VIDEOS} videos of {args.mb} MB: fields {fields / MIB:.1f} MiB, "
              f"largest {largest / MIB:.1f} MiB, floor {floor / MIB:.1f} MiB, "
              f"bound {bound / MIB:.1f} MiB")
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
            if peak > bound:
                over.append(label)
    if over:
        print(f"memory probe: above the bound: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
