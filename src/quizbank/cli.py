"""Command-line front end: build authoring scripts, inspect, preview, edit.

Exit codes are a stable contract for automation: 0 on success, 1 for usage errors
(bad flags or values), 2 for script, parse or file failures. main() maps every outcome
to its code and prints the one "error:" line; warnings go to stderr, prefixed "WARN:".

The program freezes its start-up heap; stats, maintain and preview pause garbage collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path

from . import bank as bank_module
from .errors import QuizbankError, ValidationError
# Writes stream and maintain edits question by question: atomic_write_bytes, serialize_bank,
# replace_text and set_wrong_penalty go unused here; benchmarks/tracing.py wraps them by name.
from .fileio import atomic_write_bytes, atomic_write_chunks  # noqa: F401
from .fileio import map_file, timestamped_backup
from .maintenance import pattern_edit, penalty_edit, text_edit
from .maintenance import replace_text, set_wrong_penalty  # noqa: F401
from .media import question_media_bytes
from .moodle_xml import _own_layout, _windows, parse_bank, serialize_chunks
from .moodle_xml import serialize_bank  # noqa: F401
from .preview import render_preview, render_temp_preview

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

SEED_ENV_VAR = "QUIZBANK_SEED"

# Per-question embedded media above this size triggers a stats warning;
# large payloads are known to upset some LMS importers.
DEFAULT_MEDIA_WARN_MB = 10


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; main maps a ValidationError to the documented 1.
    def error(self, message):
        raise ValidationError(message)


def run() -> None:
    """The program: freeze the start-up heap, before any build script runs, then run main()."""
    gc.freeze()
    sys.exit(main())


def main(argv=None) -> int:
    parser = _build_parser()
    collecting = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        if args.handler is not _cmd_build:
            gc.disable()  # a bank's records hold no reference cycles
        return args.handler(args)
    except SystemExit as exc:
        # --help and friends, once argparse printed (build catches a script's own).
        return EXIT_OK if not exc.code else EXIT_USAGE
    except (QuizbankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValidationError) else EXIT_FAILURE
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quizbank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="run an authoring script")
    build.add_argument("script", type=Path, help="Python script that builds a bank")
    build.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"force the RNG seed for every bank the script creates "
        f"(default: ${SEED_ENV_VAR} when set)",
    )
    build.add_argument(
        "--out", type=Path, default=None, help="override the script's output path"
    )
    build.set_defaults(handler=_cmd_build)

    stats = sub.add_parser("stats", help="summarize an XML bank")
    stats.add_argument("bank", type=Path)
    stats.add_argument(
        "--media-warn-mb",
        type=float,
        default=DEFAULT_MEDIA_WARN_MB,
        help="warn when one question embeds more media than this (MB)",
    )
    stats.set_defaults(handler=_cmd_stats)

    preview = sub.add_parser("preview", help="render an XML bank to preview HTML")
    preview.add_argument("bank", type=Path)
    preview.add_argument(
        "--out", type=Path, default=None, help="output HTML path (default: temp file)"
    )
    preview.set_defaults(handler=_cmd_preview)

    maintain = sub.add_parser("maintain", help="bulk-edit an XML bank")
    maintain.add_argument("bank", type=Path)
    maintain.set_defaults(handler=_cmd_maintain)
    maintain_sub = maintain.add_subparsers(dest="operation", required=True)

    replace = maintain_sub.add_parser("replace-text", help="replace text everywhere")
    replace.add_argument("old")
    replace.add_argument("new")
    replace.add_argument(
        "--regex", action="store_true", help="treat OLD as a regular expression"
    )
    penalty = maintain_sub.add_parser(
        "set-penalty", help="set the wrong-answer fraction of all multiple-choice questions"
    )
    penalty.add_argument("fraction", type=float, help="new fraction, between -100 and 0")
    for operation in (replace, penalty):
        operation.add_argument(
            "--out",
            type=Path,
            default=None,
            help="write the edited bank here instead of in place",
        )
        operation.add_argument(
            "--no-backup",
            action="store_true",
            help="skip the timestamped .bak copy when editing in place",
        )
    return parser


# -- commands ----------------------------------------------------------------


def _cmd_build(args) -> int:
    script = args.script
    if not script.is_file():
        raise ValidationError(f"script not found: {script}")
    if _same_file(args.out, script):
        raise ValidationError(f"--out names the script itself: {script}")
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ValidationError(
                f"${SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            )
    import runpy  # here, not at the top: only build runs scripts

    overrides = {"seed": seed, "out": args.out, "banks": []}
    token = bank_module.build_overrides.set(overrides)
    # A gen-0 collection that frees under half of what it scanned doubles the gen-0 threshold,
    # up to 4x the one found, and one that frees more restores it; a script's own threshold wins.
    found = mine = gc.get_threshold()
    def adapt(phase, info):
        nonlocal mine
        if phase == "stop" and info["generation"] == 0 and gc.get_threshold() == mine:
            grow = 2 * info["collected"] < mine[0]
            mine = (min(2 * mine[0], 4 * found[0]) if grow else found[0], *found[1:])
            gc.set_threshold(*mine)
    gc.callbacks.append(adapt)
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int) and exc.code:  # a bool prints as its int
            raise QuizbankError(f"script exited with status {exc.code:d}")
        if exc.code:
            raise QuizbankError(f"script exited: {exc.code}")
    except BaseException:
        import traceback  # here: only a failing script prints one
        traceback.print_exc()
        return EXIT_FAILURE
    finally:
        gc.callbacks[:] = [callback for callback in gc.callbacks if callback is not adapt]
        gc.set_threshold(*found)
        bank_module.build_overrides.reset(token)
    for bank in overrides["banks"]:
        if not bank.closed:
            bank.warn(f"bank {bank.output_path} was never closed; nothing was written")
    return EXIT_OK


def _cmd_stats(args) -> int:
    if not 0 <= args.media_warn_mb < float("inf"):
        raise ValidationError(
            f"--media-warn-mb must be a finite number >= 0, got {args.media_warn_mb:g}"
        )
    bank = _load_bank(args.bank)
    kind_counts = Counter(q.kind for q in bank.questions)
    category_counts = Counter(q.category or "(default)" for q in bank.questions)
    sizes = [question_media_bytes(question) for question in bank.questions]
    threshold = args.media_warn_mb * 1024 * 1024
    for index, (question, size) in enumerate(zip(bank.questions, sizes), start=1):
        if size > threshold:
            label = question.name or f"question #{index}"
            bank.warn(
                f"{label}: embedded media is {size / (1024 * 1024):.1f} MB, "
                f"above the {args.media_warn_mb:g} MB threshold"
            )
    print(f"questions: {len(bank.questions)}")
    for kind in sorted(kind_counts):  # members compare as their values
        print(f"  {kind.value}: {kind_counts[kind]}")
    print("categories:")
    if not category_counts:
        print("  (none)")
    for category in sorted(category_counts):
        print(f"  {category}: {category_counts[category]}")
    print(f"embedded media bytes: {sum(sizes)}")
    print(f"warnings: {len(bank.warnings)}")
    return EXIT_OK


def _cmd_preview(args) -> int:
    if _same_file(args.out, args.bank):
        raise ValidationError(f"--out names the bank itself: {args.bank}")
    bank = _load_bank(args.bank)
    print(render_temp_preview(bank) if args.out is None else render_preview(bank, args.out))
    return EXIT_OK


def _cmd_maintain(args) -> int:
    read = []  # holds True once the stream has edited the whole bank
    with map_file(args.bank) as data:  # closed once the edited bank is on file
        try:
            return _edit_stream(args, _own_layout(_windows(data)), read)
        except (QuizbankError, ValueError, OSError):  # failed, off the layout, or no temp file:
            if read:
                raise  # the backup or the rename failed
            bank = parse_bank(data)  # the bank read whole reports it as it always has
    return _edit_stream(args, bank.questions, read, bank)


def _edit_stream(args, questions, read, bank=None) -> int:
    edit = (penalty_edit(args.fraction) if args.operation == "set-penalty"
            else (pattern_edit if args.regex else text_edit)(args.old, args.new))
    in_place = args.out is None or _same_file(args.out, args.bank)
    target, total, changed, index = args.bank if in_place else args.out, 0, False, 0

    def edited():
        nonlocal total, changed, index
        for question in questions:
            if type(question) is not str:  # a str is a category change
                index += 1
                count, change = edit(index, question)
                total, changed = total + count, changed or change
                yield question
            question = None  # dropped before the next is read

    def finish():  # once the edited bank is on file whole, before the rename
        read.append(True)
        if in_place and changed and not args.no_backup:
            print(f"backup: {timestamped_backup(target)}", file=sys.stderr)
        return changed or not in_place  # False abandons the write: no rename and no backup

    edits = edited() if bank is None else list(edited())  # a bank read whole: every edit first
    if bank is None or changed or not in_place:  # an in-place no-op makes no file
        atomic_write_chunks(target, serialize_chunks(bank, edits), before_replace=finish)
    print(f"{'replacements' if args.operation == 'replace-text' else 'questions updated'}: {total}")
    return EXIT_OK


# -- helpers -----------------------------------------------------------------


def _same_file(out: Path | None, source: Path) -> bool:
    return out is not None and out.exists() and os.path.samefile(out, source)


def _load_bank(path: Path):
    with map_file(path) as data:  # closed once the parse returns
        bank = parse_bank(data)
    bank.output_path = path
    return bank


if __name__ == "__main__":
    run()
