"""Command-line surface: generation, analysis, catalog enumeration,
occurrence queries, and the verification suite.

Exit codes: 0 success, 1 verification mismatch, 2 usage, guard or I/O
error; 3 an internal invariant failure (a RuntimeError such as an
unsound verify report or a duplicate catalog family), reported as
``internal error: ...`` on stderr; 141 (the shell's status for a
SIGPIPE death) when the reader closes stdout early, as in
``fibquasi gen 25 | head -c 10``. JSON mode
(--json) emits exactly one JSON document on stdout; text mode is
human-oriented and carries no stability promise.

The set flags of analyze and enum, and the names verify --only accepts,
come from the category registry in the verify module.

``enum`` places the catalog's groups and makes every check before its
first write, so a refusal or error leaves stdout empty, then writes one
group of forms and one length of words per write from one walk, as text
(``closed_form.EnumResult.write_text``) or as the bytes ``json.dumps``
would give (``write_json``). ``analyze --json`` also writes the bytes
``json.dumps`` would give, each set as one join (``_write_analyze``).
``gen``, ``occurrences`` and ``verify`` emit their JSON through
``json.dumps``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import closed_form, words
from .fib import fib_len, fib_occurrences, fib_word, scan_occurrences
from .verify import (CATEGORIES, DEFAULT_CAPS, REGISTRY, Category,
                     SuiteConfig, run_suite)

MAX_INPUT_WORD = 10 ** 6


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _print_words(label: str, items) -> None:
    print(f"{label} ({len(items)}):")
    for w in items:
        print(f"  {w}")


def _cmd_gen(args) -> int:
    if args.len:
        length = fib_len(args.n)
        if args.json:
            _emit({"n": args.n, "length": length})
        else:
            print(length)
    else:
        word = fib_word(args.n)
        if args.json:
            _emit({"n": args.n, "word": word})
        else:
            print(word)
    return 0


def _load_word(args) -> str:
    if args.word is not None and args.file:
        raise ValueError("give the word either inline or via --file, not both")
    if args.word is not None:
        raw = args.word
    elif args.file:
        with open(args.file, "r", encoding="ascii") as handle:
            raw = handle.read().strip()
    else:
        raise ValueError("no input word (pass it inline or via --file)")
    words.require_word(raw, "input word")
    if not raw:
        raise ValueError("input word must be nonempty")
    if len(raw) > MAX_INPUT_WORD and not args.force:
        raise ValueError(
            f"input word has {len(raw)} letters (> {MAX_INPUT_WORD}); "
            f"pass --force to analyze it anyway")
    return raw


def _selected(args) -> list[Category]:
    """The registry records whose set flags were given, in registry
    order."""
    return [c for c in REGISTRY.values() if getattr(args, c.name)]


def _cmd_analyze(args) -> int:
    subject = _load_word(args)
    requested = _selected(args)
    if not requested:
        raise ValueError("select at least one set to compute "
                         "(e.g. --covers, --seeds)")
    found = {category.name: category.oracle(subject, force=args.force)
             for category in requested}
    if args.json:
        _write_analyze(subject, found)
    else:
        for name, items in found.items():
            _print_words(name, items)
    return 0


def _write_analyze(subject: str, found: dict[str, list[str]]) -> None:
    """Write ``json.dumps({"word": subject, **found})`` and a newline to
    stdout, byte for byte, each set as one join: the subject and every
    word found in it are over {a, b}, so none needs escaping."""
    write = sys.stdout.write
    write('{"word": "%s"' % subject)
    for name, items in found.items():
        write(', "%s": [%s]' % (name, '"%s"' % '", "'.join(items)
                                if items else ""))
    write("}\n")


def _cmd_enum(args) -> int:
    chosen = _selected(args)
    if len(chosen) != 1:
        raise ValueError("select exactly one catalog "
                         "(e.g. --covers or --seeds)")
    result = closed_form.catalog(args.n, chosen[0].name, force=args.force)
    (result.write_json if args.json else result.write_text)(sys.stdout.write)
    return 0


def _cmd_occurrences(args) -> int:
    n, m = args.n, args.m
    if not 3 <= m <= n - 2:
        method = "scan"
        positions = scan_occurrences(n, m)
    else:
        method = "closed_form"
        positions = fib_occurrences(n, m)
    if args.json:
        _emit({"n": n, "m": m, "method": method,
               "positions": list(positions)})
    else:
        print(" ".join(map(str, positions)))
    return 0


def _parse_categories(raw: list[str]) -> tuple[str, ...]:
    lookup = {alias: c.name for c in REGISTRY.values()
              for alias in (c.flag, c.name, c.name.replace("_", "-"))}
    out = []
    for chunk in raw:
        for name in chunk.split(","):
            key = name.strip().lower()
            if key not in lookup:
                raise ValueError(f"unknown category {name!r}")
            out.append(lookup[key])
    return tuple(dict.fromkeys(out))


def _cmd_verify(args) -> int:
    categories = (_parse_categories(args.only) if args.only
                  else CATEGORIES)
    caps = (dict(DEFAULT_CAPS) if args.cap is None
            else dict.fromkeys(categories, args.cap))
    config = SuiteConfig(args.min_n, args.max_n, categories, caps)
    # Validate, then open the report, so bad arguments leave an existing
    # report untouched and an unwritable path fails before the suite
    # runs rather than after.
    config.validate()
    with (open(args.report, "w", encoding="ascii") if args.report
          else contextlib.nullcontext()) as report:
        result = run_suite(config)
        if report is not None:
            report.write("\n".join(result.to_json_lines()) + "\n")
    if args.json:
        _emit(result.to_json())
    else:
        for cell in result.cells:
            status = "PASS" if cell.passed else "FAIL"
            line = (f"{status} n={cell.n} {cell.category} "
                    f"enum={cell.enumerated_count} oracle={cell.oracle_count}")
            if cell.missing:
                line += f" missing={','.join(cell.missing)}"
            if cell.extra:
                line += f" extra={','.join(cell.extra)}"
            print(line)
        for battery in result.batteries:
            status = "PASS" if battery.passed else "FAIL"
            print(f"{status} battery {battery.name} ({battery.detail})")
            for failure in battery.failures:
                print(f"  {failure}")
        summary = result.summary
        print(f"summary: cells={summary['cells']} "
              f"passed={summary['passed']} failed={summary['failed']}")
    return 0 if result.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibquasi",
        description="Quasiperiodicity toolkit for binary words and "
                    "Fibonacci strings")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")
    sets = argparse.ArgumentParser(add_help=False)
    for category in REGISTRY.values():
        sets.add_argument(f"--{category.flag}", dest=category.name,
                          action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="print the Fibonacci word F_n")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--len", action="store_true",
                       help="print only |F_n| (valid for n <= 90)")
    p_gen.set_defaults(handler=_cmd_gen)

    p_an = sub.add_parser("analyze", parents=[common, sets],
                          help="oracle sets for an arbitrary binary word")
    p_an.add_argument("word", nargs="?", default=None)
    p_an.add_argument("--file", help="read the word from a file")
    p_an.add_argument("--force", action="store_true",
                      help="override the input-size and set-size refusals")
    p_an.set_defaults(handler=_cmd_analyze)

    p_enum = sub.add_parser("enum", parents=[common, sets],
                            help="closed-form catalog for F_n")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--force", action="store_true",
                        help="override the catalog size refusal")
    p_enum.set_defaults(handler=_cmd_enum)

    p_occ = sub.add_parser("occurrences", parents=[common],
                           help="start positions of F_m inside F_n")
    p_occ.add_argument("n", type=int)
    p_occ.add_argument("m", type=int)
    p_occ.set_defaults(handler=_cmd_occurrences)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="catalog-versus-oracle verification suite")
    p_ver.add_argument("--min-n", type=int, default=0)
    p_ver.add_argument("--max-n", type=int, default=12)
    p_ver.add_argument("--only", action="append", default=[],
                       metavar="CATEGORY",
                       help="restrict to categories (repeatable, "
                            "comma-separated)")
    p_ver.add_argument("--cap", type=int, metavar="N",
                       help="set every category's oracle cap to N (cells "
                            "above a cap are skipped)")
    p_ver.add_argument("--report", metavar="FILE",
                       help="also write a JSON-lines report file")
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush
        # of the unwritten rest does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
