"""Command-line pipeline: preprocess, train, encode, decode, eval, compare.

One JSON summary line per invocation goes to stdout; human-readable logs
go to stderr. Output files are written atomically (temp file + rename).
Exit codes: 0 success, 1 usage error, 2 data error.

Path flags can also come from the environment (ARTOK_CORPUS, ARTOK_MODEL,
ARTOK_OUT, ARTOK_OUT_DIR, ARTOK_CONFIG, ARTOK_CLITIC_TABLE,
ARTOK_NORMALIZER); explicit flags beat the environment, which beats the
config file (--config or ARTOK_CONFIG). Every config value is checked as
the flag's argument would be, even one whose flag is also given. A
variable or config key for a flag the command does not take is ignored,
so one config file can serve every command.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from .corpus import FilterConfig, IngestStats, filter_stream, load_documents
from .eval import (
    DEFAULT_SIZES,
    REPORT_CSV_HEADER,
    _format_row,
    compare_grid,
    evaluate_model,
    report_csv,
    report_json,
    report_long_csv,
    train_model,
)
from .morphseg import CliticTable
from .normalize import NormalizerConfig, normalize
from .subword import (
    ALL_KINDS,
    atomic_write_text,
    decode,
    encode,
    export_merges_txt,
    export_vocab_txt,
    load_model,
    save_model,
)

log = logging.getLogger("artok")


class DataError(Exception):
    pass


class UsageError(Exception):
    pass


# path options that may come from the environment when the flag is absent
_ENV_DESTS = ("corpus", "model", "out", "out_dir", "config", "clitic_table", "normalizer")


def _required(args, *dests) -> None:
    for dest in dests:
        if getattr(args, dest) in (None, ""):
            flag = "--" + dest.replace("_", "-")
            raise UsageError(
                f"missing required option {flag} "
                f"(flag, ARTOK_{dest.upper()}, or config file)"
            )


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _summary(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")


def _write_lines(args, lines: list[str]) -> None:
    """Write result lines to --output atomically and print a summary, or
    else print the lines themselves."""
    content = "".join(line + "\n" for line in lines)
    if args.output:
        atomic_write_text(args.output, content)
        _summary({"command": args.command, "lines": len(lines), "output": args.output})
    else:
        sys.stdout.write(content)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {path}")
    return p


def _load_normalizer(path: str | None) -> NormalizerConfig:
    if not path:
        return NormalizerConfig()
    with open(_require_file(path, "normalizer config"), encoding="utf-8") as f:
        return NormalizerConfig.from_dict(json.load(f))


def _load_clitic_table(path: str | None) -> CliticTable:
    if not path:
        return CliticTable()
    return CliticTable.load(_require_file(path, "clitic table"))


def _filter_config(args) -> FilterConfig:
    return FilterConfig(
        min_chars=args.min_chars,
        min_words=args.min_words,
        min_arabic_ratio=args.min_arabic_ratio,
        max_mean_line_words=args.max_mean_line_words,
    )


def _read_corpus(args) -> list:
    path = _require_file(args.corpus, "corpus")
    docs = load_documents(path, args.format)
    if args.no_filter:
        return list(docs)
    return list(filter_stream(docs, _filter_config(args)))


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", default=None, help="input corpus file")
    p.add_argument("--format", choices=("jsonl", "plain_lines"), default="jsonl",
                   help="corpus file format")
    p.add_argument("--no-filter", action="store_true",
                   help="skip document filtering (corpus already filtered)")
    _add_filter_flags(p)


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-chars", type=int, default=50, help="filter: minimum characters")
    p.add_argument("--min-words", type=int, default=5, help="filter: minimum words")
    p.add_argument("--min-arabic-ratio", type=float, default=0.5,
                   help="filter: minimum Arabic letter ratio")
    p.add_argument("--max-mean-line-words", type=float, default=None,
                   help="filter: reject docs whose mean words-per-line falls below this")


# Settings several subcommands read; each command takes only the ones it reads.
_SHARED_FLAGS = {
    "--normalizer": dict(default=None, help="JSON file with normalizer settings"),
    "--clitic-table": dict(default=None, help="JSON clitic table file"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="artok", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # command name -> its parser, for main

    def add_command(name: str, help_text: str, *shared: str) -> _Parser:
        # flags match by full name only, so a new flag never changes what
        # an existing prefix means
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", default=None, help="JSON config file; explicit flags win")
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add_command("preprocess", "filter a raw corpus into clean JSONL", "--normalizer")
    p.add_argument("--input", required=True, help="raw corpus file")
    p.add_argument("--output", required=True, help="filtered JSONL output path")
    p.add_argument("--format", choices=("jsonl", "plain_lines"), default="jsonl")
    p.add_argument("--normalize", action="store_true",
                   help="also apply text normalization to kept documents "
                        "(implied by --normalizer)")
    _add_filter_flags(p)

    p = add_command("train", "train one tokenizer", "--normalizer", "--clitic-table")
    _add_corpus_flags(p)
    p.add_argument("--kind", required=True, choices=ALL_KINDS)
    p.add_argument("--vocab", required=True, type=int, help="vocabulary size")
    p.add_argument("--out", default=None, help="output directory for the model bundle")

    p = add_command("encode", "tokenize text with a trained model")
    p.add_argument("--model", default=None, help="model bundle path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", help="inline text to encode")
    src.add_argument("--input", help="file with one text per line")
    p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = add_command("decode", "turn token ids back into text")
    p.add_argument("--model", default=None, help="model bundle path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ids", help="inline comma/space-separated token ids")
    src.add_argument("--input", help="file with one id list per line (JSON or comma-separated)")
    p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = add_command("eval", "compute metrics for one model on a corpus")
    p.add_argument("--model", default=None, help="model bundle path")
    _add_corpus_flags(p)
    p.add_argument("--output", default=None, help="also write a one-row CSV here")

    p = add_command("compare", "train and evaluate the full kind x size grid",
                    "--normalizer", "--clitic-table")
    _add_corpus_flags(p)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes that train the kinds side by side")
    p.add_argument("--kinds", default=",".join(ALL_KINDS),
                   help="comma-separated tokenizer kinds")
    p.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
                   help="comma-separated vocabulary sizes")
    p.add_argument("--out-dir", default=None, help="directory for reports and model cache")

    p = add_command("dump-clitics", "write the active clitic table as JSON", "--clitic-table")
    p.add_argument("--output", default=None, help="output file (default: stdout)")

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config value checked as argparse checks the flag's argument: a
    JSON boolean for a switch; else a string, or a number for a numeric
    flag, that the flag's type converts and its choices allow."""
    ok = isinstance(value, bool) if action.nargs == 0 else (
        isinstance(value, str) or action.type in (int, float) and type(value) in (int, float))
    if ok and action.type:
        try:
            value = action.type(str(value))
        except ValueError:
            ok = False
    if not ok or action.choices is not None and value not in action.choices:
        raise DataError(f"config key {key!r}: {value!r} is not a valid "
                        f"{action.option_strings[0]} value")
    return value


def _command_defaults(args, command: argparse.ArgumentParser) -> dict:
    """The command's defaults: each JSON config value checked by
    `_config_value`, with the ARTOK_* paths on top. The config file is
    --config, else ARTOK_CONFIG. Keys and variables for flags the
    command does not take are ignored."""
    flags = {a.dest: a for a in command._actions if a.option_strings and hasattr(args, a.dest)}
    env = {dest: value for dest in _ENV_DESTS
           if dest in flags and (value := os.environ.get("ARTOK_" + dest.upper()))}
    path = args.config or env.get("config")
    if not path:
        return env
    with open(_require_file(path, "config file"), encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise DataError("config file must hold a JSON object")
    defaults = {dest: _config_value(flags[dest], key, value) for key, value in cfg.items()
                if (dest := key.replace("-", "_")) in flags}
    return {**defaults, **env}


# ---------------------------------------------------------------------------
# Commands


def _cmd_preprocess(args) -> int:
    stats = IngestStats()
    path = _require_file(args.input, "input corpus")
    normalizer = _load_normalizer(args.normalizer)
    lines = []
    docs = load_documents(path, args.format, stats)
    for doc in filter_stream(docs, _filter_config(args), stats):
        text = normalize(doc.text, normalizer) if args.normalize or args.normalizer else doc.text
        lines.append(json.dumps(
            {"id": doc.id, "text": text, "source": doc.source}, ensure_ascii=False))
    atomic_write_text(args.output, "".join(line + "\n" for line in lines))
    log.info("preprocess: kept %d of %d documents", stats.kept, stats.read)
    _summary({"command": "preprocess", "output": args.output, **stats.summary()})
    return 0


def _cmd_train(args) -> int:
    _required(args, "corpus", "out")
    normalizer = _load_normalizer(args.normalizer)
    table = _load_clitic_table(args.clitic_table)
    docs = _read_corpus(args)
    if not docs:
        raise DataError("no documents left after filtering")
    started = time.perf_counter()
    model = train_model(docs, args.kind, args.vocab, normalizer, table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    export_vocab_txt(model, out / "vocab.txt")
    export_merges_txt(model, out / "merges.txt")
    log.info("trained %s @ %d in %.1fs (%d merges)",
             args.kind, model.vocab_size, time.perf_counter() - started, len(model.merges))
    _summary({
        "command": "train",
        "kind": args.kind,
        "vocab_size": model.vocab_size,
        "merges": len(model.merges),
        "documents": len(docs),
        "model": str(out / "model.json"),
    })
    return 0


def _cmd_encode(args) -> int:
    _required(args, "model")
    model = load_model(_require_file(args.model, "model bundle"))

    def encode_line(text: str) -> str:
        enc = encode(model, text)
        return json.dumps(
            {"ids": enc.ids, "tokens": enc.tokens, "word_count": enc.word_count},
            ensure_ascii=False,
        )

    if args.text is not None:
        texts = [args.text]
    else:
        with open(_require_file(args.input, "input file"), encoding="utf-8") as f:
            texts = [line.rstrip("\n") for line in f]
    _write_lines(args, [encode_line(text) for text in texts])
    return 0


def _parse_ids(raw: str) -> list[int]:
    """A JSON list of ids, an object with an "ids" list (a line of
    `artok encode` output), or ids separated by commas or spaces. Every
    id must be a JSON integer: floats, booleans, null, nested lists and
    an object without an "ids" list raise ValueError."""
    raw = raw.strip()
    if not raw.startswith(("[", "{")):
        raw = "[" + ",".join(raw.replace(",", " ").split()) + "]"
    data = json.loads(raw)
    if isinstance(data, dict):
        data = data.get("ids")
    if not isinstance(data, list) or not all(type(i) is int for i in data):
        raise ValueError("ids must be a list of JSON integers")
    return data


def _cmd_decode(args) -> int:
    _required(args, "model")
    model = load_model(_require_file(args.model, "model bundle"))

    def decode_line(raw: str) -> str:
        try:
            ids = _parse_ids(raw)
            text = decode(model, ids)
        except ValueError as exc:
            raise DataError(f"bad id list {raw!r}: {exc}") from exc
        return json.dumps({"text": text}, ensure_ascii=False)

    if args.ids is not None:
        raws = [args.ids]
    else:
        with open(_require_file(args.input, "input file"), encoding="utf-8") as f:
            raws = [line for line in f if line.strip()]
    _write_lines(args, [decode_line(raw) for raw in raws])
    return 0


def _cmd_eval(args) -> int:
    _required(args, "model", "corpus")
    model = load_model(_require_file(args.model, "model bundle"))
    docs = _read_corpus(args)
    if not docs:
        raise DataError("no documents left after filtering")
    row = evaluate_model(model, docs)
    if args.output:
        atomic_write_text(args.output, REPORT_CSV_HEADER + "\n" + _format_row(row) + "\n")
    _summary({"command": "eval", **row.__dict__})
    return 0


def _cmd_compare(args) -> int:
    _required(args, "corpus", "out_dir")
    normalizer = _load_normalizer(args.normalizer)
    table = _load_clitic_table(args.clitic_table)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise DataError(f"bad --sizes value: {args.sizes!r}") from exc
    docs = _read_corpus(args)
    if len(docs) < 2:
        raise DataError("need at least 2 filtered documents for a held-out split")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = compare_grid(
            docs,
            kinds=kinds,
            sizes=sizes,
            normalizer=normalizer,
            clitic_table=table,
            corpus_id=str(args.corpus),
            workers=args.threads,
            models_dir=out_dir / "models",
        )
    except RuntimeError as exc:
        # a cell that rejects its inputs (a size too small for the kind,
        # a malformed cached bundle) is a data error, not a crash
        if isinstance(exc.__cause__, ValueError):
            raise DataError(str(exc)) from exc
        raise
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    long_path = out_dir / "ratio_long.csv"
    atomic_write_text(csv_path, report_csv(report))
    atomic_write_text(json_path, report_json(report))
    atomic_write_text(long_path, report_long_csv(report))
    _summary({
        "command": "compare",
        "rows": len(report.rows),
        "report_csv": str(csv_path),
        "report_json": str(json_path),
        "ratio_long_csv": str(long_path),
        "spread": report.spread,
    })
    return 0


def _cmd_dump_clitics(args) -> int:
    table = _load_clitic_table(args.clitic_table)
    content = json.dumps(table.to_dict(), ensure_ascii=False, indent=2) + "\n"
    if args.output:
        atomic_write_text(args.output, content)
        _summary({"command": "dump-clitics", "output": args.output})
    else:
        sys.stdout.write(content)
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "dump-clitics": _cmd_dump_clitics,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # config, then environment, become defaults under the explicit flags
        command = parser.commands[args.command]
        command.set_defaults(**_command_defaults(args, command))
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"artok {args.command}: error: {exc}\n")
        return 1
    except (DataError, FileNotFoundError, ValueError) as exc:
        # ModelFormatError and json.JSONDecodeError are ValueErrors
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
