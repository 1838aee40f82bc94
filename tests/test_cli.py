import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artok
from artok.cli import main
from artok.morphseg import CliticTable
from artok.subword import load_model
from artok.synth import build_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    build_corpus(path, target_bytes=60_000, seed=5, n_stems=400)
    return path


@pytest.fixture(scope="module")
def wordlevel_model(corpus_path, tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("model") / "m"
    assert main(["train", "--corpus", str(corpus_path), "--kind", "wordlevel",
                 "--vocab", "300", "--out", str(model_dir)]) == 0
    return model_dir / "model.json"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_dump_clitics_stdout(capsys):
    rc, out, _ = run(capsys, "dump-clitics")
    assert rc == 0
    table = CliticTable.from_dict(json.loads(out))
    assert table == CliticTable()


def test_dump_clitics_file(tmp_path, capsys):
    target = tmp_path / "clitics.json"
    rc, out, _ = run(capsys, "dump-clitics", "--output", str(target))
    assert rc == 0
    assert json.loads(out)["output"] == str(target)
    assert CliticTable.load(target) == CliticTable()


def test_preprocess_summary_and_output(tmp_path, corpus_path, capsys):
    out_path = tmp_path / "clean.jsonl"
    rc, out, _ = run(capsys, "preprocess", "--input", str(corpus_path),
                     "--output", str(out_path))
    assert rc == 0
    summary = json.loads(out)
    assert summary["command"] == "preprocess"
    assert summary["kept"] > 0
    assert summary["read"] >= summary["kept"]
    assert sum(1 for _ in out_path.open()) == summary["kept"]
    first = json.loads(out_path.open().readline())
    assert set(first) == {"id", "text", "source"}


def test_preprocess_normalize_flag(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    text = "<p>كتاب جديد عن تاريخ المدينة الكبيرة وفيها مكتبات كثيرة جدا</p>"
    raw.write_text(json.dumps({"id": "1", "text": text}, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    out_path = tmp_path / "clean.jsonl"
    rc, _, _ = run(capsys, "preprocess", "--input", str(raw), "--output", str(out_path),
                   "--normalize")
    assert rc == 0
    assert "<p>" not in out_path.read_text(encoding="utf-8")


def test_preprocess_normalizer_implies_normalization(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    text = "<p>كتاب جديد عن تاريخ المدينة الكبيرة وفيها ١٢ مكتبة كثيرة جدا</p>"
    raw.write_text(json.dumps({"id": "1", "text": text}, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    normalizer = tmp_path / "n.json"
    normalizer.write_text(json.dumps({"map_digits": False}), encoding="utf-8")
    out_path = tmp_path / "clean.jsonl"
    rc, _, _ = run(capsys, "preprocess", "--input", str(raw), "--output", str(out_path),
                   "--normalizer", str(normalizer))
    assert rc == 0
    kept = json.loads(out_path.read_text(encoding="utf-8"))["text"]
    assert "<p>" not in kept and "١٢" in kept


def test_train_encode_decode_pipeline(tmp_path, corpus_path, capsys):
    model_dir = tmp_path / "bpe"
    rc, out, _ = run(capsys, "train", "--corpus", str(corpus_path), "--kind", "bpe",
                     "--vocab", "500", "--out", str(model_dir))
    assert rc == 0
    summary = json.loads(out)
    assert summary["vocab_size"] == 500
    assert (model_dir / "model.json").is_file()
    assert (model_dir / "vocab.txt").is_file()
    assert (model_dir / "merges.txt").is_file()

    rc, out, _ = run(capsys, "encode", "--model", str(model_dir / "model.json"),
                     "--text", "كتاب جديد")
    assert rc == 0
    enc = json.loads(out)
    assert enc["word_count"] == 2
    assert len(enc["ids"]) == len(enc["tokens"])

    ids_arg = ",".join(str(i) for i in enc["ids"])
    rc, out, _ = run(capsys, "decode", "--model", str(model_dir / "model.json"),
                     "--ids", ids_arg)
    assert rc == 0
    assert json.loads(out)["text"] == "كتاب جديد"


def test_train_morph_kind_embeds_table(tmp_path, corpus_path, capsys):
    model_dir = tmp_path / "morph"
    rc, out, _ = run(capsys, "train", "--corpus", str(corpus_path), "--kind", "bpe_morph",
                     "--vocab", "400", "--out", str(model_dir))
    assert rc == 0
    model = load_model(model_dir / "model.json")
    assert model.kind == "bpe_morph"
    assert model.clitic_table == CliticTable()


def test_encode_decode_file_io(tmp_path, corpus_path, capsys):
    model_dir = tmp_path / "m"
    run(capsys, "train", "--corpus", str(corpus_path), "--kind", "wordlevel",
        "--vocab", "300", "--out", str(model_dir))
    texts = tmp_path / "texts.txt"
    texts.write_text("كتاب جديد\nخبر اليوم\n", encoding="utf-8")
    enc_path = tmp_path / "enc.jsonl"
    rc, out, _ = run(capsys, "encode", "--model", str(model_dir / "model.json"),
                     "--input", str(texts), "--output", str(enc_path))
    assert rc == 0
    assert json.loads(out)["lines"] == 2
    rc, out, _ = run(capsys, "decode", "--model", str(model_dir / "model.json"),
                     "--input", str(enc_path))
    assert rc == 0
    assert len(out.strip().split("\n")) == 2


def test_decode_rejects_ids_that_are_not_json_integers(tmp_path, corpus_path, capsys):
    model_dir = tmp_path / "m"
    run(capsys, "train", "--corpus", str(corpus_path), "--kind", "wordlevel",
        "--vocab", "300", "--out", str(model_dir))
    for raw in ("[[5]]", '{"ids": null}', "[5.7, true]", "[true]", "5 x", "1e2",
                '{"text": "x"}', "{}"):
        rc, out, _ = run(capsys, "decode", "--model", str(model_dir / "model.json"),
                         "--ids", raw)
        assert rc == 2, raw
        assert out == "", raw


def test_eval_command(tmp_path, corpus_path, capsys):
    model_dir = tmp_path / "m"
    run(capsys, "train", "--corpus", str(corpus_path), "--kind", "wordlevel",
        "--vocab", "300", "--out", str(model_dir))
    csv_path = tmp_path / "row.csv"
    rc, out, _ = run(capsys, "eval", "--model", str(model_dir / "model.json"),
                     "--corpus", str(corpus_path), "--output", str(csv_path))
    assert rc == 0
    row = json.loads(out)
    assert row["token_to_word"] == 1.0
    assert csv_path.read_text(encoding="utf-8").startswith("kind,vocab_size,")


def test_compare_command(tmp_path, corpus_path, capsys):
    out_dir = tmp_path / "grid"
    rc, out, _ = run(capsys, "compare", "--corpus", str(corpus_path),
                     "--kinds", "bpe,wordlevel", "--sizes", "200,300",
                     "--out-dir", str(out_dir))
    assert rc == 0
    summary = json.loads(out)
    assert summary["rows"] == 4
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert len(report["rows"]) == 4
    csv_lines = (out_dir / "report.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(csv_lines) == 5
    assert (out_dir / "ratio_long.csv").is_file()
    assert sorted(p.name for p in (out_dir / "models").glob("*.json")) == [
        "bpe_200.json", "bpe_300.json", "wordlevel_200.json", "wordlevel_300.json",
    ]


def test_compare_size_a_kind_cannot_train_is_a_data_error(tmp_path, corpus_path, capsys,
                                                         caplog):
    rc, out, _ = run(capsys, "compare", "--corpus", str(corpus_path), "--kinds", "bpe",
                     "--sizes", "1", "--out-dir", str(tmp_path / "grid"))
    assert rc == 2
    assert out == ""
    assert "kind=bpe" in caplog.text


def test_compare_in_worker_processes_size_a_kind_cannot_train_is_a_data_error(
        tmp_path, corpus_path, capsys, caplog):
    rc, out, _ = run(capsys, "compare", "--corpus", str(corpus_path), "--threads", "2",
                     "--sizes", "1", "--out-dir", str(tmp_path / "grid"))
    assert rc == 2
    assert out == ""
    assert "kind=bpe" in caplog.text
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flag, value, message", [
    ("--kinds", "bpe,bpe", "tokenizer kind 'bpe' is given twice"),
    ("--sizes", "3000,3000", "vocab size 3000 is given twice"),
], ids=["repeated-kind", "repeated-size"])
def test_compare_with_a_repeated_kind_or_size_is_a_data_error(tmp_path, corpus_path, capsys,
                                                             caplog, flag, value, message):
    rc, out, err = run(capsys, "compare", "--corpus", str(corpus_path), flag, value,
                       "--out-dir", str(tmp_path / "grid"))
    assert rc == 2
    assert out == "" and "Traceback" not in err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [message]


def test_config_file_merges_under_flags(tmp_path, corpus_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vocab": 300, "kind": "wordlevel"}), encoding="utf-8")
    model_dir = tmp_path / "m"
    rc, out, _ = run(capsys, "train", "--corpus", str(corpus_path),
                     "--kind", "bpe", "--vocab", "250",
                     "--out", str(model_dir), "--config", str(cfg))
    assert rc == 0
    summary = json.loads(out)
    # explicit flags beat config values
    assert summary["kind"] == "bpe"
    assert summary["vocab_size"] == 250


def test_config_file_supplies_missing_values(tmp_path, corpus_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vocab": 260}), encoding="utf-8")
    model_dir = tmp_path / "m2"
    # --vocab is required by the parser, so config supplies optional flags only
    rc, out, _ = run(capsys, "train", "--corpus", str(corpus_path),
                     "--kind", "wordlevel", "--vocab", "260",
                     "--out", str(model_dir), "--config", str(cfg))
    assert rc == 0


@pytest.mark.parametrize("command, cfg", [
    ("train", {"min_chars": 1.5}),
    ("train", {"normalizer": {"map_digits": False}}),
    ("train", {"format": "csv"}),
    ("train", {"no_filter": "yes"}),
    ("compare", {"threads": "two"}),
    ("compare", {"min_arabic_ratio": True}),
    ("compare", {"threads": 1.5}),
    # checked even when the flag is also given, though the flag wins
    ("train --min-chars 50", {"min_chars": 1.5}),
])
def test_config_value_argparse_would_reject_is_a_data_error(
        command, cfg, tmp_path, corpus_path, capsys, caplog):
    command, *explicit = command.split()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = ["--out", str(tmp_path / "m")] if command == "train" else [
        "--out-dir", str(tmp_path / "grid"), "--kinds", "wordlevel", "--sizes", "200"]
    kind = ["--kind", "wordlevel", "--vocab", "200"] if command == "train" else []
    rc, out, _ = run(capsys, command, "--corpus", str(corpus_path), *kind, *out, *explicit,
                     "--config", str(path))
    assert rc == 2
    assert out == ""
    assert "config key" in caplog.text


def test_config_values_convert_like_flag_arguments(tmp_path, corpus_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"min_chars": "50", "min_arabic_ratio": 0, "no_filter": False}),
                    encoding="utf-8")
    rc, out, _ = run(capsys, "train", "--corpus", str(corpus_path), "--kind", "wordlevel",
                     "--vocab", "200", "--out", str(tmp_path / "m"), "--config", str(path))
    assert rc == 0
    assert json.loads(out)["vocab_size"] == 200


def test_shared_config_and_env_keys_a_command_lacks_are_ignored(
        tmp_path, wordlevel_model, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"normalizer": "missing.json", "clitic_table": "missing.json",
                               "threads": 2}), encoding="utf-8")
    monkeypatch.setenv("ARTOK_NORMALIZER", str(tmp_path / "missing.json"))
    rc, out, _ = run(capsys, "encode", "--model", str(wordlevel_model), "--text", "كتاب",
                     "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["word_count"] == 1


def test_missing_input_exits_2(capsys):
    rc, _, err = run(capsys, "encode", "--model", "/nonexistent/m.json", "--text", "x")
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (("encode", "--model", "{path}", "--text", "كتاب"), "model bundle must be a JSON object"),
    (("preprocess", "--input", "{corpus}", "--output", "{out}", "--normalizer", "{path}"),
     "normalizer config must be a JSON object"),
    (("dump-clitics", "--clitic-table", "{path}"), "clitic table must be a JSON object"),
], ids=["model", "normalizer", "clitic-table"])
def test_a_json_file_that_is_no_object_is_a_data_error(tmp_path, corpus_path, capsys, caplog,
                                                       argv, message):
    path = tmp_path / "array.json"
    path.write_text("[]", encoding="utf-8")
    rc, out, _ = run(capsys, *(arg.format(path=path, corpus=corpus_path,
                                          out=tmp_path / "clean.jsonl") for arg in argv))
    assert rc == 2
    assert out == ""
    assert message in caplog.text


@pytest.mark.parametrize("route", ["normalizer", "model"])
def test_a_repeat_cap_above_the_ceiling_is_a_data_error(tmp_path, corpus_path, wordlevel_model,
                                                       capsys, caplog, route):
    if route == "normalizer":
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"repeat_cap": 200_000}), encoding="utf-8")
        argv = ("preprocess", "--input", str(corpus_path), "--output",
                str(tmp_path / "clean.jsonl"), "--normalizer", str(path))
    else:
        data = json.loads(wordlevel_model.read_text(encoding="utf-8"))
        del data["checksum"]
        data["normalizer"]["repeat_cap"] = 200_000
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        argv = ("encode", "--model", str(path), "--text", "كتاب")
    rc, out, _ = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "repeat_cap must be between 1 and 1000, not 200000" in caplog.text


@pytest.mark.parametrize("flag, value", [("--max-mean-line-words", "nan"),
                                         ("--min-words", "-1")])
def test_a_bad_filter_threshold_is_a_data_error(tmp_path, corpus_path, capsys, caplog,
                                                flag, value):
    rc, out, err = run(capsys, "preprocess", "--input", str(corpus_path), "--output",
                       str(tmp_path / "clean.jsonl"), flag, value)
    assert rc == 2
    assert out == "" and "Traceback" not in err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and flag[2:].replace("-", "_") + " must be" in errors[0]


def test_a_bundle_whose_vocab_is_no_array_is_a_data_error(tmp_path, wordlevel_model, capsys,
                                                         caplog):
    data = json.loads(wordlevel_model.read_text(encoding="utf-8"))
    del data["checksum"]
    data["vocab"] = "".join(data["vocab"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    rc, out, err = run(capsys, "decode", "--model", str(path), "--ids", "[5]")
    assert rc == 2
    assert out == "" and "Traceback" not in err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["model bundle field 'vocab' must be a JSON array, not a string"]


def test_a_clitic_table_with_a_string_field_is_a_data_error(tmp_path, capsys, caplog):
    path = tmp_path / "clitics.json"
    path.write_text(json.dumps({"proclitics": "وال", "enclitics": "ها"}, ensure_ascii=False),
                    encoding="utf-8")
    rc, out, _ = run(capsys, "dump-clitics", "--clitic-table", str(path))
    assert rc == 2
    assert out == ""
    assert "clitic table field 'proclitics' must be a JSON array" in caplog.text


@pytest.mark.parametrize("table, message", [
    ({"proclitics": []}, "clitic table field 'enclitics' is missing"),
    ({"proclitics": [["و", True, 1]], "enclitics": []}, "proclitic must be a string or a"),
    ({"proclitics": [], "enclitics": [5]}, "enclitic must be a string, not 5"),
], ids=["missing-field", "triple", "int-enclitic"])
def test_a_malformed_clitic_table_is_a_data_error(tmp_path, capsys, caplog, table, message):
    path = tmp_path / "clitics.json"
    path.write_text(json.dumps(table, ensure_ascii=False), encoding="utf-8")
    rc, out, err = run(capsys, "dump-clitics", "--clitic-table", str(path))
    assert rc == 2
    assert out == "" and "Traceback" not in err
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and message in errors[0]


def test_env_var_supplies_model_path(tmp_path, corpus_path, capsys, monkeypatch):
    model_dir = tmp_path / "m"
    run(capsys, "train", "--corpus", str(corpus_path), "--kind", "wordlevel",
        "--vocab", "300", "--out", str(model_dir))
    monkeypatch.setenv("ARTOK_MODEL", str(model_dir / "model.json"))
    rc, out, _ = run(capsys, "encode", "--text", "كتاب")
    assert rc == 0
    assert json.loads(out)["word_count"] == 1


def test_env_beats_the_config_file_it_may_name_and_flags_beat_both(
        tmp_path, wordlevel_model, capsys, monkeypatch):
    missing, output = tmp_path / "missing.json", tmp_path / "out.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(missing), "output": str(output)}), encoding="utf-8")
    monkeypatch.setenv("ARTOK_CONFIG", str(cfg))
    monkeypatch.setenv("ARTOK_MODEL", str(wordlevel_model))
    rc, out, _ = run(capsys, "encode", "--text", "كتاب")
    assert rc == 0
    assert json.loads(out)["output"] == str(output)
    assert json.loads(output.read_text(encoding="utf-8"))["word_count"] == 1
    rc, out, _ = run(capsys, "encode", "--text", "كتاب", "--model", str(missing))
    assert rc == 2 and out == ""


def test_missing_required_path_exits_1(capsys):
    rc, _, err = run(capsys, "train", "--kind", "bpe", "--vocab", "100")
    assert rc == 1
    assert "--corpus" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--kind", "not-a-kind"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, flag", [
    (["encode", "--model", "{model}", "--text", "x", "--normalizer", "{file}"], "--normalizer"),
    (["decode", "--model", "{model}", "--ids", "7", "--threads", "2"], "--threads"),
    (["eval", "--model", "{model}", "--corpus", "{corpus}", "--clitic-table", "{file}"],
     "--clitic-table"),
    (["preprocess", "--input", "{corpus}", "--output", "{out}", "--threads", "2"],
     "--threads"),
    (["train", "--corpus", "{corpus}", "--kind", "bpe", "--vocab", "200",
      "--out", "{out}", "--seed", "0"], "--seed"),
    (["train", "--corpus", "{corpus}", "--kind", "bpe", "--vocab", "200",
      "--out", "{out}", "--threads", "2"], "--threads"),
])
def test_flag_the_command_does_not_read_is_a_usage_error(
        argv, flag, tmp_path, corpus_path, wordlevel_model, capsys):
    paths = {"model": wordlevel_model, "corpus": corpus_path, "out": tmp_path / "out",
             "file": tmp_path / "missing.json"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err


def test_abbreviated_flag_is_a_usage_error(tmp_path, corpus_path, capsys):
    # flags match by full name only, so adding a flag never changes what an
    # existing prefix such as --min-ch means
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"min_chars": 99}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "grid"),
              "--kinds", "wordlevel", "--sizes", "200", "--config", str(cfg),
              "--min-ch", "7"])
    assert exc.value.code == 1
    assert "--min-ch" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_lists_defaults(capsys):
    for cmd in ("preprocess", "train", "encode", "decode", "eval", "compare",
                "dump-clitics"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out


def test_train_determinism_same_inputs(tmp_path, corpus_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        rc, _, _ = run(capsys, "train", "--corpus", str(corpus_path), "--kind", "bpe",
                       "--vocab", "400", "--out", str(d))
        assert rc == 0
    assert (a_dir / "model.json").read_bytes() == (b_dir / "model.json").read_bytes()
    assert (a_dir / "vocab.txt").read_bytes() == (b_dir / "vocab.txt").read_bytes()
    assert (a_dir / "merges.txt").read_bytes() == (b_dir / "merges.txt").read_bytes()


def test_python_m_artok_train_in_worker_processes(tmp_path, corpus_path):
    # `compare` trains its kinds in spawned workers. artok/__main__.py has
    # no __main__ guard; spawned workers never re-run a package's
    # __main__ module, so it needs none.
    src = str(Path(artok.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for threads in ("2", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "artok", "compare", "--corpus", str(corpus_path),
             "--kinds", "bpe,wordpiece", "--sizes", "200,400",
             "--out-dir", str(tmp_path / threads), "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    bundles = sorted(p.name for p in (tmp_path / "2" / "models").glob("*.json"))
    assert bundles == ["bpe_200.json", "bpe_400.json", "wordpiece_200.json",
                       "wordpiece_400.json"]
    for name in bundles:
        assert ((tmp_path / "2" / "models" / name).read_bytes()
                == (tmp_path / "1" / "models" / name).read_bytes())
