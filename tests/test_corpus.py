"""Tokenizer and parser tests for the three input formats plus interchange."""

from __future__ import annotations

import dataclasses
import json
import logging
import random
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domainport import corpus as corpus_module
from domainport.corpus import (
    SPLIT_MODES,
    Corpus,
    TokenizerConfig,
    parse_conll,
    parse_interchange,
    parse_jsonl_pairs,
    parse_plaintext,
    to_interchange,
    tokenize,
)
from domainport.errors import ConfigError, ParseError
from domainport.hashing import dump_json, fields_from_dict


# ---------------------------------------------------------------- tokenize


def test_tokenize_default_lowercases_and_strips_punctuation():
    assert tokenize("Hello, world!") == ["hello", "world"]


def test_tokenize_keep_punctuation():
    cfg = TokenizerConfig(strip_punctuation=False)
    assert tokenize("Hello, world!", cfg) == ["hello", ",", "world", "!"]


def test_tokenize_case_preserved_when_disabled():
    cfg = TokenizerConfig(lowercase=False)
    assert tokenize("Hello World", cfg) == ["Hello", "World"]


def test_tokenize_whitespace_mode_strips_token_edges():
    cfg = TokenizerConfig(split_mode="whitespace")
    assert tokenize("Hello, world!", cfg) == ["hello", "world"]
    keep = TokenizerConfig(split_mode="whitespace", strip_punctuation=False)
    assert tokenize("Hello, world!", keep) == ["hello,", "world!"]


def test_tokenize_unicode_words():
    assert tokenize("naïve café") == ["naïve", "café"]


@given(st.text(max_size=80))
def test_tokenize_never_emits_empty_tokens(text):
    for cfg in (TokenizerConfig(), TokenizerConfig(split_mode="whitespace")):
        tokens = tokenize(text, cfg)
        assert all(tokens)
        # lowercase mode leaves no uppercase characters behind
        assert all(t == t.lower() for t in tokens)


@given(st.text(max_size=80))
def test_tokenize_is_deterministic(text):
    cfg = TokenizerConfig()
    assert tokenize(text, cfg) == tokenize(text, cfg)


def reference_tokenize(text, cfg):
    """The two-pass tokenizer ``tokenize`` replaced: every token, then drop punctuation."""
    if cfg.split_mode == "whitespace":
        parts = text.split()
        if cfg.strip_punctuation:
            parts = [re.sub(r"^\W+|\W+$", "", p) for p in parts]
    else:
        parts = re.findall(r"\w+|[^\w\s]", text)
        if cfg.strip_punctuation:
            parts = [p for p in parts if re.match(r"\w", p)]
    if cfg.lowercase:
        parts = [p.lower() for p in parts]
    return [p for p in parts if p]


EVERY_TOKENIZER = [
    TokenizerConfig(split_mode=mode, strip_punctuation=strip, lowercase=lower)
    for mode in SPLIT_MODES
    for strip in (True, False)
    for lower in (True, False)
]
# ASCII, punctuation, letters whose case mapping changes length or depends on
# position (İ lowers to i + U+0307, ß, titlecase ǅ, final sigma), a combining dot, CJK
TOKEN_ALPHABET = string.ascii_letters + string.digits + string.punctuation + " \t" + "éİßǅΣς\u0307東京中文"


# ASCII text goes through the byte table or is lowered in one pass, any other text token by token:
# every path must match the reference
@settings(max_examples=300, derandomize=True)
@given(st.one_of(st.text(alphabet=string.printable, max_size=80), st.text(alphabet=TOKEN_ALPHABET, max_size=80)))
@example("İstanbul STRASSE Straße ǅemal ΣΟΦΟΣ ς x\u0307y 東京, naïve!")
@example("It's A-OK, MR. Smith!\tSee: HTTP/2 (RFC 7540) -- x_Y_z __init__ ...")
@example("İSTANBUL")
@example("STRASSE ß")
@example("ǅEMAL ǄX")
@example("X\u0307Y ABC")
@example("".join(map(chr, range(128))))  # every ASCII code point: _, digits, \x0b, \x0c, \x1c-\x1f, \x7f
@example("Plain ASCII_words 42, then Wörter: STRASSE/Straße, İstanbul & 東京x2 -- done.")
def test_tokenize_matches_the_two_pass_reference(text):
    for cfg in EVERY_TOKENIZER:
        assert tokenize(text, cfg) == reference_tokenize(text, cfg)


def reference_documents(units, cfg):
    """The documents and skip count of calling ``tokenize`` on each unit text alone."""
    documents, skipped = [], 0
    for unit in units:
        tokens = tokenize(unit, cfg)
        if tokens:
            documents.append(tuple(tokens))
        else:
            skipped += 1
    return documents, skipped


def parsed_and_skipped(parse):
    """``parse()``'s corpus and the count of skipped units it logs, 0 when it logs none."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("domainport.corpus")
    logger.addHandler(handler)
    try:
        corpus = parse()
    finally:
        logger.removeHandler(handler)
    return corpus, sum(r.args[1] for r in records)


def assert_parses_as(parse, reference):
    """``parse()`` gives ``reference()``'s documents and logs its skip count, or raises its error or an empty corpus."""
    try:
        documents, skipped = reference()
    except ParseError as exc:
        with pytest.raises(ParseError) as excinfo:
            parse()
        assert str(excinfo.value) == str(exc)
        return
    if not documents:
        with pytest.raises(ParseError, match="empty corpus"):
            parse()
        return
    corpus, logged = parsed_and_skipped(parse)
    assert corpus.documents == tuple(documents)
    assert logged == skipped


# every line boundary str.splitlines knows
SPLITLINES_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_ascii_units = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " \t", max_size=20)
_units = st.one_of(_ascii_units, st.text(alphabet=TOKEN_ALPHABET, max_size=20))


# a few characters per chunk: units fill and straddle chunks, and ASCII and other chunks alternate
@settings(max_examples=200, derandomize=True)
@given(st.lists(st.tuples(_units, st.sampled_from(SPLITLINES_SEPARATORS)), min_size=1, max_size=12),
       st.integers(1, 24))
@example([("ASCII words, here", "\r\n"), ("İstanbul", "\u2028"), ("!!", "\x85"), ("x_Y 42", "\x1c"), ("z", "\x0b")], 5)
@example([("Straße", "\n"), ("", "\n"), ("plain ASCII", "\n"), ("  ", "\n"), ("MORE", "\n")], 1)
def test_chunked_tokenizing_matches_tokenizing_each_unit(pieces, chunk_chars):
    text = "".join(unit + separator for unit, separator in pieces)
    units = {
        "line": [ln for ln in text.splitlines() if ln.strip()],
        "paragraph": [seg for seg in re.split(r"\n\s*\n", text) if seg.strip()],
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "TOKENIZE_CHUNK_CHARS", chunk_chars)
        for unit, unit_texts in units.items():
            for cfg in EVERY_TOKENIZER:
                assert_parses_as(lambda: parse_plaintext(text, cfg, unit=unit),
                                 lambda: reference_documents(unit_texts, cfg))


def reference_parse_conll_documents(text, cfg):
    """``parse_conll``'s documents and skip count from the per-token loop it replaced."""
    raw_docs, current = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        first = (line.split("\t", 1)[0] if "\t" in line else line.split(None, 1)[0]).strip()
        if not first:
            raise ParseError("malformed line: empty token column", line=line_no, source="<stream>")
        if first == "-DOCSTART-":
            raw_docs.append(current)
            current = []
        else:
            current.append(first)
    raw_docs.append(current)
    documents, skipped = [], 0
    for raw_tokens in filter(None, raw_docs):
        tokens = []
        for raw in raw_tokens:
            tokens.extend(reference_tokenize(raw, cfg))
        if tokens:
            documents.append(tuple(tokens))
        else:
            skipped += 1
    return documents, skipped


_conll_lines = st.one_of(
    st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=12).filter(lambda t: t.strip()),
    # a line with only whitespace before its tab has an empty token column
    st.sampled_from(["", "-DOCSTART- -X-", "New York\tB-LOC", "!!\tO", "İ\tO", " \tO", "\u3000 \tB-LOC"]),
)


@settings(max_examples=200)
@given(st.lists(_conll_lines, max_size=25), st.sampled_from(["\n", "\r\n", "\u2028"]))
@example(["-DOCSTART- -X-", "İstanbul NNP", "New York\tB-LOC", ", ,", "", "-DOCSTART- -X-", "!! .", "ς"], "\n")
@example(["a", " \tb"], "\n")
@example(["a", "", "-DOCSTART-", "\t", "b\tO", "  \tO", "c"], "\r\n")
@example(["a", "\u2003", "b", "\u3000\tO"], "\u2028")
def test_parse_conll_matches_the_per_token_reference(lines, separator):
    text = separator.join(lines) + separator
    for cfg in EVERY_TOKENIZER:
        assert_parses_as(lambda: parse_conll(text, cfg), lambda: reference_parse_conll_documents(text, cfg))


def test_tokenizer_config_validation():
    with pytest.raises(ConfigError):
        TokenizerConfig(split_mode="bytes")
    with pytest.raises(ConfigError):
        TokenizerConfig(ngram_order=0)
    with pytest.raises(ConfigError):
        fields_from_dict(TokenizerConfig, {"lowercase": True, "mystery": 1}, "tokenizer")


def test_tokenizer_hash_tracks_every_option():
    base = TokenizerConfig()
    variants = [
        TokenizerConfig(lowercase=False),
        TokenizerConfig(split_mode="whitespace"),
        TokenizerConfig(ngram_order=2),
        TokenizerConfig(strip_punctuation=False),
    ]
    hashes = {cfg.config_hash() for cfg in [base, *variants]}
    assert len(hashes) == 5


# ---------------------------------------------------------------- conll


CONLL_FIXTURE = """\
John NNP
lives VBZ
in IN
New NNP
York NNP
"""


def test_parse_conll_hand_tokenized_fixture():
    corpus = parse_conll(CONLL_FIXTURE, domain_id="d")
    assert len(corpus.documents) == 1
    assert list(corpus.documents[0]) == ["john", "lives", "in", "new", "york"]


def test_parse_conll_tab_separated_first_column():
    corpus = parse_conll("John\tNNP\tB-PER\nruns\tVBZ\tO\n")
    assert list(corpus.documents[0]) == ["john", "runs"]


def test_parse_conll_docstart_splits_documents():
    text = "-DOCSTART- -X-\nJohn NNP\nruns VBZ\n\n-DOCSTART- -X-\nMary NNP\n"
    corpus = parse_conll(text)
    assert len(corpus.documents) == 2
    assert corpus.token_count == 3


def test_parse_conll_single_docstart_is_one_document():
    text = "-DOCSTART- -X-\nJohn NNP\n\nruns VBZ\n"
    corpus = parse_conll(text)
    assert len(corpus.documents) == 1
    assert corpus.token_count == 2


def test_parse_conll_blank_only_input_is_empty_corpus():
    with pytest.raises(ParseError, match="empty corpus"):
        parse_conll("\n\n  \n")


def test_parse_conll_empty_token_column_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_conll("John NNP\n\tNNP\n")


def test_parse_conll_invalid_utf8_reports_offset():
    with pytest.raises(ParseError) as exc_info:
        parse_conll(b"John NNP\n\xffbad\n")
    assert exc_info.value.offset == 9
    assert "byte offset 9" in str(exc_info.value)


def test_token_count_sums_documents():
    text = "-DOCSTART- -X-\na O\nb O\n\n-DOCSTART- -X-\nc O\n"
    corpus = parse_conll(text)
    assert corpus.token_count == sum(map(len, corpus.documents)) == 3


# ---------------------------------------------------------------- jsonl


def test_parse_jsonl_hand_tokenized_fixture():
    line = '{"sentence1":"A man runs","sentence2":"A person moves"}'
    corpus = parse_jsonl_pairs(line)
    assert len(corpus.documents) == 1
    assert list(corpus.documents[0]) == ["a", "man", "runs", "a", "person", "moves"]


def test_parse_jsonl_three_records():
    lines = "\n".join(
        json.dumps({"sentence1": f"first {i}", "sentence2": f"second {i}"}) for i in range(3)
    )
    corpus = parse_jsonl_pairs(lines)
    assert len(corpus.documents) == 3


def test_parse_jsonl_skips_records_missing_all_fields():
    lines = (
        '{"sentence1":"a b","sentence2":"c"}\n'
        '{"other":"ignored"}\n'
        '{"sentence1":"d e","sentence2":"f"}\n'
    )
    corpus, skipped = parsed_and_skipped(lambda: parse_jsonl_pairs(lines))
    assert len(corpus.documents) == 2
    assert skipped == 1


def test_parse_jsonl_custom_fields():
    corpus = parse_jsonl_pairs('{"premise":"A b","hypothesis":"C d"}', fields=("premise", "hypothesis"))
    assert list(corpus.documents[0]) == ["a", "b", "c", "d"]


def test_parse_jsonl_invalid_json_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_jsonl_pairs('{"sentence1":"ok","sentence2":"ok"}\nnot json\n')


def test_parse_jsonl_non_object_line_is_an_error():
    with pytest.raises(ParseError, match="not a JSON object"):
        parse_jsonl_pairs("[1, 2]\n")


def test_parse_jsonl_all_skipped_is_empty_corpus():
    with pytest.raises(ParseError, match="empty corpus"):
        parse_jsonl_pairs('{"other": 1}\n{"other": 2}\n')


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.text(alphabet=TOKEN_ALPHABET, max_size=20), min_size=1, max_size=3))
@example(["Hello, World", "AGAIN!"])
@example(["İstanbul", "STRASSE"])
@example(["ends with a space ", " ", "\tleads"])
@example(["!!", "..."])
def test_a_jsonl_record_tokenizes_as_its_fields_do(texts):
    fields = [f"f{i}" for i in range(len(texts))]
    line = json.dumps(dict(zip(fields, texts)))
    for cfg in EVERY_TOKENIZER:
        tokens = [t for text in texts for t in tokenize(text, cfg)]
        if not tokens:
            with pytest.raises(ParseError, match="empty corpus"):
                parse_jsonl_pairs(line, cfg, fields=fields)
            continue
        (document,) = parse_jsonl_pairs(line, cfg, fields=fields).documents
        assert document == tuple(tokens)


def reference_jsonl_units(text, fields):
    """``parse_jsonl_pairs``'s unit texts from one ``json.loads`` per line."""
    units = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=line_no, source="<stream>") from exc
        if not isinstance(record, dict):
            raise ParseError("line is not a JSON object", line=line_no, source="<stream>")
        units.append(" ".join([record[f] for f in fields if isinstance(record.get(f), str)]))
    return units


JSONL_FIELDS = ("sentence1", "sentence2")
_jsonl_records = st.dictionaries(
    st.sampled_from([*JSONL_FIELDS, "id"]),
    st.one_of(st.text(alphabet=TOKEN_ALPHABET + "\u2028\x85\"\\", max_size=12), st.integers(), st.none(),
              st.lists(st.integers(), max_size=2)),
    max_size=3,
)
_jsonl_lines = st.one_of(
    # ensure_ascii=False writes a raw U+2028 or U+0085, where splitlines cuts the record
    st.builds(json.dumps, _jsonl_records, ensure_ascii=st.booleans()),
    st.tuples(st.sampled_from(["", " ", "\t", "\ufeff"]), st.builds(json.dumps, _jsonl_records),
              st.sampled_from(["", " ", "\t", " x", " {}", ","])).map("".join),
    st.sampled_from(["1 2", "[1]", "NaN", "-Infinity", "null", '"text"', "{", "{}", '{"sentence1": "a"', "", " ", "}"]),
    st.text(alphabet='{}[]":, 0123456789aenrtu\\', max_size=12),
)


@settings(max_examples=300, derandomize=True)
@given(st.lists(_jsonl_lines, min_size=1, max_size=8))
@example(['\ufeff{"sentence1": "a"}'])
@example([' {"sentence1": "a"}', '{"sentence2": "b"}\t ', ' {"sentence1": "c"} '])
@example(['{"sentence1": "a"}', "1 2"])
@example(['{"sentence1": "a"}', "[1]"])
@example(["NaN"])
@example(['{"sentence1": "a\u2028b"}'])
@example(['{"sentence1": "Straße İ", "sentence2": "ASCII, too!"}', '{"id": 3}', '{"sentence2": "x y"}'])
def test_parse_jsonl_matches_the_per_line_reference(lines):
    text = "\n".join(lines) + "\n"
    for cfg in EVERY_TOKENIZER:
        assert_parses_as(lambda: parse_jsonl_pairs(text, cfg, fields=JSONL_FIELDS),
                         lambda: reference_documents(reference_jsonl_units(text, JSONL_FIELDS), cfg))


def test_parse_jsonl_requires_fields():
    with pytest.raises(ConfigError):
        parse_jsonl_pairs('{"a":"b"}', fields=())


# ---------------------------------------------------------------- plaintext


def test_parse_plaintext_line_units():
    corpus = parse_plaintext("one two\nthree\n\nfour five six\nseven\n")
    assert len(corpus.documents) == 4
    assert corpus.token_count == 7


def test_parse_plaintext_paragraph_units():
    corpus = parse_plaintext("one two\nthree\n\nfour five\n", unit="paragraph")
    assert len(corpus.documents) == 2
    assert list(corpus.documents[0]) == ["one", "two", "three"]


def test_parse_plaintext_rejects_unknown_unit():
    with pytest.raises(ConfigError):
        parse_plaintext("x", unit="sentence")


def test_parse_plaintext_newlines_only_is_empty_corpus():
    with pytest.raises(ParseError, match="empty corpus"):
        parse_plaintext("\n\n\n")


def test_parse_plaintext_counts_skipped_segments():
    # a line of pure punctuation tokenizes to nothing under the default config
    corpus, skipped = parsed_and_skipped(lambda: parse_plaintext("real words\n!!!\nmore words\n"))
    assert len(corpus.documents) == 2
    assert skipped == 1


# per format: the parser, an input with skipped units, their count, the skip warning,
# an input with no usable unit and the empty-corpus reason
LOOP_TEXTS = {
    "conll": (parse_conll, "alpha\n-DOCSTART-\n!!!\n-DOCSTART-\nbeta\n", 1,
              "1 document(s) skipped (no tokens after tokenization)", "!!!\n", "no tokens found"),
    "jsonl": (parse_jsonl_pairs, '{"sentence1": "alpha"}\n{"other": "x"}\n\n{"sentence2": "!!!"}\n{"sentence2": "beta"}\n', 2,
              "2 record(s) skipped (missing fields or no tokens)", '{"other": "x"}\n', "no usable records"),
    "text": (parse_plaintext, "alpha\n!!!\nbeta\n", 1,
             "1 segment(s) skipped (no tokens after tokenization)", "!!!\n", "no non-empty text"),
}


@pytest.mark.parametrize("fmt", sorted(LOOP_TEXTS))
def test_parsers_count_and_report_skipped_units_and_refuse_an_empty_corpus(caplog, fmt):
    parse, text, skipped, warning, empty_text, reason = LOOP_TEXTS[fmt]
    with caplog.at_level("WARNING", logger="domainport.corpus"):
        corpus = parse(text, source="in.txt")
    assert corpus.documents == (("alpha",), ("beta",))
    assert [r.getMessage() for r in caplog.records] == [f"in.txt: {warning}"]
    with pytest.raises(ParseError) as excinfo:
        parse(empty_text, source="in.txt")
    assert str(excinfo.value) == f"in.txt: empty corpus: {reason}"


# ---------------------------------------------------------------- interchange


def test_interchange_round_trip_identity():
    original = parse_plaintext("Alpha beta!\nGamma delta\n", domain_id="roundtrip")
    restored = parse_interchange(dump_json(to_interchange(original)))
    assert restored.domain_id == original.domain_id
    assert restored.documents == original.documents
    assert restored.tokenizer_config == original.tokenizer_config


token_lists = st.lists(
    st.lists(st.text(alphabet="abcXYZ0", min_size=1, max_size=6), min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)


@given(token_lists)
def test_interchange_preserves_tokens_verbatim(docs):
    # tokens pass through untouched, including case: no re-tokenization
    payload = {
        "domain_id": "prop",
        "tokenizer_config": dataclasses.asdict(TokenizerConfig()),
        "documents": docs,
    }
    corpus = parse_interchange(payload)
    assert [list(tokens) for tokens in corpus.documents] == docs
    again = parse_interchange(json.loads(dump_json(to_interchange(corpus))))
    assert again.documents == corpus.documents


def test_interchange_missing_keys():
    with pytest.raises(ParseError, match="missing keys"):
        parse_interchange({"domain_id": "x"})


def test_interchange_rejects_empty_documents():
    payload = {"domain_id": "x", "tokenizer_config": {}, "documents": []}
    with pytest.raises(ParseError, match="empty corpus"):
        parse_interchange(payload)


@pytest.mark.parametrize("tokenizer_config, message", [
    ({"mystery": 1}, "unknown tokenizer fields: ['mystery']"),
    ({"split_mode": "bytes"}, "unknown split_mode 'bytes'"),
    ("x", "tokenizer must be an object"),
], ids=["unknown-key", "bad-split-mode", "not-an-object"])
def test_interchange_rejects_a_bad_tokenizer_config(tokenizer_config, message):
    payload = {"domain_id": "x", "tokenizer_config": tokenizer_config, "documents": [["ok"]]}
    with pytest.raises(ParseError, match=f"invalid tokenizer_config: {re.escape(message)}"):
        parse_interchange(payload)


@pytest.mark.parametrize("content, message", [
    (b'{"domain_id": "x"', "invalid JSON: "),
    (b'[["ok"]]', "interchange payload must be a JSON object"),
    (b'{"domain_id": "x", "tokenizer_config": {}, "documents": "ok"}', "documents must be a list of token lists"),
], ids=["invalid-json", "not-an-object", "documents-string"])
def test_interchange_rejects_a_malformed_payload(content, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_interchange(content, source="c.json")


def test_interchange_rejects_bad_token_lists():
    payload = {"domain_id": "x", "tokenizer_config": {}, "documents": [["ok", ""]]}
    with pytest.raises(ParseError, match="document 0"):
        parse_interchange(payload)


def test_serialization_is_deterministic():
    corpus = parse_plaintext("Some stable text\nAcross two lines\n")
    assert dump_json(to_interchange(corpus)) == dump_json(to_interchange(corpus))
    assert to_interchange(corpus) == to_interchange(corpus)


def test_corpus_requires_domain_id():
    base = parse_plaintext("words here\n")
    with pytest.raises(ConfigError):
        Corpus(
            domain_id="",
            documents=base.documents,
            tokenizer_config=base.tokenizer_config,
        )


# ---------------------------------------------------------------- lone surrogates

# JSON's "\udc80" escape decodes to a lone surrogate; "\ud83d\ude42" is a pair, one character (🙂)
LONE = '"hello \\udc80"'
PAIR = '"hello \\ud83d\\ude42"'


@pytest.mark.parametrize("config", [TokenizerConfig(split_mode=m, strip_punctuation=p)
                                    for m in SPLIT_MODES for p in (True, False)],
                         ids=lambda c: f"{c.split_mode}-{'strip' if c.strip_punctuation else 'keep'}")
def test_jsonl_refuses_a_lone_surrogate_in_every_tokenizer_mode(config):
    data = f'{{"sentence1": "fine"}}\n{{"sentence1": {PAIR}}}\n{{"sentence1": "x", "sentence2": {LONE}}}\n'
    with pytest.raises(ParseError, match=r"^b\.jsonl: line 3: text holds a lone surrogate"):
        parse_jsonl_pairs(data.encode("utf-8"), config, source="b.jsonl")


def test_jsonl_takes_a_surrogate_pair_an_escaped_backslash_and_an_unread_field():
    data = f'{{"sentence1": {PAIR}, "other": {LONE}}}\n{{"sentence1": "a \\\\udc80 b"}}\n'
    corpus = parse_jsonl_pairs(data, TokenizerConfig(split_mode="whitespace", strip_punctuation=False))
    assert corpus.documents == (("hello", "🙂"), ("a", "\\udc80", "b"))


def test_interchange_refuses_a_token_with_a_lone_surrogate():
    payload = {"domain_id": "d", "tokenizer_config": {}, "documents": [["fine"], ["hello", "b\udc80"]]}
    for data in (payload, json.dumps(payload), json.dumps(payload).encode("utf-8")):
        with pytest.raises(ParseError, match="document 1 has a token with a lone surrogate"):
            parse_interchange(data)
    payload["documents"][1][1] = "\U0001F642"
    assert parse_interchange(json.dumps(payload)).documents[1] == ("hello", "🙂")


@pytest.mark.parametrize("parse", [parse_conll, parse_plaintext, parse_jsonl_pairs, parse_interchange])
def test_a_text_argument_with_a_lone_surrogate_is_refused(parse):
    with pytest.raises(ParseError, match="input holds a lone surrogate"):
        parse("hello \udc80 world\n")


# ---------------------------------------------------------------- memory


def megabyte_corpus(fmt):
    """About 1 MB of seeded ``fmt`` input: 20-word lines over a 5,000-word vocabulary."""
    rng = random.Random(7)
    words = rng.choices([f"w{i}" for i in range(5000)], k=180_000 if fmt == "text" else 131_072)
    lines = [words[i:i + 20] for i in range(0, len(words), 20)]
    if fmt == "conll":  # a -DOCSTART- every ten sentences, one blank line after each
        return "".join(("-DOCSTART-\tO\n\n" if i % 10 == 0 else "") + "".join(f"{w}\tO\n" for w in line) + "\n"
                       for i, line in enumerate(lines)).encode("utf-8")
    if fmt == "jsonl":
        return "".join(json.dumps({"id": i, "sentence1": " ".join(line[:10]), "sentence2": " ".join(line[10:])}) + "\n"
                       for i, line in enumerate(lines)).encode("utf-8")
    return "".join(" ".join(line) + "\n" for line in lines).encode("utf-8")


# tracemalloc peak, in bytes, of each per-unit reader the bulk readers replaced on megabyte_corpus (CPython 3.11)
PER_UNIT_PARSE_PEAKS = {"conll": 17_661_905, "jsonl": 11_461_507, "text": 15_009_176}
PARSERS = {"conll": parse_conll, "jsonl": parse_jsonl_pairs, "text": parse_plaintext}


# A bulk reader that held a whole corpus in several copies would fail here, not only in the benchmark.
@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_bulk_parsing_peaks_within_5_percent_of_the_per_unit_readers(fmt):
    data = megabyte_corpus(fmt)
    assert 0.95e6 < len(data) < 1.1e6
    PARSERS[fmt](data)  # compiled patterns and caches are not the parse's
    tracemalloc.start()
    try:
        PARSERS[fmt](data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * PER_UNIT_PARSE_PEAKS[fmt]


def test_a_document_is_the_tuple_of_its_tokens():
    # a text corpus holds one document per line: a record with a __dict__ each would be most of its memory
    for parse, text, *_ in LOOP_TEXTS.values():
        corpus = parse(text)
        restored = parse_interchange(to_interchange(corpus))
        assert {type(d) for d in corpus.documents} == {type(d) for d in restored.documents} == {tuple}
