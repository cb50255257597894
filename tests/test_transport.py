"""Transport ratio and variation tests against hand-derived reference values."""

from __future__ import annotations

import csv
import io
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domainport.data import load_ner_scores, load_nli_scores, transport_spec
from domainport.errors import ComputationError, ConfigError, ParseError
from domainport.transport import (
    PERCENT_METRICS,
    SCORE_COLUMNS,
    ScoreEntry,
    ScoreTable,
    TauObservation,
    build_report,
    load_score_table,
    render_report_text,
    tau_p_mean,
    tau_p_pair,
    tau_var,
    tau_var_general,
)

ratio_lists = st.lists(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False), min_size=2, max_size=10
)


def entries_for(system, scores):
    return [
        ScoreEntry(system=system, task="t", dataset=d, split="test", score=s)
        for d, s in scores.items()
    ]


# ---------------------------------------------------------------- tau_p


def test_tau_p_pair_reference_values():
    # hand-derived from the bundled NER table: 66.31/98.69 and 52.14/99.32
    assert math.isclose(tau_p_pair(98.69, 66.31), 0.6719, abs_tol=5e-5)
    assert math.isclose(tau_p_pair(99.32, 52.14), 0.5250, abs_tol=5e-5)
    assert tau_p_pair(98.69, 66.31) == 66.31 / 98.69


def test_tau_p_pair_identity():
    assert tau_p_pair(77.7, 77.7) == 1.0


def test_tau_p_pair_rejects_nonpositive_source():
    with pytest.raises(ComputationError, match="source score must be positive"):
        tau_p_pair(0.0, 50.0)
    with pytest.raises(ComputationError, match="negative target"):
        tau_p_pair(50.0, -1.0)
    with pytest.raises(ComputationError, match="non-finite"):
        tau_p_pair(float("nan"), 50.0)


def test_tau_p_mean_hand_derived():
    wnut = [51.63, 53.59, 47.11]
    assert math.isclose(tau_p_mean(98.69, wnut), 0.5145, abs_tol=5e-5)
    all_four = [66.31, 51.63, 53.59, 47.11]
    assert math.isclose(tau_p_mean(98.69, all_four), 0.5539, abs_tol=5e-5)
    assert tau_p_mean(80.0, [80.0]) == 1.0


def test_tau_p_mean_requires_targets():
    with pytest.raises(ComputationError, match="no target scores"):
        tau_p_mean(50.0, [])


# ---------------------------------------------------------------- tau_var


def spacy_inputs():
    table = load_ner_scores()
    spec = transport_spec("ner")
    source = table.get("spacy", "ner", *spec["source"])
    targets = [table.get("spacy", "ner", d, s) for d, s in spec["targets"]]
    return source, targets


def test_tau_var_reproduces_the_published_ner_value():
    source, targets = spacy_inputs()
    assert math.isclose(tau_var(source, targets), 35.171, abs_tol=1e-3)


def test_bias_correction_multiplies_by_small_sample_factor():
    source, targets = spacy_inputs()
    plain = tau_var(source, targets)
    corrected = tau_var(source, targets, bias_corrected=True)
    assert corrected == pytest.approx(plain * (1.0 + 1.0 / 16.0))  # n = 4
    # the corrected form must NOT reproduce the published table
    assert abs(corrected - 35.171) > 1.0


def test_tau_var_equal_targets_is_zero():
    assert tau_var(90.0, [45.0, 45.0, 45.0]) == 0.0


def test_tau_var_needs_two_targets():
    with pytest.raises(ComputationError, match="fewer than 2"):
        tau_var(90.0, [45.0])
    # two targets, but no ratio to vary around
    with pytest.raises(ComputationError, match="variation is undefined: mean transport ratio is zero"):
        tau_var(80.0, [0.0, 0.0])


@given(ratio_lists, st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
@settings(max_examples=100)
def test_tau_var_scale_invariance(ratios, scale):
    # multiplying every score by a positive constant cancels in the ratios
    source = 50.0
    targets = [source * r for r in ratios]
    base = tau_var(source, targets)
    scaled = tau_var(source * scale, [t * scale for t in targets])
    assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-9)
    assert base >= 0.0


@given(ratio_lists, st.randoms(use_true_random=False))
def test_tau_var_permutation_invariance(ratios, rng):
    source = 50.0
    targets = [source * r for r in ratios]
    shuffled = list(targets)
    rng.shuffle(shuffled)
    assert tau_var(source, targets) == tau_var(source, shuffled)


# ---------------------------------------------------------------- tau_var_general


def test_tau_var_general_two_point_hand_value():
    obs = [TauObservation("t", "d1", 1.0), TauObservation("t", "d2", 0.5)]
    assert math.isclose(tau_var_general(obs), 47.14045207910317, rel_tol=1e-12)


def test_tau_var_general_constant_ratios():
    obs = [TauObservation("t", f"d{i}", 0.8) for i in range(4)]
    assert tau_var_general(obs) == 0.0


def test_tau_var_general_reduces_to_tau_var():
    source, targets = spacy_inputs()
    obs = [TauObservation("ner", f"d{i}", t / source) for i, t in enumerate(targets)]
    assert tau_var_general(obs) == pytest.approx(tau_var(source, targets), rel=1e-12)


def test_tau_var_general_rejects_mixed_metrics():
    obs = [TauObservation("t", "d1", 1.0, metric="F1"), TauObservation("t", "d2", 0.5, metric="accuracy")]
    with pytest.raises(ComputationError, match="incomparable metrics"):
        tau_var_general(obs)


def test_tau_var_general_needs_two_observations():
    with pytest.raises(ComputationError, match="fewer than 2"):
        tau_var_general([TauObservation("t", "d", 1.0)])


def test_tau_observation_validates_ratio():
    with pytest.raises(ComputationError):
        TauObservation("t", "d", -0.5)


# ---------------------------------------------------------------- score table


def grouped_entries(n_systems=60, n_datasets=80):
    """A system-grouped table (all rows of one system together), tasks interleaved."""
    rng = random.Random(11)
    names = [f"sys{i:02d}" for i in range(n_systems)]
    rng.shuffle(names)  # first-appearance order differs from sorted order
    return [
        ScoreEntry(system=s, task=f"t{d % 3}", dataset=f"d{d}", split="test", score=rng.uniform(1.0, 99.0))
        for s in names
        for d in range(n_datasets)
    ]


def test_score_table_rejects_duplicates():
    e = ScoreEntry(system="s", task="t", dataset="d", split="train", score=50.0)
    with pytest.raises(ParseError, match="duplicate"):
        ScoreTable(entries=(e, e))
    entries = grouped_entries()
    dup = entries[2500]
    with pytest.raises(ParseError) as excinfo:
        ScoreTable(entries=(*entries, dup))
    assert str(excinfo.value) == f"duplicate score entry for {dup.key()}"


def test_percent_metric_range_check():
    bad = ScoreEntry(system="s", task="t", dataset="d", split="x", score=101.0)
    with pytest.raises(ParseError, match="out of \\[0, 100\\]"):
        ScoreTable(entries=(bad,), metric_name="F1")
    # non-percent metrics are unconstrained
    table = ScoreTable(entries=(bad,), metric_name="logloss")
    # the metric is fixed at construction, so a later percent name cannot skip the range check
    with pytest.raises(AttributeError):
        table.metric_name = "F1"
    assert table.metric_name == "logloss"


def test_score_table_reads_entries_from_a_one_shot_iterable():
    entries = grouped_entries()
    table = ScoreTable(entries=(e for e in entries), metric_name="F1")
    assert table.entries == tuple(entries)
    assert table == ScoreTable(entries=tuple(entries))
    dup = entries[2500]
    with pytest.raises(ParseError, match="duplicate score entry"):
        ScoreTable(entries=iter([*entries, dup]))


def test_score_entry_field_validation():
    with pytest.raises(ParseError, match="non-empty"):
        ScoreEntry(system="", task="t", dataset="d", split="x", score=1.0)
    with pytest.raises(ParseError, match="non-finite"):
        ScoreEntry(system="s", task="t", dataset="d", split="x", score=float("inf"))


def test_get_names_the_missing_key():
    table = ScoreTable(entries=tuple(entries_for("s", {"d1": 50.0})))
    with pytest.raises(ParseError, match="dataset='d9'"):
        table.get("s", "t", "d9", "test")
    entries = grouped_entries()
    table = ScoreTable(entries=tuple(entries))
    assert len(table.entries) == 4800
    for e in entries[::97] + entries[-3:]:
        assert table.get(*e.key()) == next(f.score for f in entries if f.key() == e.key())
    with pytest.raises(ParseError) as excinfo:
        table.get("sys07", "t1", "d9999", "test")
    assert str(excinfo.value) == (
        "score table has no entry for system='sys07' task='t1' dataset='d9999' split='test'"
    )


def test_systems_first_appearance_order():
    entries = (
        ScoreEntry(system="b", task="t1", dataset="d", split="x", score=1.0),
        ScoreEntry(system="a", task="t1", dataset="d2", split="x", score=1.0),
        ScoreEntry(system="b", task="t2", dataset="d", split="x", score=1.0),
    )
    table = ScoreTable(entries=entries)
    assert table.systems() == ["b", "a"]
    assert table.systems("t2") == ["b"]
    entries = grouped_entries()
    table = ScoreTable(entries=tuple(entries))

    def reference(task=None):
        out = []
        for e in entries:
            if (task is None or e.task == task) and e.system not in out:
                out.append(e.system)
        return out

    assert table.systems() == reference()
    assert table.systems() != sorted(table.systems())
    for task in ("t0", "t1", "t2", "missing"):
        assert table.systems(task) == reference(task)


def test_load_score_table_from_text_and_path(tmp_path):
    csv_text = "system,task,dataset,split,score\nsys,t,d,train,88.5\n"
    from_text = load_score_table(csv_text)
    assert from_text.get("sys", "t", "d", "train") == 88.5

    p = tmp_path / "scores.csv"
    p.write_text(csv_text, encoding="utf-8")
    assert load_score_table(p).entries == from_text.entries


def test_load_score_table_from_a_path_with_a_comma(tmp_path):
    csv_text = "system,task,dataset,split,score\nsys,t,d,train,88.5\n"
    p = tmp_path / "a,b" / "scores.csv"
    p.parent.mkdir()
    p.write_text(csv_text, encoding="utf-8")
    assert load_score_table(p).get("sys", "t", "d", "train") == 88.5
    # a str is content, never a file name, even when such a file exists
    with pytest.raises(ParseError, match="bad score table header"):
        load_score_table(str(p))
    with pytest.raises(ConfigError, match="not found"):
        load_score_table(tmp_path / "absent.csv")
    # a single-line string that names no file is still read as CSV text
    with pytest.raises(ParseError, match="no rows"):
        load_score_table("system,task,dataset,split,score")


def test_load_score_table_tolerates_comment_lines():
    csv_text = "#config_hash=abc,tool_version=0\nsystem,task,dataset,split,score\ns,t,d,x,50\n"
    assert load_score_table(csv_text).get("s", "t", "d", "x") == 50.0


def test_load_score_table_error_cases():
    with pytest.raises(ParseError, match="bad score table header"):
        load_score_table("model,task,dataset,split,score\n")
    with pytest.raises(ParseError, match="line 2"):
        load_score_table("system,task,dataset,split,score\ns,t,d,x\n")
    with pytest.raises(ParseError, match="non-numeric score"):
        load_score_table("system,task,dataset,split,score\ns,t,d,x,high\n")
    with pytest.raises(ParseError, match="empty"):
        load_score_table("")
    with pytest.raises(ParseError, match="no rows"):
        load_score_table("system,task,dataset,split,score\n")


def test_load_score_table_errors_name_the_physical_line():
    # comment and blank lines count
    with pytest.raises(ParseError) as excinfo:
        load_score_table("#c\nsystem,task,dataset,split,score\ns,t,d,x,50\n\ns,t,d,y\n")
    assert str(excinfo.value) == "<stream>: line 5: expected 5 columns, got 4"
    with pytest.raises(ParseError) as excinfo:
        load_score_table("system,task,dataset,split,score\n\n\ns,t,d,x,high\n")
    assert str(excinfo.value) == "<stream>: line 4: non-numeric score 'high'"
    with pytest.raises(ParseError) as excinfo:
        load_score_table("#c\nsystem,task,dataset,split,score\ns,t,d,x,50\n#d\ns,t,d,y,high\n")
    assert str(excinfo.value) == "<stream>: line 5: non-numeric score 'high'"
    # a quoted cell spanning lines moves later rows down; a row is named by its first line
    with pytest.raises(ParseError, match="line 4: expected 5 columns, got 4"):
        load_score_table('system,task,dataset,split,score\n"a\nb",t,d,x,50\ns,t,d,x\n')
    with pytest.raises(ParseError, match="line 2: non-numeric score 'x\\\\ny'"):
        load_score_table('system,task,dataset,split,score\ns,t,d,x,"x\ny"\n')


def test_load_score_table_row_errors_name_the_physical_line():
    # an empty field and a non-finite score are located like the width and numeric errors
    with pytest.raises(ParseError) as excinfo:
        load_score_table("#c\nsystem,task,dataset,split,score\ns,t,d,x,50\n\ns,,d,y,60\n")
    assert str(excinfo.value) == "<stream>: line 5: score entry field 'task' must be non-empty"
    assert excinfo.value.line == 5
    with pytest.raises(ParseError) as excinfo:
        load_score_table(b"system,task,dataset,split,score\n#c\ns,t,d,x,nan\n")
    assert str(excinfo.value) == "<stream>: line 3: non-finite score for ('s', 't', 'd', 'x')"


@pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
def test_load_score_table_rejects_non_utf8_input(tmp_path, kind):
    raw = b"system,task,dataset,split,score\nalpha\xff,toy,src,train,50\n"
    path = tmp_path / "scores.csv"
    path.write_bytes(raw)
    data = {"path": path, "bytes": raw, "stream": io.BytesIO(raw)}[kind]
    with pytest.raises(ParseError) as excinfo:
        load_score_table(data)
    assert excinfo.value.offset == raw.index(b"\xff")
    assert excinfo.value.source == (str(path) if kind == "path" else "<stream>")
    assert "not valid UTF-8" in str(excinfo.value)


def test_loading_a_table_builds_no_score_entries(monkeypatch):
    rng = random.Random(5)
    rows = ["#config_hash=abc", ",".join(SCORE_COLUMNS)]
    rows += [f"sys{s},task{t},dom{d},test,{rng.uniform(10.0, 95.0):.2f}"
             for s in range(12) for t in range(101) for d in range(8)]
    built = []
    original = ScoreEntry.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ScoreEntry, "__post_init__", counted)

    table = load_score_table("\n".join(rows) + "\n")
    assert built == []
    assert table.get("sys11", "task100", "dom7", "test") == float(rows[-1].rsplit(",", 1)[1])
    assert table.systems("task3") == [f"sys{s}" for s in range(12)]
    assert built == []
    assert len(table.entries) == 9696
    assert len(built) == 9696
    assert table.entries is table.entries  # built once, then cached
    assert [",".join((*e.key(), f"{e.score:.2f}")) for e in table.entries] == rows[2:]


def reference_load_score_table(text, metric_name="F1"):
    """The loader that built a ``ScoreEntry`` per row, with physical line numbers.

    Returns the entries in file order after the table checks the old
    ``ScoreTable`` ran (duplicates, then the percent range).
    """
    label = "<stream>"
    lines = text.splitlines()
    physical = [n for n, ln in enumerate(lines, start=1) if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines[n - 1] for n in physical)))
    rows = []
    start = 0
    for row in reader:
        if row:
            rows.append((physical[start], row))
        start = reader.line_num
    if not rows:
        raise ParseError("score table is empty", source=label)
    header = tuple(cell.strip() for cell in rows[0][1])
    if header != SCORE_COLUMNS:
        raise ParseError(
            f"bad score table header {list(header)}; expected {list(SCORE_COLUMNS)}", source=label
        )
    entries = []
    for line_no, row in rows[1:]:
        if len(row) != len(SCORE_COLUMNS):
            raise ParseError(f"expected {len(SCORE_COLUMNS)} columns, got {len(row)}", line=line_no, source=label)
        system, task, dataset, split, score_text = (cell.strip() for cell in row)
        try:
            score = float(score_text)
        except ValueError as exc:
            raise ParseError(f"non-numeric score {score_text!r}", line=line_no, source=label) from exc
        try:
            entries.append(ScoreEntry(system=system, task=task, dataset=dataset, split=split, score=score))
        except ParseError as exc:
            raise ParseError(str(exc), line=line_no, source=label) from exc
    if not entries:
        raise ParseError("score table has a header but no rows", source=label)
    seen = set()
    for e in entries:
        if e.key() in seen:
            raise ParseError(f"duplicate score entry for {e.key()}")
        seen.add(e.key())
    if metric_name.lower() in PERCENT_METRICS:
        for e in entries:
            if not (0.0 <= e.score <= 100.0):
                raise ParseError(f"{metric_name} score out of [0, 100] for {e.key()}: {e.score}")
    return entries


def _csv_cell(value, quoted, pad):
    # a cell holding a delimiter, quote or newline is always quoted, so it stays one cell;
    # padding goes inside the quotes, where it is part of the cell
    value = pad + value + pad
    if quoted or any(c in value for c in ',"\n'):
        value = '"' + value.replace('"', '""') + '"'
    return value


# small pools per key column, so duplicate keys are common
_key_pools = (["a", "b", "sys 1", 'q"q'], ["t", "x,y"], ["d", "line\nbreak"], ["x", "y", "z"])
_scores = st.one_of(
    st.floats(min_value=-2.0, max_value=102.0).map(lambda x: f"{x:.2f}"),  # past [0, 100] at the edges
    st.sampled_from(["50", " 7.5 ", "1e2", "100", "0", "-0.0"]),
)
_bad_scores = st.sampled_from(["nan", "inf", "-inf", "high", "", "1_0x"])
_good_rows = st.tuples(*(st.sampled_from(pool) for pool in _key_pools), _scores)
_bad_rows = st.one_of(
    st.tuples(*(st.sampled_from(pool) for pool in _key_pools), _bad_scores),
    st.tuples(_good_rows, st.integers(0, 3)).map(lambda r: r[0][:r[1]] + ("",) + r[0][r[1] + 1:]),
    # short or long rows; a good row with one more cell would pass if widths were not checked first
    _good_rows.flatmap(lambda row: st.sampled_from([row[:4], row[:1], (*row, "x"), (*row, "")])),
    st.lists(st.sampled_from(["a", "t", "50", ""]), min_size=1, max_size=7),
)
_line_kinds = {"good": _good_rows, "bad": _bad_rows, "other": st.sampled_from(["", "   ", "#comment", "#a,b,c"])}


def _rendered(row):
    """One CSV line for ``row``, each cell quoted or not and padded or not."""
    if isinstance(row, str):
        return st.just(row)
    cells = st.tuples(*(st.tuples(st.just(cell), st.booleans(), st.sampled_from(["", " "])) for cell in row))
    return cells.map(lambda drawn: ",".join(_csv_cell(*c) for c in drawn))


_lines = st.sampled_from(["good"] * 16 + ["bad", "other"]).flatmap(_line_kinds.get).flatmap(_rendered)
_headers = st.sampled_from([
    *["system,task,dataset,split,score"] * 16,
    " system , task,dataset ,split, score ",
    '"system",task,dataset,split,score',
    "system,task,dataset,split",
    "model,task,dataset,split,score",
])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["", "#config_hash=abc"]), max_size=2),
    _headers,
    st.lists(_lines, max_size=12),
    st.sampled_from(["F1", "accuracy", "logloss"]),
)
@example([], "system,task,dataset,split,score", ["a,t,d,x,50", "", "#c", "a,t,d,y,nan"], "F1")
@example(["#c"], "system,task,dataset,split,score", ["a,t,d,x,50", "a , t,d,x,60"], "F1")
@example([], "system,task,dataset,split,score", ["a,t,d,x,50", "b,t,d,x,101", "a,t,d,x,1"], "F1")
@example([], "system,task,dataset,split,score", ["b,t,d,x,101", "a,,d,x,50"], "accuracy")
@example([], "system,task,dataset,split,score", ['"line\nbreak",t,d,x,50', "b,t,d,x,-1", "b,t,d,y"], "logloss")
@example([], "system,task,dataset,split,score", ["a,t,d,x,50", "b,t,d,x,60,extra"], "F1")
@example(["#c"], "system,task,dataset,split,score", ["a,t,d,x,50", "#c", "b,t,d,x,high"], "F1")
def test_loader_matches_the_per_row_reference(prefix, header, lines, metric):
    text = "\n".join([*prefix, header, *lines]) + "\n"
    try:
        expected = reference_load_score_table(text, metric)
    except ParseError as exc:
        with pytest.raises(ParseError) as excinfo:
            load_score_table(text, metric)
        assert type(excinfo.value) is type(exc)
        assert str(excinfo.value) == str(exc)
        return
    table = load_score_table(text, metric)
    assert table.metric_name == metric
    assert table.entries == tuple(expected)
    for e in expected:
        assert table.get(*e.key()) == e.score
    for task in [None, *{e.task for e in expected}, "absent"]:
        assert table.systems(task) == list(dict.fromkeys(
            e.system for e in expected if task is None or e.task == task
        ))


def test_bundled_fixture_shapes():
    ner = load_ner_scores()
    assert ner.metric_name == "F1"
    assert set(ner.systems("ner")) == {"stanford", "spacy", "elmo"}
    nli = load_nli_scores()
    assert nli.metric_name == "accuracy"
    assert set(nli.systems("nli")) == {"bert-snli", "bert-multinli", "bert-scitail"}


# ---------------------------------------------------------------- reports


def test_build_report_reproduces_the_stanford_column():
    table = load_ner_scores()
    spec = transport_spec("ner")
    report = build_report(
        table,
        "stanford",
        "ner",
        tuple(spec["source"]),
        [tuple(t) for t in spec["targets"]],
        groups={g: [tuple(k) for k in keys] for g, keys in spec["groups"].items()},
    )
    assert report["group_means"]["wiki"] == pytest.approx(0.671, abs=5e-3)
    assert report["group_means"]["wnut"] == pytest.approx(0.514, abs=5e-3)
    assert report["tau_p"] == pytest.approx(0.553, abs=5e-3)
    assert report["variation"] == pytest.approx(15.051, abs=1e-3)
    assert len(report["per_target"]) == 4
    assert not report["bias_corrected"]


def test_build_report_single_target_has_no_variation():
    table = ScoreTable(entries=tuple(entries_for("s", {"src": 80.0, "tgt": 40.0})))
    report = build_report(table, "s", "t", ("src", "test"), [("tgt", "test")])
    assert report["tau_p"] == 0.5
    assert report["variation"] is None


def test_build_report_source_as_sole_target():
    table = ScoreTable(entries=tuple(entries_for("s", {"src": 80.0})))
    report = build_report(table, "s", "t", ("src", "test"), [("src", "test")])
    assert report["tau_p"] == 1.0
    assert report["variation"] is None


def test_build_report_missing_key_is_named():
    table = ScoreTable(entries=tuple(entries_for("s", {"src": 80.0})))
    with pytest.raises(ParseError, match="dataset='absent'"):
        build_report(table, "s", "t", ("src", "test"), [("absent", "test")])


def test_build_report_rejects_empty_group():
    table = ScoreTable(entries=tuple(entries_for("s", {"src": 80.0, "tgt": 40.0})))
    with pytest.raises(ComputationError, match="group 'g'"):
        build_report(table, "s", "t", ("src", "test"), [("tgt", "test")], groups={"g": []})


def test_a_report_round_trips_through_json():
    table = load_ner_scores()
    spec = transport_spec("ner")
    report = build_report(table, "elmo", "ner", tuple(spec["source"]), [tuple(t) for t in spec["targets"]])
    payload = json.loads(json.dumps(report))
    assert payload["system"] == "elmo"
    assert payload["tau_p"] == report["tau_p"]
    assert payload["variation"] == report["variation"]
    assert len(payload["per_target"]) == 4


def test_render_report_text_layout():
    table = load_ner_scores()
    spec = transport_spec("ner")
    reports = [
        build_report(
            table, system, "ner", tuple(spec["source"]), [tuple(t) for t in spec["targets"]],
            groups={g: [tuple(k) for k in keys] for g, keys in spec["groups"].items()},
        )
        for system in spec["systems"]
    ]
    text = render_report_text(reports, group_order=["wiki", "wnut"])
    lines = text.splitlines()
    assert lines[0].split() == ["measure", "stanford", "spacy", "elmo"]
    assert any(ln.startswith("tau_p(wiki)") for ln in lines)
    assert any(ln.startswith("tau_var(%)") for ln in lines)
    assert "15.051" in text and "35.171" in text


def test_render_report_text_marks_undefined_variation():
    table = ScoreTable(entries=tuple(entries_for("s", {"src": 80.0, "tgt": 40.0})))
    report = build_report(table, "s", "t", ("src", "test"), [("tgt", "test")])
    assert "n/a" in render_report_text([report])

