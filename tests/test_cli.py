import base64
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import oracles
from protoabs.cli import build_parser, main
from protoabs.corpus_tools import (
    DEFAULT_DROP_KEYS, load_corpus, load_labels, save_corpus, save_labels,
)
from protoabs.experiments import draw_labeled_samples
from protoabs.errors import InsufficientLabels
from protoabs.model import DEFAULT_ARITY, Corpus, LabelVector, decode_uints, encode_uints


def run(argv):
    return main(argv)


N = 400


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synthetic corpus plus labels shared by the CLI tests, and the
    valid model that the bad models of BAD_DATA derive from."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--out-dir", str(root), "--n", str(N), "--seed", "3"]) == 0
    _write(root / "model.json", TWO_CLUSTERS)
    return root


def decoded_lengths(corpus):
    """The lengths of a format-3 corpus' row_ids and of its source-id rule's
    group and number."""
    ids = corpus["source_ids"]
    return [decode_uints(a, "").size for a in (corpus["row_ids"], ids["group"], ids["number"])]


def test_synth_writes_corpus_and_labels(workspace):
    corpus = json.loads((workspace / "corpus.json").read_text())
    assert corpus["format"] == 3
    assert corpus["arity"] == 32
    assert decoded_lengths(corpus) == [N] * 3
    assert len(corpus["source_ids"]["prefixes"]) == 21
    assert json.loads((workspace / "labels.json").read_text())["format"] == 2
    labels = load_labels(str(workspace / "labels.json"))
    assert labels.n_classes == 21 and len(labels) == N


def test_ingest_and_label(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "HANDSHAKE-IN CLIENTHELLO\nVERSION TLS_1_2\nRANDOM abc\n\n"
        "ALERT-IN CLOSENOTIFY\nLEVEL WARNING\nCODE 0\n--\n"
    )
    out = tmp_path / "out"
    assert run(["ingest", str(trace), "--out-dir", str(out), "--arity", "8"]) == 0
    corpus = json.loads((out / "corpus.json").read_text())
    assert corpus["format"] == 3
    assert decoded_lengths(corpus) == [2] * 3
    assert run(["label", "--corpus", str(out / "corpus.json"), "--out-dir", str(out)]) == 0
    assert len(load_labels(str(out / "labels.json"))) == 2


def test_a_format_2_corpus_and_its_format_3_resave_cluster_alike(workspace, tmp_path):
    """The workspace corpus (format 3, named by rule), its format-2 rendering
    and that file saved again (format 3, the ids as strings) give one model."""
    old = _write(tmp_path / "old.json",
                 oracles.corpus_format2(load_corpus(str(workspace / "corpus.json"))))
    new = str(tmp_path / "new.json")
    save_corpus(load_corpus(old), new)
    assert isinstance(json.loads(Path(new).read_text())["source_ids"], list)
    models = []
    for corpus in (str(workspace / "corpus.json"), old, new):
        out = tmp_path / ("run-" + Path(corpus).stem)
        assert run(["cluster", "--corpus", corpus, "--labels", str(workspace / "labels.json"),
                    "--out-dir", str(out)]) == 0
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1] == models[2]


def test_a_format_1_labels_file_and_its_format_2_resave_run_alike(workspace, tmp_path):
    """The workspace labels (format 2), their format-1 rendering and that
    file saved again give one model.json and one eval.json."""
    old = _write(tmp_path / "old.json",
                 oracles.labels_format1(load_labels(str(workspace / "labels.json"))))
    new = str(tmp_path / "new.json")
    save_labels(load_labels(old), new)
    assert Path(new).read_bytes() == (workspace / "labels.json").read_bytes()
    outputs = []
    for labels in (str(workspace / "labels.json"), old, new):
        out = tmp_path / ("run-" + Path(labels).stem)
        assert run(["cluster", "--corpus", str(workspace / "corpus.json"), "--labels", labels,
                    "--out-dir", str(out)]) == 0
        assert run(["eval", "--model", str(out / "model.json"), "--labels", labels,
                    "--out-dir", str(out / "eval")]) == 0
        outputs.append([(out / "model.json").read_bytes(),
                        (out / "eval" / "eval.json").read_bytes()])
    assert outputs[0] == outputs[1] == outputs[2]


def test_label_with_non_total_rules_exits_2(tmp_path, workspace):
    rules = tmp_path / "rules.txt"
    rules.write_text("0 1 HANDSHAKE-IN=CLIENTHELLO\n")
    assert run([
        "label", "--corpus", str(workspace / "corpus.json"),
        "--rules", str(rules), "--out-dir", str(tmp_path),
    ]) == 2


def test_parser_defaults_are_the_package_defaults():
    parser = build_parser()
    synth = parser.parse_args(["synth", "--out-dir", "out"])
    ingest = parser.parse_args(["ingest", "trace.txt", "--out-dir", "out"])
    assert synth.arity == ingest.arity == DEFAULT_ARITY
    assert ingest.drop_keys == ",".join(sorted(DEFAULT_DROP_KEYS))


def test_usage_error_exit_code():
    assert run(["cluster"]) == 1
    assert run(["no-such-command"]) == 1


@pytest.mark.parametrize("argv", [["--help"], ["cluster", "--help"]], ids=" ".join)
def test_help_prints_the_same_twice(capsys, argv):
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("usage: protoabs")


def test_calls_in_one_process_share_no_options(workspace, tmp_path, capsys):
    """The parser is built once per process; a call's options must not
    reach the next call, which runs as it would alone."""
    inputs = ["--corpus", str(workspace / "corpus.json"),
              "--labels", str(workspace / "labels.json")]
    runs = []
    for name, options in [
        ("plain", []),
        ("options", ["--algorithm", "kmeans", "--k", "15", "--seed", "2", "--tol", "1e9",
                     "--max-iters", "1", "--w", "0", "--mode", "unbalanced"]),
        ("again", []),
    ]:
        assert run(["cluster"] + inputs + options + ["--out-dir", str(tmp_path / name)]) == 0
        line = capsys.readouterr().out.split(" duration=")[0]
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        runs.append((line, files))
    assert runs[0] == runs[2]
    assert runs[0][0].startswith("mpck k=21 seed=0 ")
    assert runs[1][0].startswith("kmeans k=15 seed=2 ")


BAD_ARGUMENTS = [
    ("cluster", ["--k", "0"]),
    ("cluster", ["--tol", "0"]),
    ("cluster", ["--w", "-1"]),
    ("cluster", ["--w-bar", "-1"]),
    ("cluster", ["--w", "inf"]),
    ("cluster", ["--w-bar", "inf"]),
    # past MAX_PENALTY_WEIGHT the objective's sums overflow
    ("cluster", ["--w", "1e308", "--w-bar", "1e308", "--k", "10", "--seed", "1"]),
    ("sweep-labels", ["--w-bar", "1e101"]),
    ("cluster", ["--labels-per-class", "-1"]),
    ("cluster", ["--max-iters", "-1"]),
    ("cluster", ["--seed", "-1"]),
    ("sweep-k", ["--k", "5..3"]),
    ("sweep-k", ["--k", "0..100000000000"]),
    ("sweep-k", ["--k", "100000000000..1"]),
    ("sweep-k", ["--k", "20.."]),
    ("sweep-k", ["--k", "20,0"]),
    ("sweep-k", ["--seed", "a"]),
    ("sweep-k", ["--seed", "-1"]),
    ("sweep-k", ["--seed", ","]),
    ("sweep-k", ["--labels-per-class", "-1"]),
    ("sweep-labels", ["--counts", "-1"]),
    ("sweep-labels", ["--counts", "2,-1"]),
    ("sweep-labels", ["--counts", "x"]),
    ("sweep-labels", ["--seed", "0,b"]),
    ("sweep-labels", ["--seed", "0,-1"]),
    ("sweep-labels", ["--seed", ","]),
]


def assert_one_usage_line(code, err, out_dir):
    """Exit 1 with one `error: argument --` line last on stderr, nothing written."""
    assert code == 1, err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: argument --"), err
    assert err.strip().splitlines()[-1] == errors[0]
    assert "_int_list" not in err and "_k_range" not in err, err
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "command,bad", BAD_ARGUMENTS, ids=[" ".join([c] + b) for c, b in BAD_ARGUMENTS]
)
def test_bad_numeric_argument_exits_1_without_traceback(
        workspace, tmp_path, capsys, command, bad):
    code = run([
        command, "--corpus", str(workspace / "corpus.json"),
        "--labels", str(workspace / "labels.json"), "--out-dir", str(tmp_path),
    ] + bad)
    assert_one_usage_line(code, capsys.readouterr().err, tmp_path)


BAD_CORPUS_ARGUMENTS = [
    ("synth", ["--seed", "-1"]),
    ("synth", ["--arity", "0"]),
    ("synth", ["--n", "0"]),
    ("synth", ["--n", "-5"]),
    # beyond the largest index numpy takes
    ("synth", ["--n", "100000000000000000000"]),
    ("synth", ["--arity", "100000000000000000000"]),
    ("synth", ["--noise-rate", "1.5"]),
    ("synth", ["--noise-rate", "nan"]),
    ("ingest", ["--seed", "-1"]),
    ("ingest", ["--arity", "0"]),
    ("ingest", ["--arity", "100000000000000000000"]),
    ("ingest", ["--sample-n", "-1"]),
    ("ingest", ["--sample-n", "0"]),
]


@pytest.mark.parametrize(
    "command,bad", BAD_CORPUS_ARGUMENTS, ids=[" ".join([c] + b) for c, b in BAD_CORPUS_ARGUMENTS]
)
def test_bad_corpus_argument_exits_1_without_traceback(tmp_path, capsys, command, bad):
    trace = tmp_path / "trace.txt"
    trace.write_text("HANDSHAKE-IN CLIENTHELLO\nVERSION TLS_1_2\n--\n")
    out = tmp_path / "out"
    out.mkdir()
    inputs = {"synth": ["--n", "50"], "ingest": [str(trace)]}[command]
    code = run([command] + inputs + ["--out-dir", str(out)] + bad)
    assert_one_usage_line(code, capsys.readouterr().err, out)


def _write(path, obj):
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def _format2(mutate):
    """`mutate` of the corpus file's format-2 rendering (`oracles.corpus_format2`)."""
    return lambda c: mutate(oracles.corpus_format2(Corpus.from_dict(c)))


def _first_row_ids(corpus, ids):
    """The format-2 corpus with its first row_ids replaced by `ids`."""
    return dict(corpus, row_ids=ids + corpus["row_ids"][len(ids):])


def _int_tokens(corpus):
    """The corpus with each row's first token replaced by the row's number,
    so that no position mixes numbers and strings."""
    return dict(corpus, rows=[[i] + r[1:] for i, r in enumerate(corpus["rows"])])


def _array(corpus, key, values=None, **changes):
    """The format-3 corpus with its `key` array changed: `values`, a function
    of the decoded values, gives the values to encode in their place, and
    `changes` replace keys of the array's object."""
    ids = corpus["source_ids"]
    obj = corpus["row_ids"] if key == "row_ids" else ids[key]
    if values is not None:
        obj = encode_uints(values(decode_uints(obj, key).tolist()))
    obj = dict(obj, **changes)
    if key == "row_ids":
        return dict(corpus, row_ids=obj)
    return dict(corpus, source_ids=dict(ids, **{key: obj}))


def _source_ids(corpus, **changes):
    """The format-3 corpus with keys of its source-id rule replaced."""
    return dict(corpus, source_ids=dict(corpus["source_ids"], **changes))


def _b64(data):
    return base64.b64encode(data).decode("ascii")


def _format1_labels(mutate):
    """`mutate` of the labels file's format-1 rendering (`oracles.labels_format1`)."""
    return lambda l: mutate(oracles.labels_format1(LabelVector.from_dict(l)))


def _stored(labels, values=None, **changes):
    """The format-2 labels with their stored array changed: `values`, a
    function of the stored values (each label plus one), gives the values
    to encode in their place, and `changes` replace keys of the array's
    object."""
    obj = labels["labels"]
    if values is not None:
        obj = encode_uints(values(decode_uints(obj, "labels").tolist()))
    return dict(labels, labels=dict(obj, **changes))


def _no_classes(labels):
    """The labels with n_classes 0 and every message unlabelled."""
    return dict(_stored(labels, lambda v: [0] * len(v)), n_classes=0)


def _huge_classes(labels):
    """The labels with n_classes 2^40: an array of that many counts would
    not fit in memory."""
    return dict(labels, n_classes=2**40)


def _nested(field):
    """A function of a file's JSON that gives its text with `field` a value
    2 000 lists deep, written out by hand: json.dumps would itself stop at
    the recursion limit."""
    def text(obj):
        rest = {key: value for key, value in obj.items() if key != field}
        return json.dumps(rest)[:-1] + ', "%s": %s}' % (field, "[" * 2000 + "]" * 2000)
    return text


SHORT_MODEL = {"k": 1, "seed": 0, "iterations": 0, "objective": 0.0,
               "assignments": [0] * 10, "centroids": [["A=1"]], "metric_weights": [[1.0]]}
TWO_CLUSTERS = dict(SHORT_MODEL, k=2, assignments=[0, 1] * (N // 2),
                    centroids=[["A=1"], ["A=2"]], metric_weights=[[1.0], [1.0]])

# a trace file in UTF-16, byte-order mark first; not UTF-8 from its first byte
UTF16_FILE = b"\xff\xfe" + "HANDSHAKE-IN CLIENTHELLO\n--\n".encode("utf-16-le")

# labels of one class with one labelled message: one label per class can be
# drawn, but no ARI scored
ONE_LABELLED = {"n_classes": 1, "labels": [0] + [-1] * (N - 1)}

# (case, command and its other arguments, {argument: file content, "short",
# or a function of the workspace file's JSON}, and optionally text that the
# line must hold), each a data error: exit 2 with one line on stderr,
# naming the file; "trace" is ingest's positional argument
BAD_DATA = [
    ("trace not UTF-8", "ingest", {"trace": UTF16_FILE}),
    ("trace key with '='", "ingest", {"trace": "A=B 1\n--\n"}),
    ("trace without messages", "ingest", {"trace": "# nothing\n"}),
    ("rules not UTF-8", "label", {"--rules": UTF16_FILE}),
    ("rules with a negative position", "label", {"--rules": "0 1 @-1=ABSENT\n"}),
    ("rules with class ids not from 0", "label", {"--rules": "1 0 HEAD=*\n"}),
    ("rules that match no message", "label", {"--rules": "0 1 NO-SUCH-KEY=*\n"}),
    ("corpus not JSON", "cluster", {"--corpus": "not json"}),
    ("corpus without arity", "cluster",
     {"--corpus": {"messages": [{"fields": ["A=1"], "source_id": "m0"}]}}),
    ("corpus messages not a list", "cluster", {"--corpus": {"arity": 1, "messages": 3}},
     "messages is an integer, not a list"),
    ("corpus top level a list", "cluster", {"--corpus": [1]},
     "the top level is a list, not an object"),
    ("corpus top level a string", "cluster", {"--corpus": '"ab"'},
     "the top level is a string, not an object"),
    ("corpus rows a string", "cluster", {"--corpus": lambda c: dict(c, rows="ab")},
     "rows is a string, not a list"),
    ("corpus row of another arity", "cluster",
     {"--corpus": lambda c: dict(c, rows=c["rows"] + [c["rows"][0][1:]])}),
    # format 2, rendered from the workspace corpus
    ("corpus row_id negative", "cluster",
     {"--corpus": _format2(lambda c: _first_row_ids(c, [-1]))}),
    ("corpus row_id out of range", "cluster",
     {"--corpus": _format2(lambda c: _first_row_ids(c, [len(c["rows"])]))}),
    ("corpus row_id 1.5", "cluster", {"--corpus": _format2(lambda c: _first_row_ids(c, [1.5]))}),
    ("corpus row_id true", "cluster",
     {"--corpus": _format2(lambda c: _first_row_ids(c, [True]))}),
    ("corpus source_ids shorter than row_ids", "cluster",
     {"--corpus": _format2(lambda c: dict(c, source_ids=c["source_ids"][1:]))}),
    ("corpus row_ids empty", "cluster",
     {"--corpus": _format2(lambda c: dict(c, row_ids=[], source_ids=[]))}),
    ("corpus source id not a string", "cluster",
     {"--corpus": _format2(lambda c: dict(c, source_ids=[None] + c["source_ids"][1:]))}),
    ("corpus row_ids an object in format 2", "cluster",
     {"--corpus": _format2(lambda c: dict(c, row_ids={}))}, "row_ids is an object, not a list"),
    # format 3, as the workspace corpus is written
    ("corpus of unknown format", "cluster", {"--corpus": lambda c: dict(c, format=4)}),
    ("corpus row_ids uint 3", "cluster", {"--corpus": lambda c: _array(c, "row_ids", uint=3)}),
    ("corpus row_ids uint true", "cluster",
     {"--corpus": lambda c: _array(c, "row_ids", uint=True)}),
    ("corpus group uint 1.0", "cluster", {"--corpus": lambda c: _array(c, "group", uint=1.0)}),
    ("corpus row_ids base64 not strict", "cluster",
     {"--corpus": lambda c: _array(c, "row_ids", base64="!" + c["row_ids"]["base64"])}),
    ("corpus number base64 truncated", "cluster",
     {"--corpus": lambda c: _array(c, "number", base64=c["source_ids"]["number"]["base64"][:-1])}),
    ("corpus row_ids bytes not a multiple of uint", "cluster",
     {"--corpus": lambda c: _array(c, "row_ids", uint=4, base64=_b64(bytes(N - 2)))}),
    ("corpus row_ids a list in format 3", "cluster",
     {"--corpus": lambda c: dict(c, row_ids=decode_uints(c["row_ids"], "").tolist())}),
    ("corpus row_id out of range in format 3", "cluster",
     {"--corpus": lambda c: _array(c, "row_ids", values=lambda v: [len(c["rows"])] + v[1:])}),
    ("corpus row_ids empty in format 3", "cluster",
     {"--corpus": lambda c: _source_ids(_array(c, "row_ids", base64=""),
                                        group=encode_uints([]), number=encode_uints([]))}),
    ("corpus group past the prefixes", "cluster",
     {"--corpus": lambda c: _source_ids(c, prefixes=c["source_ids"]["prefixes"][:1])}),
    ("corpus prefix not a string", "cluster",
     {"--corpus": lambda c: _source_ids(c, prefixes=[7] + c["source_ids"]["prefixes"][1:])}),
    ("corpus prefixes a string", "cluster", {"--corpus": lambda c: _source_ids(c, prefixes="ab")}),
    ("corpus number 2^63", "cluster",
     {"--corpus": lambda c: _array(c, "number", values=lambda v: [2**63] + v[1:])}),
    ("corpus group shorter than number", "cluster",
     {"--corpus": lambda c: _array(c, "group", values=lambda v: v[1:])}),
    ("corpus rule shorter than row_ids", "cluster",
     {"--corpus": lambda c: _array(_array(c, "group", values=lambda v: v[1:]),
                                   "number", values=lambda v: v[1:])}),
    ("corpus source_ids a string", "cluster", {"--corpus": lambda c: dict(c, source_ids="ab")}),
    ("corpus source_ids a number", "cluster", {"--corpus": lambda c: dict(c, source_ids=7)}),
    ("corpus without number", "cluster",
     {"--corpus": lambda c: dict(c, source_ids={k: v for k, v in c["source_ids"].items()
                                                if k != "number"})}),
    ("corpus row_ids without base64", "cluster",
     {"--corpus": lambda c: dict(c, row_ids={"uint": 1})}),
    ("corpus arity true", "cluster",
     {"--corpus": lambda c: dict(c, arity=True, rows=[r[:1] for r in c["rows"]])}),
    ("corpus arity 0", "cluster",
     {"--corpus": lambda c: dict(c, arity=0, rows=[[]] * len(c["rows"]))}),
    ("corpus token not a string", "cluster", {"--corpus": _int_tokens}),
    ("label corpus token not a string", "label", {"--corpus": _int_tokens}),
    ("corpus row a string", "cluster",
     {"--corpus": lambda c: dict(c, rows=["a" * c["arity"]] + c["rows"][1:])}),
    ("corpus nested 2 000 deep", "cluster", {"--corpus": _nested("rows")}),
    ("labels not JSON", "cluster", {"--labels": "{"}),
    ("labels nested 2 000 deep", "cluster", {"--labels": _nested("labels")}),
    ("labels top level a list", "cluster", {"--labels": [0, 1]},
     "the top level is a list, not an object"),
    ("labels top level a string", "cluster", {"--labels": '"012"'},
     "the top level is a string, not an object"),
    ("labels top level a number", "cluster", {"--labels": "3"},
     "the top level is an integer, not an object"),
    # format 1, a list of integers
    ("labels out of range", "cluster", {"--labels": {"n_classes": 2, "labels": [0, 5]}}),
    ("labels 1.5", "cluster",
     {"--labels": _format1_labels(lambda l: dict(l, labels=[1.5] + l["labels"][1:]))}),
    ("labels true", "cluster",
     {"--labels": _format1_labels(lambda l: dict(l, labels=[True] + l["labels"][1:]))}),
    ("labels an object in format 1", "cluster", {"--labels": {"n_classes": 2, "labels": {}}},
     "labels is an object, not a list"),
    ("labels a string in format 1", "cluster", {"--labels": {"n_classes": 2, "labels": "012"}},
     "labels is a string, not a list"),
    # format 2, as the workspace labels are written
    ("labels of unknown format", "cluster", {"--labels": lambda l: dict(l, format=3)},
     "unknown labels format 3"),
    ("labels format a string", "cluster", {"--labels": lambda l: dict(l, format="2")},
     "unknown labels format '2'"),
    ("labels format true", "cluster", {"--labels": lambda l: dict(l, format=True)},
     "unknown labels format True"),
    ("labels a list in format 2", "cluster",
     {"--labels": lambda l: dict(l, labels=decode_uints(l["labels"], "").tolist())},
     "labels is a list, not an object"),
    ("labels uint 3", "cluster", {"--labels": lambda l: _stored(l, uint=3)},
     "labels: uint 3 is not 1, 2, 4 or 8"),
    ("labels uint 1.0", "cluster", {"--labels": lambda l: _stored(l, uint=1.0)},
     "labels: uint 1.0 is not 1, 2, 4 or 8"),
    ("labels base64 not strict", "cluster",
     {"--labels": lambda l: _stored(l, base64="!" + l["labels"]["base64"])},
     "labels: bad base64"),
    ("labels base64 truncated", "cluster",
     {"--labels": lambda l: _stored(l, base64=l["labels"]["base64"][:-1])}, "labels: bad base64"),
    ("labels base64 a number", "cluster", {"--labels": lambda l: _stored(l, base64=7)},
     "labels: base64 is an integer, not a string"),
    ("labels bytes not a multiple of uint", "cluster",
     {"--labels": lambda l: _stored(l, uint=4, base64=_b64(bytes(N - 2)))},
     "labels: %d bytes is not a multiple of uint 4" % (N - 2)),
    ("labels stored value above n_classes", "cluster",
     {"--labels": lambda l: _stored(l, lambda v: [22] + v[1:])},
     "labels: stored value 22 is above n_classes 21"),
    # checked before the int64 cast, in which 2^63 would wrap to -2^63
    ("labels stored value 2^63", "cluster",
     {"--labels": lambda l: _stored(l, lambda v: [2**63] + v[1:])},
     "labels: stored value 9223372036854775808 is above n_classes 21"),
    ("labels without base64", "cluster", {"--labels": lambda l: dict(l, labels={"uint": 1})},
     "missing field 'base64'"),
    ("labels without n_classes", "cluster",
     {"--labels": lambda l: {"format": 2, "labels": l["labels"]}}, "missing field 'n_classes'"),
    ("labels of 0 classes", "cluster", {"--labels": _no_classes}),
    # each class needs a label, and no array is sized by a huge n_classes
    ("labels of 2^40 classes", "cluster --k 21", {"--labels": _huge_classes}),
    ("sweep-k labels of 2^40 classes", "sweep-k --k 2..3", {"--labels": _huge_classes}),
    ("labels n_classes beyond int64", "eval", {"--labels": lambda l: dict(l, n_classes=2**63)}),
    ("sweep-labels labels of 0 classes", "sweep-labels", {"--labels": _no_classes}),
    ("labels shorter than corpus", "sweep-k", {"--labels": "short"}),
    ("cluster one labelled message", "cluster --labels-per-class 1",
     {"--labels": ONE_LABELLED}, "ARI needs at least 2 labeled points, got 1"),
    ("eval one labelled message", "eval", {"--labels": ONE_LABELLED},
     "ARI needs at least 2 labeled points, got 1"),
    ("sweep-k one labelled message", "sweep-k --k 2..3", {"--labels": ONE_LABELLED},
     "ARI needs at least 2 labeled points, got 1"),
    ("sweep-labels one labelled message", "sweep-labels --counts 1",
     {"--labels": ONE_LABELLED}, "ARI needs at least 2 labeled points, got 1"),
    # a count beyond int64, which unbalanced mode once drew up to
    ("unbalanced labels per class beyond int64",
     "cluster --mode unbalanced --labels-per-class 9223372036854775808", {}),
    ("unbalanced label counts beyond int64",
     "sweep-labels --mode unbalanced --counts 100000000000000000000", {}),
    ("K range above the corpus size", "sweep-k --k 1..100000000000", {}),
    ("K list above the corpus size", "sweep-k --k 20,%d" % (N + 1), {}),
    # the workspace corpus, copied so that the line must name the copy
    ("cluster K above the corpus size", "cluster --k %d" % (N + 1), {"--corpus": lambda c: c}),
    ("sweep-labels K above the corpus size", "sweep-labels --k %d" % (N + 1),
     {"--corpus": lambda c: c}),
    ("model not JSON", "eval", {"--model": "not json"}),
    ("model nested 2 000 deep", "eval", {"--model": _nested("centroids")}),
    ("model without k", "eval", {"--model": {"assignments": [0]}}),
    ("model top level a list", "eval", {"--model": [SHORT_MODEL]},
     "the top level is a list, not an object"),
    ("model assignments an object", "eval", {"--model": dict(TWO_CLUSTERS, assignments={})},
     "assignments is an object, not a list"),
    ("model assignments a number", "eval", {"--model": dict(TWO_CLUSTERS, assignments=3)},
     "assignments is an integer, not a list"),
    ("model centroids a string", "eval", {"--model": dict(TWO_CLUSTERS, centroids="ab")},
     "centroids is a string, not a list"),
    ("model metric_weights an object", "eval",
     {"--model": dict(TWO_CLUSTERS, metric_weights={"a": [1.0], "b": [1.0]})},
     "metric_weights is an object, not a list"),
    ("model assignment 0.5", "eval",
     {"--model": dict(SHORT_MODEL, assignments=[0] * (N - 1) + [0.5])}),
    ("model and labels of different lengths", "eval", {"--model": "short"}),
    ("model assignment -1", "eval",
     {"--model": dict(TWO_CLUSTERS, assignments=[-1] + TWO_CLUSTERS["assignments"][1:])}),
    ("model assignment k", "eval",
     {"--model": dict(TWO_CLUSTERS, assignments=[2] + TWO_CLUSTERS["assignments"][1:])}),
    ("model with fewer centroids than k", "eval",
     {"--model": dict(TWO_CLUSTERS, centroids=[["A=1"]])}),
    ("model with more metrics than k", "eval",
     {"--model": dict(TWO_CLUSTERS, metric_weights=[[1.0]] * 3)}),
    ("model centroid of another arity", "eval",
     {"--model": dict(TWO_CLUSTERS, centroids=[["A=1"], ["A=2", "B=1", "C=1"]])}),
    ("model weight NaN", "eval",
     {"--model": dict(TWO_CLUSTERS, metric_weights=[[1.0], [float("nan")]])}),
    ("model centroid token a number", "eval",
     {"--model": dict(TWO_CLUSTERS, centroids=[[1], ["A=2"]])}),
    ("model centroid row a string", "eval",
     {"--model": dict(TWO_CLUSTERS, centroids=[["A=1"], "B"])}),
    ("model weight true", "eval", {"--model": dict(TWO_CLUSTERS, metric_weights=[[1.0], [True]])}),
    ("model weight a string", "eval",
     {"--model": dict(TWO_CLUSTERS, metric_weights=[[1.0], ["1"]])}),
    ("model objective true", "eval", {"--model": dict(TWO_CLUSTERS, objective=True)}),
    ("model objective beyond float", "eval", {"--model": dict(TWO_CLUSTERS, objective=10**400)}),
]


@pytest.mark.parametrize(
    "command,files,message", [(c[1], c[2], c[3] if len(c) > 3 else "") for c in BAD_DATA],
    ids=[c[0] for c in BAD_DATA]
)
def test_bad_data_exits_2_without_traceback(workspace, tmp_path, capsys, command, files, message):
    labels = load_labels(str(workspace / "labels.json"))
    shorts = {"--labels": LabelVector(labels.labels[:10], labels.n_classes).to_dict(),
              "--model": SHORT_MODEL}
    inputs = {"eval": ["--model", "--labels"], "ingest": [], "label": ["--corpus"]}.get(
        command.split()[0], ["--corpus", "--labels"])
    args = {flag: str(workspace / ("%s.json" % flag.strip("-"))) for flag in inputs}
    for flag, content in files.items():
        if callable(content):
            content = content(json.loads(Path(args[flag]).read_text()))
        content = shorts[flag] if content == "short" else content
        args[flag] = _write(tmp_path / ("%s.json" % flag.strip("-")), content)
    argv = command.split() + ["--out-dir", str(tmp_path / "out")]
    for flag, path in args.items():
        argv += [flag, path] if flag.startswith("--") else [path]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), err
    assert all(args[flag] in lines[0] for flag in files), err
    assert message in lines[0], err
    assert not (tmp_path / "out").exists()


def test_eval_accepts_the_model_the_bad_models_derive_from(workspace, tmp_path, capsys):
    model = _write(tmp_path / "model.json", TWO_CLUSTERS)
    code = run(["eval", "--model", model, "--labels", str(workspace / "labels.json"),
                "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "eval.json").read_text())["n"] == N


def run_subprocess(argv):
    """protoabs in a subprocess, so that stderr shows whatever a user would see."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "protoabs.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("bad_corpus,bad,code,prefix", [
    (False, ["--k", "0"], 1, "error: argument --k"),
    (True, [], 2, "data error: corpus "),
], ids=["usage", "data"])
def test_errors_of_a_real_run_are_one_line(workspace, tmp_path, bad_corpus, bad, code, prefix):
    """The in-process cases above cannot see what the interpreter itself
    prints; one usage error and one data error run `python -m protoabs.cli`."""
    corpus = str(workspace / "corpus.json")
    if bad_corpus:
        corpus = _write(tmp_path / "corpus.json", "not json")
    proc = run_subprocess([
        "cluster", "--corpus", corpus, "--labels", str(workspace / "labels.json"),
        "--out-dir", str(tmp_path / "out"),
    ] + bad)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert sum(line.startswith(("error: ", "data error: ")) for line in lines) == 1, proc.stderr
    assert lines[-1].startswith(prefix), proc.stderr
    assert not (tmp_path / "out").exists()


def test_cluster_writes_artifacts(workspace, tmp_path):
    out = tmp_path / "run"
    code = run([
        "cluster", "--corpus", str(workspace / "corpus.json"),
        "--labels", str(workspace / "labels.json"),
        "--algorithm", "mpck", "--k", "21", "--labels-per-class", "5",
        "--seed", "0", "--out-dir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["purity"] == 1.0
    assert report["ari"] == 1.0
    model = json.loads((out / "model.json").read_text())
    assert model["k"] == 21
    # SVG artifacts must be standalone parseable XML with one rect per cell
    svg = ET.parse(out / "confusion.svg").getroot()
    rects = [e for e in svg.iter() if e.tag.endswith("rect")]
    rows = len(report["confusion"])
    cols = len(report["confusion"][0])
    assert len(rects) == rows * cols
    header = (out / "confusion.csv").read_text().splitlines()[0]
    assert header.startswith("cluster,class_0")


def test_eval_subcommand(workspace, tmp_path):
    run_dir = tmp_path / "run"
    assert run([
        "cluster", "--corpus", str(workspace / "corpus.json"),
        "--labels", str(workspace / "labels.json"),
        "--algorithm", "kmeans", "--k", "21", "--out-dir", str(run_dir),
    ]) == 0
    out = tmp_path / "eval"
    assert run([
        "eval", "--model", str(run_dir / "model.json"),
        "--labels", str(workspace / "labels.json"), "--out-dir", str(out),
    ]) == 0
    direct = json.loads((run_dir / "eval.json").read_text())
    again = json.loads((out / "eval.json").read_text())
    assert direct == again


def test_labels_of_more_classes_than_messages_read_back(tmp_path):
    """`synth --n 5` and `label` on its corpus write 21 classes for 5
    messages; `eval` reads either file, and its confusion matrix has a
    column per class that a message has, whatever `n_classes` says."""
    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--n", "5", "--seed", "0"]) == 0
    assert run(["label", "--corpus", str(data / "corpus.json"), "--out-dir",
                str(tmp_path / "rules")]) == 0
    run_dir = tmp_path / "run"
    assert run(["cluster", "--corpus", str(data / "corpus.json"), "--labels",
                str(data / "labels.json"), "--algorithm", "kmeans", "--k", "2",
                "--out-dir", str(run_dir)]) == 0
    labels = load_labels(str(data / "labels.json"))
    assert labels.n_classes == 21 and len(labels) == 5
    _write(tmp_path / "huge.json", _huge_classes(json.loads((data / "labels.json").read_text())))
    reports = []
    for path in (data / "labels.json", tmp_path / "rules" / "labels.json", tmp_path / "huge.json"):
        out = tmp_path / ("eval-" + path.parent.name + path.stem)
        assert run(["eval", "--model", str(run_dir / "model.json"), "--labels", str(path),
                    "--out-dir", str(out)]) == 0
        reports.append((out / "eval.json").read_bytes() + (out / "confusion.csv").read_bytes())
        report = json.loads((out / "eval.json").read_text())
        assert report["col_ids"] == sorted(set(load_labels(str(path)).labels.tolist()))
    assert reports[0] == reports[2]
    # a labelled run needs a label of each of the 21 classes
    assert run(["cluster", "--corpus", str(data / "corpus.json"), "--labels",
                str(data / "labels.json"), "--k", "2", "--out-dir", str(run_dir)]) == 2


def test_sweep_k_artifacts(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert run([
        "sweep-k", "--corpus", str(workspace / "corpus.json"),
        "--labels", str(workspace / "labels.json"),
        "--k", "20..22", "--labels-per-class", "1", "--seed", "0,1",
        "--out-dir", str(out),
    ]) == 0
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0] == "k,seed,purity,ari,objective,iterations"
    assert len(lines) == 1 + 3 * 2 + 3  # runs plus per-K mean rows
    ET.parse(out / "sweep_k.svg")


def test_sweep_labels_artifacts_and_determinism(workspace, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = [
        "sweep-labels", "--corpus", str(workspace / "corpus.json"),
        "--labels", str(workspace / "labels.json"),
        "--counts", "1,2", "--seed", "0", "--mode", "unbalanced",
    ]
    assert run(argv + ["--out-dir", str(out1)]) == 0
    assert run(argv + ["--out-dir", str(out2)]) == 0
    assert (out1 / "sweep_labels.csv").read_bytes() == (out2 / "sweep_labels.csv").read_bytes()
    assert (out1 / "sweep_labels.svg").read_bytes() == (out2 / "sweep_labels.svg").read_bytes()


@pytest.mark.parametrize("mode", ["balanced", "unbalanced"])
def test_a_draw_over_more_classes_than_messages_fails_at_once(mode):
    labels = LabelVector(labels=[0, 1, 1], n_classes=2**40)
    with pytest.raises(InsufficientLabels, match=r"^1099511627776 classes need a label each, "
                       r"but there are 3 messages$"):
        draw_labeled_samples(labels, 1, 0, mode)
    assert draw_labeled_samples(labels, 0, 0, mode) == []


def test_zero_labels_per_class_draws_none_in_either_mode(workspace, tmp_path, capsys):
    """Unbalanced mode draws its per-class counts from 1..per_class; a count
    of 0 must draw nothing, as in balanced mode, not fail in the draw."""
    runs = []
    for mode in ("balanced", "unbalanced"):
        out = tmp_path / mode
        assert run([
            "cluster", "--corpus", str(workspace / "corpus.json"),
            "--labels", str(workspace / "labels.json"), "--labels-per-class", "0",
            "--mode", mode, "--seed", "1", "--out-dir", str(out),
        ]) == 0
        line = capsys.readouterr().out
        assert " must=0 cannot=0 " in line
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((line.split(" duration=")[0], files))
        assert draw_labeled_samples(load_labels(str(workspace / "labels.json")), 0, 1, mode) == []
    assert runs[0] == runs[1]
