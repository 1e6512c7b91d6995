import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from protoabs.cli import build_parser, main
from protoabs.corpus_tools import DEFAULT_DROP_KEYS, load_labels
from protoabs.experiments import draw_labeled_samples
from protoabs.model import DEFAULT_ARITY


def run(argv):
    return main(argv)


N = 400


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synthetic corpus plus labels shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--out-dir", str(root), "--n", str(N), "--seed", "3"]) == 0
    return root


def test_synth_writes_corpus_and_labels(workspace):
    corpus = json.loads((workspace / "corpus.json").read_text())
    labels = json.loads((workspace / "labels.json").read_text())
    assert corpus["format"] == 2
    assert corpus["arity"] == 32
    assert len(corpus["row_ids"]) == len(corpus["source_ids"]) == N
    assert labels["n_classes"] == 21


def test_ingest_and_label(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "HANDSHAKE-IN CLIENTHELLO\nVERSION TLS_1_2\nRANDOM abc\n\n"
        "ALERT-IN CLOSENOTIFY\nLEVEL WARNING\nCODE 0\n--\n"
    )
    out = tmp_path / "out"
    assert run(["ingest", str(trace), "--out-dir", str(out), "--arity", "8"]) == 0
    corpus = json.loads((out / "corpus.json").read_text())
    assert len(corpus["row_ids"]) == len(corpus["source_ids"]) == 2
    assert run(["label", "--corpus", str(out / "corpus.json"), "--out-dir", str(out)]) == 0
    labels = json.loads((out / "labels.json").read_text())
    assert len(labels["labels"]) == 2


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
    ("synth", ["--noise-rate", "1.5"]),
    ("synth", ["--noise-rate", "nan"]),
    ("ingest", ["--seed", "-1"]),
    ("ingest", ["--arity", "0"]),
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


def _first_row_ids(corpus, ids):
    """The format-2 corpus with its first row_ids replaced by `ids`."""
    return dict(corpus, row_ids=ids + corpus["row_ids"][len(ids):])


def _int_tokens(corpus):
    """The format-2 corpus with each row's first token replaced by the
    row's number, so that no position mixes numbers and strings."""
    return dict(corpus, rows=[[i] + r[1:] for i, r in enumerate(corpus["rows"])])


def _no_classes(labels):
    """The labels with n_classes 0 and every message unlabelled."""
    return dict(labels, n_classes=0, labels=[-1] * len(labels["labels"]))


SHORT_MODEL = {"k": 1, "seed": 0, "iterations": 0, "objective": 0.0,
               "assignments": [0] * 10, "centroids": [["A=1"]], "metric_weights": [[1.0]]}
TWO_CLUSTERS = dict(SHORT_MODEL, k=2, assignments=[0, 1] * (N // 2),
                    centroids=[["A=1"], ["A=2"]], metric_weights=[[1.0], [1.0]])

# a trace file in UTF-16, byte-order mark first; not UTF-8 from its first byte
UTF16_FILE = b"\xff\xfe" + "HANDSHAKE-IN CLIENTHELLO\n--\n".encode("utf-16-le")

# (case, command and its other arguments, {argument: file content, "short",
# or a function of the workspace file's JSON}), each a data error: exit 2
# with one line on stderr, naming the file; "trace" is ingest's positional
# argument
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
    ("corpus messages not a list", "cluster", {"--corpus": {"arity": 1, "messages": 3}}),
    ("corpus row of another arity", "cluster",
     {"--corpus": lambda c: dict(c, rows=c["rows"] + [c["rows"][0][1:]])}),
    ("corpus row_id negative", "cluster", {"--corpus": lambda c: _first_row_ids(c, [-1])}),
    ("corpus row_id out of range", "cluster",
     {"--corpus": lambda c: _first_row_ids(c, [len(c["rows"])])}),
    ("corpus row_id 1.5", "cluster", {"--corpus": lambda c: _first_row_ids(c, [1.5])}),
    ("corpus row_id true", "cluster", {"--corpus": lambda c: _first_row_ids(c, [True])}),
    ("corpus source_ids shorter than row_ids", "cluster",
     {"--corpus": lambda c: dict(c, source_ids=c["source_ids"][1:])}),
    ("corpus row_ids empty", "cluster",
     {"--corpus": lambda c: dict(c, row_ids=[], source_ids=[])}),
    ("corpus of unknown format", "cluster", {"--corpus": lambda c: dict(c, format=3)}),
    ("corpus arity true", "cluster",
     {"--corpus": lambda c: dict(c, arity=True, rows=[r[:1] for r in c["rows"]])}),
    ("corpus arity 0", "cluster",
     {"--corpus": lambda c: dict(c, arity=0, rows=[[]] * len(c["rows"]))}),
    ("corpus token not a string", "cluster", {"--corpus": _int_tokens}),
    ("label corpus token not a string", "label", {"--corpus": _int_tokens}),
    ("corpus row a string", "cluster",
     {"--corpus": lambda c: dict(c, rows=["a" * c["arity"]] + c["rows"][1:])}),
    ("corpus source id not a string", "cluster",
     {"--corpus": lambda c: dict(c, source_ids=[None] + c["source_ids"][1:])}),
    ("labels not JSON", "cluster", {"--labels": "{"}),
    ("labels out of range", "cluster", {"--labels": {"n_classes": 2, "labels": [0, 5]}}),
    ("labels 1.5", "cluster", {"--labels": lambda l: dict(l, labels=[1.5] + l["labels"][1:])}),
    ("labels true", "cluster", {"--labels": lambda l: dict(l, labels=[True] + l["labels"][1:])}),
    ("labels of 0 classes", "cluster", {"--labels": _no_classes}),
    ("sweep-labels labels of 0 classes", "sweep-labels", {"--labels": _no_classes}),
    ("labels shorter than corpus", "sweep-k", {"--labels": "short"}),
    ("K range above the corpus size", "sweep-k --k 1..100000000000", {}),
    ("K list above the corpus size", "sweep-k --k 20,%d" % (N + 1), {}),
    # the workspace corpus, copied so that the line must name the copy
    ("cluster K above the corpus size", "cluster --k %d" % (N + 1), {"--corpus": lambda c: c}),
    ("sweep-labels K above the corpus size", "sweep-labels --k %d" % (N + 1),
     {"--corpus": lambda c: c}),
    ("model not JSON", "eval", {"--model": "not json"}),
    ("model without k", "eval", {"--model": {"assignments": [0]}}),
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
]


@pytest.mark.parametrize(
    "command,files", [c[1:] for c in BAD_DATA], ids=[c[0] for c in BAD_DATA]
)
def test_bad_data_exits_2_without_traceback(workspace, tmp_path, capsys, command, files):
    labels = json.loads((workspace / "labels.json").read_text())
    shorts = {"--labels": dict(labels, labels=labels["labels"][:10]), "--model": SHORT_MODEL}
    inputs = {"eval": ["--labels"], "ingest": [], "label": ["--corpus"]}.get(
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
