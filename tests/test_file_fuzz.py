"""Mutated input files end in a documented exit code, never a traceback.

The valid N=300 outputs of `synth` (corpus.json, labels.json) and `cluster`
(model.json), the corpus' format-2 rendering and the labels' format-1
rendering, are mutated at one JSON node: a key or an element is deleted,
or the node is replaced with null, a bool, a negative, huge or fractional
number, NaN, a string, or an empty or nested list.  A base64 array of the
format-3 corpus or the format-2 labels may be mutated instead: its payload
loses 1 to 3 characters or gains a character outside the alphabet, or
becomes a valid payload whose length is not a multiple of its width.  A
rules file and a trace file are mutated at one line.  Each command that reads the mutated
file runs in-process through `cli.main`; it must exit 0, 1 or 2 with at
most one line on stderr, and raise nothing."""

import base64
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protoabs.cli import main
from protoabs.corpus_tools import DecodedTrace, load_corpus, load_labels, serialize_traces
from protoabs.tls_default import default_rules_text

N = 300

# each command, and the file that it reads for each input option; "trace"
# is ingest's positional argument
COMMANDS = {
    "cluster": {"--corpus": "corpus.json", "--labels": "labels.json"},
    "label": {"--corpus": "corpus.json", "--rules": "rules.txt"},
    "eval": {"--model": "model.json", "--labels": "labels.json"},
    "ingest": {"trace": "trace.txt"},
}

# the files saved in an older format too, by the name of the file as saved
OLDER = {"corpus.json": "corpus2.json", "labels.json": "labels1.json"}

VALUES = st.sampled_from([
    None, True, False, -1, -0.5, 0.5, 2**64, 10**400, float("nan"), "", "x", [], [[0]], [[]],
])
WORDS = st.sampled_from([
    "", "--", "#", "=", "*", "-1", "0", "3", "2.5", "99999999999999999999", "@-1=X", "@0=",
    "@40=A", "KEY=*", "A=B", "\x00", "é",
])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid files, by name, and a directory for the mutated ones."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--n", str(N), "--seed", "0", "--out-dir", str(root)]) == 0
    assert main(["cluster", "--corpus", str(root / "corpus.json"),
                 "--labels", str(root / "labels.json"), "--out-dir", str(root)]) == 0
    (root / "rules.txt").write_text(default_rules_text())
    # the messages as traces of 10, one row per token: KEY=value is `KEY value`
    messages = [tuple((k, (v,)) for k, _, v in (t.partition("=") for t in m.fields))
                for m in load_corpus(str(root / "corpus.json")).messages]
    traces = [DecodedTrace(tuple(messages[i:i + 10])) for i in range(0, N, 10)]
    (root / "trace.txt").write_text(serialize_traces(traces))
    (root / "corpus2.json").write_text(
        json.dumps(oracles.corpus_format2(load_corpus(str(root / "corpus.json")))))
    (root / "labels1.json").write_text(
        json.dumps(oracles.labels_format1(load_labels(str(root / "labels.json")))))
    files = {name: (root / name).read_text()
             for name in [*(n for inputs in COMMANDS.values() for n in inputs.values()),
                          *OLDER.values()]}
    mutated = root / "mutated"
    mutated.mkdir()
    return root, files, mutated


@st.composite
def json_mutations(draw, text):
    """The JSON object in `text` with one node deleted or replaced: step from
    the root into a random child, and on into its children while a coin
    says so."""
    doc = json.loads(text)
    parent = doc
    key = draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(VALUES)
    return json.dumps(doc)


def base64_arrays(node):
    """Every base64 array object in the JSON objects nested from `node`: a
    format-3 corpus' row_ids and source-id group and number, or format-2
    labels' labels."""
    if not isinstance(node, dict):
        return []
    if "base64" in node:
        return [node]
    return [array for value in node.values() for array in base64_arrays(value)]


@st.composite
def base64_mutations(draw, text):
    """The JSON object in `text` with one of its base64 arrays mutated."""
    doc = json.loads(text)
    array = draw(st.sampled_from(base64_arrays(doc)))
    payload = array["base64"]
    how = draw(st.sampled_from(["truncate", "insert", "misfit"]))
    if how == "truncate":
        array["base64"] = payload[:-draw(st.integers(1, 3))]
    elif how == "insert":
        at = draw(st.integers(0, len(payload)))
        array["base64"] = payload[:at] + draw(st.sampled_from("!-_. \n=é")) + payload[at:]
    else:
        width = draw(st.sampled_from([2, 4, 8]))
        size = draw(st.integers(1, 64).filter(lambda b: b % width))
        array.update(uint=width, base64=base64.b64encode(bytes(size)).decode("ascii"))
    return json.dumps(doc)


@st.composite
def line_mutations(draw, text):
    """`text` with one line deleted, or one word of it deleted, replaced or
    put in front."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    words = lines[i].split()
    j = draw(st.integers(0, len(words)))
    how = draw(st.sampled_from(["delete line", "delete word", "replace word", "insert word"]))
    if how == "delete line":
        del lines[i]
    elif how == "insert word" or j == len(words):
        words.insert(j, draw(WORDS))
    else:
        words[j:j + 1] = [] if how == "delete word" else [draw(WORDS)]
    if how != "delete line":
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_mutated_file_ends_in_a_documented_exit_code(valid, data):
    root, files, mutated = valid
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    option = data.draw(st.sampled_from(sorted(COMMANDS[command])))
    name = COMMANDS[command][option]
    mutate = json_mutations if name.endswith(".json") else line_mutations
    if name in OLDER:   # as saved, with base64 arrays, or in the older format
        name = data.draw(st.sampled_from([name, OLDER[name]]))
        if name not in OLDER.values():
            mutate = data.draw(st.sampled_from([json_mutations, base64_mutations]))
    (mutated / name).write_text(data.draw(mutate(files[name])))
    argv = [command, "--out-dir", str(mutated / "out")]
    for other, file in COMMANDS[command].items():
        path = str(mutated / name if other == option else root / file)
        argv += [path] if other == "trace" else [other, path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
