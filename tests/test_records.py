"""One reader for every JSON record: each mistyped value is refused at its JSON path."""

import contextlib
import copy
import io
import json
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcause.cli import main
from rootcause.errors import DataError, EngineError
from rootcause.memory import Memory, _checksum, verify
from rootcause.reasoner import evidence_digest, read_transcript
from rootcause.records import read_record
from rootcause.telemetry import export

from .conftest import walkthrough_store


@dataclass(frozen=True)
class Inner:
    n: int
    x: float = 0.5

    def __post_init__(self):
        if self.n < 0:
            raise DataError("n must be >= 0")


@dataclass(frozen=True)
class Outer:
    name: str
    flag: bool
    note: str | None
    pair: tuple[int, float]
    tags: tuple[str, ...]
    inners: list[Inner]
    counts: dict[str, int]


GOOD = {"name": "a", "flag": True, "note": None, "pair": [1, 2], "tags": ["t"],
        "inners": [{"n": 1, "x": 3}], "counts": {"k": 2}}


def test_a_well_typed_record_is_read_with_its_field_types():
    out = read_record(Outer, GOOD)
    assert out == Outer("a", True, None, (1, 2.0), ("t",), [Inner(1, 3.0)], {"k": 2})
    assert isinstance(out.pair[1], float) and isinstance(out.inners[0].x, float)


def test_partial_takes_defaults_for_missing_keys_only():
    assert read_record(Inner, {"n": 2}, partial=True) == Inner(2)
    with pytest.raises(DataError, match="^'x' is missing$"):
        read_record(Inner, {"n": 2})
    with pytest.raises(DataError, match="^'n' is missing$"):
        read_record(Inner, {"x": 2.0}, partial=True)


REFUSED = {  # name -> (edit of GOOD, message)
    "bool for a number": (dict(pair=[1, True]), "'pair[1]' must be a number, got True"),
    "number for a bool": (dict(flag=1), "'flag' must be true or false, got 1"),
    "float for an integer": (dict(pair=[1.0, 2]), "'pair[0]' must be an integer, got 1.0"),
    "NaN": (dict(pair=[1, float("nan")]), "'pair[1]' must be a finite number, got nan"),
    "overflow": (dict(pair=[1, 10 ** 400]), "'pair[1]' must be a finite number"),
    "short fixed tuple": (dict(pair=[1]), "'pair' must be a list of 2 items, got [1]"),
    "number for an optional string": (dict(note=3), "'note' must be a string, got 3"),
    "string for a list": (dict(tags="t"), "'tags' must be a list, got 't'"),
    "list item": (dict(tags=["t", 4]), "'tags[1]' must be a string, got 4"),
    "dict value": (dict(counts={"k": "2"}), "'counts.k' must be an integer, got '2'"),
    "nested record": (dict(inners=[{"n": 1, "x": 0.5}, {"n": 1, "x": "big"}]),
                      "'inners[1].x' must be a number, got 'big'"),
    "nested rule": (dict(inners=[{"n": -1, "x": 0.5}]),
                    "'inners[0]' is refused: n must be >= 0"),
    "unknown key": (dict(extra=1), "'extra' is an unknown key"),
    "nested unknown key": (dict(inners=[{"n": 1, "x": 0.5, "y": 0}]),
                           "'inners[0].y' is an unknown key"),
    "missing nested key": (dict(inners=[{"n": 1}]), "'inners[0].x' is missing"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_mistyped_value_is_refused_at_its_json_path(name):
    edit, message = REFUSED[name]
    with pytest.raises(DataError) as err:
        read_record(Outer, {**GOOD, **edit})
    assert str(err.value).startswith(message)


def test_a_value_that_is_no_object_is_refused_at_the_top_level():
    with pytest.raises(DataError, match=r"^top level must be a JSON object, got \[1\]$"):
        read_record(Outer, [1])


# -- property: persisted memories and exported transcripts ---------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The walkthrough's persisted memory lines and exported transcript."""
    root = tmp_path_factory.mktemp("documents")
    export(walkthrough_store(), root / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--memory", str(root / "mem.jsonl"), "analyze",
                     "--data", str(root / "data"), "--out", str(root / "out")]) == 0
    exported = next((root / "out" / "transcripts").glob("*.json")).read_text()
    return root, (root / "mem.jsonl").read_text().splitlines(), json.loads(exported)


def leaves(node, path=()):
    """The path of every scalar in a parsed JSON document, leaving out its seals."""
    if isinstance(node, dict):
        items = [(k, v) for k, v in node.items() if k not in ("checksum", "evidence_digest")]
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return [path]
    return [leaf for key, child in items for leaf in leaves(child, path + (key,))]


def json_path(path) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_memory(root, lines, path, value):
    """Returns the refusal, or None once the edited record read back equal."""
    body = json.loads(lines[1])
    del body["checksum"]
    *parents, last = path
    target = body
    for key in parents:
        target = target[key]
    target[last] = value
    body["checksum"] = _checksum(body)
    edited = root / "edited.jsonl"
    edited.write_text(f"{lines[0]}\n{json.dumps(body)}\n")

    problems = verify(edited)
    code, out, _ = run_cli("--memory", str(edited), "memory", "verify")
    try:
        mem = Memory.load(edited)
    except EngineError as exc:
        refusal = str(exc)
        assert refusal.startswith(f"{edited}:2: ")
        assert problems == [refusal] and code == 1 and f"VIOLATION {refusal}" in out
        return refusal
    assert problems == [] and code == 0
    mem.persist(root / "again.jsonl")
    again = json.loads((root / "again.jsonl").read_text().splitlines()[1])
    del body["checksum"], again["checksum"]
    assert again == body  # 7 == 7.0: an int read into a float field
    return None


def check_transcript(root, base, path, value):
    """Returns the refusal, or None once the edited document read back equal."""
    doc = copy.deepcopy(base)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    if path[0] == "steps":  # reseal the edited step
        step = doc["steps"][path[1]]
        del step["evidence_digest"]
        step["evidence_digest"] = evidence_digest(step)
    edited = root / "edited.json"
    edited.write_text(json.dumps(doc))

    code, out, err = run_cli("replay", str(edited))
    try:
        transcript, topology, rows = read_transcript(edited.read_text())
    except DataError as exc:
        refusal = str(exc)
        assert (code, out, err) == (1, "", f"error: {edited}: {refusal}\n")
        return refusal
    assert code in (0, 1) and err == ""  # 1: the edit changed the ranking replay recomputes
    for step in doc["steps"]:
        del step["evidence_digest"]
    assert transcript.as_dict() == {k: doc[k] for k in ("alert_id", "stage_markers", "steps")}
    assert (topology.pod_to_service, topology.pod_to_node) == \
        (doc["topology"]["pod_to_service"], doc["topology"]["pod_to_node"])
    assert rows == doc["ranking"]
    return None


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
MAX_DEVIATION = ("steps", 4, "metric_evidence", 0, "max_deviation")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(["memory", "transcript"]), st.integers(0, 10 ** 6), JSON_SCALARS)
@example("memory", ("timestamp_ms",), "yesterday")
@example("memory", ("alert_id",), 7)
@example("memory", ("transcript", "steps", 0, "errored"), 0)
@example("memory", ("transcript", "steps", 0, "index"), "0")
@example("memory", ("transcript", "steps", 0, "trace_evidence", 0, "d"), "slow")
@example("memory", ("transcript",) + MAX_DEVIATION, "big")
@example("memory", ("transcript",) + MAX_DEVIATION, 7)
@example("transcript", MAX_DEVIATION, "big")
@example("transcript", MAX_DEVIATION, 7)
@example("transcript", MAX_DEVIATION, 10 ** 400)
@example("transcript", ("ranking", 0, "score"), 1)
def test_a_resealed_leaf_of_another_type_is_refused_at_its_path_or_read_back_equal(
    documents, kind, target, value
):
    root, lines, exported = documents
    base = json.loads(lines[1]) if kind == "memory" else exported
    paths = leaves(base)
    path = target if isinstance(target, tuple) else paths[target % len(paths)]
    assert path in paths
    old = base
    for key in path:
        old = old[key]
    if type(value) is type(old):
        return
    if kind == "memory":
        refusal = check_memory(root, lines, path, value)
    else:
        refusal = check_transcript(root, exported, path, value)
    if not (type(old) is float and type(value) is int):
        # Only an int in a float field may pass the reader, and then a rule
        # on its value, such as an embedding matching its graph, may refuse it.
        assert refusal is not None and f"'{json_path(path)}'" in refusal
