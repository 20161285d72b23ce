import dataclasses
import json
import sys

import pytest

from rootcause import cli
from rootcause.cli import main
from rootcause.config import Config
from rootcause.errors import ConfigError
from rootcause.llm import ReplayTransport
from rootcause.memory import Memory, _checksum
from rootcause.reasoner import evidence_digest
from rootcause.telemetry import export

from .conftest import walkthrough_store


def run_cli(*argv):
    return main(list(argv))


def test_print_config_matches_dataclass_defaults(capsys):
    assert run_cli("--print-config") == 0
    printed = json.loads(capsys.readouterr().out)
    defaults = dataclasses.asdict(Config())
    defaults["log_patterns"] = list(defaults["log_patterns"])
    assert printed == defaults


def test_print_config_reflects_overrides(capsys):
    assert run_cli("--n-sigma", "4.5", "--tau-skip", "0.9", "--print-config") == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_sigma"] == 4.5
    assert printed["tau_skip"] == 0.9


def test_invalid_thresholds_exit_two(capsys):
    assert run_cli("--tau-skip", "0.5", "--tau-partial", "0.9", "--print-config") == 2


def test_baseline_that_can_hold_no_sample_exits_two(tmp_path, capsys):
    Config().validate()
    Config(baseline_minutes=5.0).validate()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"baseline_minutes": 0}))
    assert run_cli("--config", str(path), "--print-config") == 2
    assert "baseline_minutes" in capsys.readouterr().err


def test_nonpositive_timeout_factor_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"timeout_factor": 0}))
    assert run_cli("--config", str(path), "--print-config") == 2
    assert "timeout_factor" in capsys.readouterr().err


def test_window_without_a_half_window_exits_two(capsys):
    # Agents look window_ms // 2 either side of an alert; 1 ms leaves 0.
    assert run_cli("--window-ms", "1", "--print-config") == 2
    assert "window_ms" in capsys.readouterr().err


def test_generate_deterministic_directories(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("--seed", "7", "generate", "--out", str(out1)) == 0
    assert run_cli("--seed", "7", "generate", "--out", str(out2)) == 0
    files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
    assert files1 == files2
    assert "truth.csv" in files1


def test_analyze_missing_topology_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    (data / "topology.csv").unlink()
    code = run_cli("analyze", "--data", str(data), "--out", str(tmp_path / "out"))
    assert code == 2  # missing input file is a usage problem
    assert "topology.csv" in capsys.readouterr().err


def test_analyze_malformed_row_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    traces = data / "traces.csv"
    lines = traces.read_text().splitlines()
    row = lines[1].split(",")
    row[6] = "noon"
    lines[1] = ",".join(row)
    traces.write_text("\n".join(lines) + "\n")
    code = run_cli("analyze", "--data", str(data), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "start_time_ms" in capsys.readouterr().err


def test_analyze_overflowing_integer_exits_one_naming_the_line(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    traces = data / "traces.csv"
    lines = traces.read_text().splitlines()
    row = lines[1].split(",")
    row[7] = "1.5e400"
    lines[1] = ",".join(row)
    traces.write_text("\n".join(lines) + "\n")
    code = run_cli("analyze", "--data", str(data), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "traces.csv:2: field duration_ms" in err[0]


def test_analyze_walkthrough_and_memory_rerun(tmp_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "out"
    export(walkthrough_store(), data)
    mem_path = tmp_path / "memory.jsonl"

    code = run_cli("--memory", str(mem_path), "analyze",
                   "--data", str(data), "--out", str(out))
    assert code == 0
    first_out = capsys.readouterr().out
    assert "service:recommendationservice" in first_out
    assert mem_path.exists()
    report = json.loads((out / "window_000.json").read_text())
    assert report["alerts"][0]["decision"]["kind"] == "Fresh"
    assert report["window_ranking"][0]["root_cause"] == "recommendationservice"
    transcripts = list((out / "transcripts").glob("*.json"))
    assert transcripts

    code = run_cli("--memory", str(mem_path), "analyze",
                   "--data", str(data), "--out", str(tmp_path / "out2"))
    assert code == 0
    second_out = capsys.readouterr().out
    assert "Reuse=1" in second_out
    report2 = json.loads((tmp_path / "out2" / "window_000.json").read_text())
    assert report2["alerts"][0]["decision"]["kind"] == "Reuse"
    assert report2["alerts"][0]["counters"]["policy_calls"] == 0
    assert report2["window_ranking"] == report["window_ranking"]


def test_eval_writes_report(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    for seed, kind in ((0, "MetricSpike"), (1, "LogBurst")):
        assert run_cli("--seed", str(seed), "generate", "--fault", kind,
                       "--out", str(corpus / f"sc{seed}")) == 0
    out = tmp_path / "report"
    assert run_cli("eval", "--data", str(corpus), "--out", str(out)) == 0
    text = (out / "report.csv").read_text()
    assert "recall_at_1,1.000000" in text
    assert (out / "records.csv").exists()


def test_memory_verify_detects_hand_corrupted_fingerprint(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    mem_path = tmp_path / "memory.jsonl"
    assert run_cli("--memory", str(mem_path), "analyze",
                   "--data", str(data), "--out", str(tmp_path / "out")) == 0
    capsys.readouterr()

    assert run_cli("--memory", str(mem_path), "memory", "verify") == 0
    assert "verified" in capsys.readouterr().out

    lines = mem_path.read_text().splitlines()
    body = json.loads(lines[1])
    body.pop("checksum")
    body["fingerprint"] = "f" * 64
    body["checksum"] = _checksum(body)
    lines[1] = json.dumps(body, sort_keys=True, separators=(",", ":"))
    mem_path.write_text("\n".join(lines) + "\n")

    assert run_cli("--memory", str(mem_path), "memory", "verify") == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_memory_list_and_show(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    mem_path = tmp_path / "memory.jsonl"
    run_cli("--memory", str(mem_path), "analyze",
            "--data", str(data), "--out", str(tmp_path / "out"))
    capsys.readouterr()
    assert run_cli("--memory", str(mem_path), "memory", "list") == 0
    listing = capsys.readouterr().out
    assert "alert=alert-1" in listing
    prefix = listing.splitlines()[1].split()[0][:8]
    assert run_cli("--memory", str(mem_path), "memory", "show",
                   "--fingerprint", prefix) == 0
    assert "ConfirmedRootCause" in capsys.readouterr().out


def test_replay_reproduces_stored_ranking(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    out = tmp_path / "out"
    run_cli("analyze", "--data", str(data), "--out", str(out))
    capsys.readouterr()
    transcript = next((out / "transcripts").glob("*.json"))
    assert run_cli("replay", str(transcript)) == 0
    rendered = capsys.readouterr().out
    assert "replay ok" in rendered
    assert "recommendationservice" in rendered


def test_replay_detects_tampered_ranking(tmp_path, capsys):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    out = tmp_path / "out"
    run_cli("analyze", "--data", str(data), "--out", str(out))
    path = next((out / "transcripts").glob("*.json"))
    doc = json.loads(path.read_text())
    doc["ranking"][0], doc["ranking"][1] = doc["ranking"][1], doc["ranking"][0]
    doc["ranking"][0]["rank"], doc["ranking"][1]["rank"] = 1, 2
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    capsys.readouterr()
    assert run_cli("replay", str(path)) == 1
    assert "MISMATCH" in capsys.readouterr().out


def _drop_first_step_stale(path):
    doc = json.loads(path.read_text())
    del doc["steps"][0]["stale"]
    path.write_text(json.dumps(doc))


def _edit_first_step_instruction(path):
    doc = json.loads(path.read_text())
    doc["steps"][0]["instruction"] += " (edited)"
    path.write_text(json.dumps(doc))


def _make_first_score_text(path):
    doc = json.loads(path.read_text())
    doc["ranking"][0]["score"] = "high"
    path.write_text(json.dumps(doc))


def _make_max_deviation_text_resealed(path):
    """A mistyped metric anomaly under a recomputed digest, so only the type is wrong."""
    doc = json.loads(path.read_text())
    step = next(s for s in doc["steps"] if s["metric_evidence"])
    step["metric_evidence"][0]["max_deviation"] = "big"
    del step["evidence_digest"]
    step["evidence_digest"] = evidence_digest(step)
    path.write_text(json.dumps(doc))


MALFORMED_TRANSCRIPTS = {  # name -> (edit of an exported transcript file, stderr after the path)
    "not JSON": (lambda path: path.write_text("{not json"), "not JSON: Expecting property name"),
    "step lacks stale": (_drop_first_step_stale, "'steps[0].stale' is missing"),
    "step edited": (_edit_first_step_instruction, "step 0 does not match its evidence digest"),
    "ranking score not a number": (_make_first_score_text, "'ranking[0].score' must be a number"),
    "steps not records": (lambda path: path.write_text(
        path.read_text().replace('"steps": [', '"steps": [1, ', 1)),
        "'steps[0]' must be a JSON object, got 1"),
    "not UTF-8": (lambda path: path.write_bytes(b"\xff" + path.read_bytes()), "malformed transcript"),
    "top level a list": (lambda path: path.write_text("[]"),
                         "top level must be a JSON object, got []"),
    "max_deviation as text, resealed": (
        _make_max_deviation_text_resealed,
        "'steps[4].metric_evidence[0].max_deviation' must be a number, got 'big'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRANSCRIPTS))
def test_replay_malformed_transcript_exits_one_naming_the_file(tmp_path, capsys, name):
    edit, message = MALFORMED_TRANSCRIPTS[name]
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    out = tmp_path / "out"
    run_cli("analyze", "--data", str(data), "--out", str(out))
    path = next((out / "transcripts").glob("*.json"))
    edit(path)
    capsys.readouterr()
    assert run_cli("replay", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: {path}: {message}")
    assert captured.out == ""


def test_explicit_window_bounds_override_detection(tmp_path, capsys):
    from .conftest import T0

    data = tmp_path / "data"
    export(walkthrough_store(), data)
    out = tmp_path / "out"
    code = run_cli("analyze", "--data", str(data), "--out", str(out),
                   "--window-start", str(T0 - 1000), "--window-end", str(T0 + 1000))
    assert code == 0
    report = json.loads((out / "window_000.json").read_text())
    assert report["window"] == {"start": T0 - 1000, "end": T0 + 1000}
    capsys.readouterr()
    # bounds excluding every alert: nothing to analyze
    code = run_cli("analyze", "--data", str(data), "--out", str(tmp_path / "out2"),
                   "--window-start", "1", "--window-end", "2")
    assert code == 0
    assert "nothing to analyze" in capsys.readouterr().out


def test_parallel_windows_match_sequential(tmp_path):
    # two scenarios merged into one data set give two disjoint windows
    from rootcause.scenario import ScenarioSpec, generate

    data1, data2 = tmp_path / "d1", tmp_path / "d2"
    generate(ScenarioSpec(fault_kind="MetricSpike", seed=1, victims=1)).write(data1)

    seq_out, par_out = tmp_path / "seq", tmp_path / "par"
    assert run_cli("analyze", "--data", str(data1), "--out", str(seq_out)) == 0
    assert run_cli("--parallel", "2", "analyze", "--data", str(data1),
                   "--out", str(par_out)) == 0
    seq = json.loads((seq_out / "window_000.json").read_text())
    par = json.loads((par_out / "window_000.json").read_text())
    assert seq["window_ranking"] == par["window_ranking"]


def test_missing_subcommand_exits_two(capsys):
    assert run_cli() == 2


@pytest.mark.parametrize("row, message", [
    ("pod,p-0,MetricSpike,x", "field seed is not an integer: 'x'"),
    ("pod,p-0", "expected 4 fields, got 2"),
])
def test_eval_malformed_truth_exits_one_naming_its_line(tmp_path, capsys, row, message):
    scenario = tmp_path / "corpus" / "sc0"
    scenario.mkdir(parents=True)
    (scenario / "truth.csv").write_text(f"level,component,fault_kind,seed\n{row}\n")
    assert run_cli("eval", "--data", str(tmp_path / "corpus"), "--out", str(tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {scenario / 'truth.csv'}:2: {message}"]


def test_replay_reads_the_document_once(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    export(walkthrough_store(), data)
    out = tmp_path / "out"
    run_cli("analyze", "--data", str(data), "--out", str(out))
    path = next((out / "transcripts").glob("*.json"))
    calls = []

    def counting(text):
        calls.append(text)
        return read(text)

    read = cli.read_transcript
    monkeypatch.setattr(cli, "read_transcript", counting)
    capsys.readouterr()
    assert run_cli("replay", str(path)) == 0
    assert "replay ok" in capsys.readouterr().out
    assert len(calls) == 1


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can recurse


def _memory_with_record(path, record):
    Memory(dim=16).persist(path)  # the manifest of an empty memory
    manifest = json.loads(path.read_text())
    manifest["entries"] = 1
    path.write_text(f"{json.dumps(manifest)}\n{record}\n")


def _session_log(path):
    """Reads the log as a ReplayTransport, reporting a refusal as main
    reports a ConfigError."""
    try:
        ReplayTransport(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


DEEPLY_NESTED = {  # reader -> (write the file, read it, exit code, stderr)
    "memory record": (lambda path: _memory_with_record(path, DEEP),
                      lambda path: run_cli("--memory", str(path), "memory", "list"),
                      1, "error: {path}:2: not JSON: nested too deeply"),
    "memory manifest": (lambda path: path.write_text(DEEP + "\n"),
                        lambda path: run_cli("--memory", str(path), "memory", "list"),
                        1, "error: {path}:1: not JSON: nested too deeply"),
    "exported transcript": (lambda path: path.write_text(DEEP),
                            lambda path: run_cli("replay", str(path)),
                            1, "error: {path}: not JSON: nested too deeply"),
    "config file": (lambda path: path.write_text(DEEP),
                    lambda path: run_cli("--config", str(path), "--print-config"),
                    2, "config error: config file {path}: not JSON: nested too deeply"),
    "replay session log": (lambda path: path.write_text(DEEP + "\n"), _session_log,
                           2, "config error: {path}:1: not JSON: nested too deeply"),
}


@pytest.mark.parametrize("name", sorted(DEEPLY_NESTED))
def test_deeply_nested_json_is_refused_at_its_location(tmp_path, capsys, name):
    write, read, code, message = DEEPLY_NESTED[name]
    path = tmp_path / "input"
    write(path)
    capsys.readouterr()
    assert read(path) == code
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith(message.format(path=path))
