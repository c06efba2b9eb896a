"""CLI contract: records, exit codes, formats, and byte-for-byte reproducibility."""

import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from godelsim import beta, cli, collapse, universe
from godelsim.machine import (
    ID,
    Halted,
    LoopDetected,
    count_symbols,
    parse_machine_text,
    run_with_loop_detection,
    unary_id,
)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def records_of(payload):
    return [json.loads(line) for line in payload.splitlines()]


def corpus_path(name):
    return str(resources.files("godelsim").joinpath(f"data/corpus/{name}"))


def test_run_halting_machine_exit_zero():
    code, out, err = invoke("run", corpus_path("bb2.tm"))
    assert code == 0
    outcome = records_of(out)[-1]
    assert outcome["kind"] == "halted" and outcome["steps"] == 6 and outcome["ones"] == 4
    manifest = json.loads(err)
    assert manifest["record"] == "manifest"
    assert manifest["tool_version"].startswith("godelsim ")


def test_run_looping_machine_exit_two():
    code, out, _ = invoke("run", corpus_path("pingpong.tm"))
    assert code == 2
    assert records_of(out)[-1]["kind"] == "loop-detected"


def test_run_diverging_machine_exit_three():
    code, out, _ = invoke("run", corpus_path("grow_right.tm"), "--budget", "50")
    assert code == 3
    assert records_of(out)[-1] == {"record": "outcome", "kind": "budget-exceeded", "budget": 50}


def test_run_trace_lists_canonical_configurations():
    code, out, _ = invoke("run", corpus_path("write3.tm"), "--trace")
    assert code == 0
    visits = [r for r in records_of(out) if r["record"] == "visit"]
    assert [v["step"] for v in visits] == [0, 1, 2, 3]
    assert visits[-1]["tape"] == "0:1 1:1 2:1"


def test_run_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("states: q0\nalphabet: _\nstart: q0\nq0 _ -> zz _ R\n", "utf-8")
    code, out, err = invoke("run", str(bad))
    assert code == 1
    assert out == ""
    error, manifest = err.splitlines()
    message = f"error: {bad}: line 4, column 9: unknown state 'zz'"
    assert error == message
    assert json.loads(manifest)["outcome_summary"] == message


def test_beta_encode_record_matches_library():
    from godelsim.beta import beta_encode

    code, out, _ = invoke("beta", "encode", "3,1,4")
    assert code == 0
    pair = beta_encode([3, 1, 4])
    assert records_of(out) == [{"record": "pair", "b": pair.b, "c": pair.c}]


def test_beta_matches_emits_three_records():
    code, out, _ = invoke("beta", "matches", "0", "--bound", "2")
    assert code == 0
    assert len(records_of(out)) == 3


def test_beta_eval_and_predict_and_superpose():
    code, out, _ = invoke("beta", "eval", "7,1", "0")
    assert code == 0 and records_of(out) == [{"record": "value", "i": 0, "value": 1}]

    code, out, _ = invoke("beta", "predict", "0", "--bound", "2")
    assert code == 0
    rows = records_of(out)
    assert {(r["value"], r["count"]) for r in rows} == {(0, 2), (2, 1)}
    assert all(r["total"] == 3 for r in rows)

    code, out, _ = invoke("beta", "superpose", "0:1,2:3", "1:7")
    assert code == 0
    assert [(r["tag"], r["value"]) for r in records_of(out)] == [(0, 1), (1, 7), (2, 3)]

    code, _, err = invoke("beta", "superpose", "0:1", "0:2")
    assert code == 1 and "tags occur in both" in err
    # error paths still emit exactly one manifest record
    manifests = [l for l in err.splitlines() if '"record": "manifest"' in l]
    assert len(manifests) == 1


def test_universe_sim_record_counts_on_shipped_config():
    code, out, _ = invoke("universe", "sim", "--config", "uniform_pair", "--steps", "5")
    assert code == 0
    rows = records_of(out)
    signatures = [r for r in rows if r["record"] == "signature"]
    reports = [r for r in rows if r["record"] == "report"]
    assert len(signatures) == 10 and len(reports) == 1
    assert reports[0]["classification"] == "pre-destined"
    assert reports[0]["predictable"] and reports[0]["random"]


def test_collapse_demo_before_after_table():
    code, out, _ = invoke(
        "collapse", "demo", "--pred", "parity", "--k", "3", "--measure", "7", "--eval", "0..10"
    )
    assert code == 0
    rows = records_of(out)
    evals = [r for r in rows if r["record"] == "eval"]
    assert len(evals) == 11
    assert [r["before"] for r in evals[:4]] == [0, 1, 0, "loop"]
    assert [r["after"] for r in evals[:9]] == [0, 1, 0, 1, 0, 1, 0, 1, "loop"]
    assert rows[-1] == {"record": "horizons", "before": 3, "after": 8, "history": "3 8"}


def test_dovetail_cli_trace_and_outcome():
    code, out, _ = invoke(
        "dovetail",
        corpus_path("halt0.tm") + "=zero-of",
        corpus_path("pingpong.tm") + "=zero-of",
        "--sub-budget", "8",
        "--global-budget", "100",
    )
    assert code == 0
    rows = records_of(out)
    assert rows[-1]["kind"] == "first-success"
    assert rows[-1]["task"] == 0 and rows[-1]["trial"] == 0
    assert rows[0]["record"] == "event"


def test_a_dovetail_task_splits_at_its_last_equals_sign(tmp_path):
    machine = tmp_path / "a=b" / "counter.tm"
    machine.parent.mkdir()
    machine.write_text(Path(corpus_path("counter.tm")).read_text("utf-8"), "utf-8")
    argv = ("dovetail", "--global-budget", "40")
    code, out, err = invoke(*argv, f"{machine}=zero-of")
    assert code == 0, err
    assert out == invoke(*argv, corpus_path("counter.tm") + "=zero-of")[1]
    assert json.loads(json.loads(err)["inputs"])["tasks"] == [{"machine": str(machine), "accept": "zero-of"}]
    code, out, err = invoke(*argv, f"{machine}=a=b")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: task '{machine}=a=b' must end in =zero-of or =nonzero-of"


def test_missing_machine_file_is_a_clean_error(tmp_path):
    code, out, err = invoke("run", str(tmp_path / "ghost.tm"))
    assert code == 1 and out == ""
    assert "cannot read" in err


def test_corpus_verify_passes():
    code, out, _ = invoke("corpus", "verify")
    assert code == 0
    rows = records_of(out)
    assert rows[-1]["failed"] == 0


def test_csv_format_has_header_and_rows():
    code, out, _ = invoke("--format", "csv", "beta", "matches", "0", "--bound", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,c,record"
    assert len(lines) == 4


def test_gu_format_env_default(monkeypatch):
    # Read at every call: the calls after the first one reuse its parser.
    argv = ("beta", "matches", "0", "--bound", "2")
    monkeypatch.delenv("GU_FORMAT", raising=False)
    code, jsonl, _ = invoke(*argv)
    assert code == 0 and len(records_of(jsonl)) == 3

    monkeypatch.setenv("GU_FORMAT", "csv")
    code, out, _ = invoke("beta", "encode", "0")
    assert code == 0
    assert out.splitlines()[0] == "b,c,record"

    monkeypatch.setenv("GU_FORMAT", "xml")
    code, out, err = invoke(*argv)
    assert_one_line_error(code, out, err)
    assert err.splitlines()[0].startswith("error: argument --format: invalid choice: 'xml'")
    manifest = json.loads(err.splitlines()[1])
    assert (manifest["subcommand"], manifest["seed"]) == (None, None)

    assert invoke("--format", "jsonl", *argv)[:2] == (0, jsonl)


def test_repeated_invocations_are_byte_identical():
    first = invoke("universe", "sim", "--config", "mixed")
    second = invoke("universe", "sim", "--config", "mixed")
    assert first == second
    third = invoke("corpus", "verify")
    fourth = invoke("corpus", "verify")
    assert third == fourth


def test_exit_code_contract_on_full_corpus():
    from godelsim.corpus import ExpectDiverge, ExpectHalt, ExpectLoop, load_manifest

    expected_exit = {ExpectHalt: 0, ExpectLoop: 2, ExpectDiverge: 3}
    for entry in load_manifest():
        code, out, err = invoke(
            "run", corpus_path(entry.name), "--budget", str(entry.budget)
        )
        assert code == expected_exit[type(entry.expected)], entry.name
        outcome = records_of(out)[-1]
        if isinstance(entry.expected, ExpectHalt):
            # step counts come from the manifest, which plain simulation built
            assert outcome["steps"] == entry.expected.steps, entry.name
            assert outcome["ones"] == entry.expected.ones, entry.name
        elif isinstance(entry.expected, ExpectLoop):
            assert outcome["first_repeat_step"] == entry.expected.first_repeat_step
            assert outcome["period"] == entry.expected.period
        manifests = [l for l in err.splitlines() if '"record": "manifest"' in l]
        assert len(manifests) == 1, entry.name


def test_bad_inputs_are_clean_errors(tmp_path):
    assert invoke("beta", "eval", "7", "0")[0] == 1
    assert invoke("collapse", "demo", "--k", "2", "--eval", "abc")[0] == 1
    code, _, err = invoke("run", corpus_path("bb2.tm"), "--input", "unary:-1")
    assert code == 1 and "bad input spec" in err


def test_a_reversed_eval_range_is_a_clean_error():
    # 5..2 used to evaluate nothing and exit 0.
    code, out, err = invoke("collapse", "demo", "--k", "3", "--eval", "5..2")
    assert_one_line_error(code, out, err)
    assert err.splitlines()[0] == "error: bad range '5..2' (A..B needs A <= B)"
    code, out, _ = invoke("collapse", "demo", "--k", "3", "--eval", "2..2")
    assert code == 0 and [r["n"] for r in records_of(out) if r["record"] == "eval"] == [2]


def test_property_named_like_a_fixed_column_is_prefixed(tmp_path):
    config = tmp_path / "clash.json"
    config.write_text(
        '{"properties": ["t"], "particles": '
        '[{"id": 1, "providers": {"t": "uniform:constant,value=9"}}], "steps": 2}',
        encoding="utf-8",
    )
    code, out, _ = invoke("universe", "sim", "--config", str(config))
    assert code == 0
    rows = records_of(out)
    assert rows[0]["prop_t"] == 9 and rows[0]["t"] == 0


def test_properties_that_map_to_one_column_are_a_config_error(tmp_path):
    # "record" becomes the column prop_record, which the property prop_record also names.
    config = tmp_path / "collide.json"
    providers = {"record": "uniform:constant,value=1", "prop_record": "uniform:constant,value=2"}
    config.write_text(
        json.dumps({"properties": ["record", "prop_record"], "particles": [{"id": 1, "providers": providers}]}),
        encoding="utf-8",
    )
    for fmt in ("jsonl", "csv"):
        code, out, err = invoke("--format", fmt, "universe", "sim", "--config", str(config))
        assert_one_line_error(code, out, err)
        line = err.splitlines()[0]
        assert str(config) in line and "'record'" in line and "'prop_record'" in line


def assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("error: ")
    assert json.loads(lines[1])["record"] == "manifest"
    assert "Traceback" not in err


def test_run_negative_budget_is_a_clean_error():
    code, out, err = invoke("run", corpus_path("grow_right.tm"), "--budget", "-1")
    assert_one_line_error(code, out, err)
    assert "budget" in err.splitlines()[0]


def test_run_reading_a_foreign_symbol_is_a_clean_error():
    code, out, err = invoke("run", corpus_path("grow_right.tm"), "--input", "cells:0=x")
    assert_one_line_error(code, out, err)
    assert "'x'" in err.splitlines()[0]


def test_records_before_an_error_stay_in_jsonl_and_csv_writes_none():
    argv = ("run", corpus_path("grow_right.tm"), "--input", "cells:0=x", "--trace")
    code, out, err = invoke(*argv)
    assert code == 1 and "Traceback" not in err
    assert records_of(out) == [{"record": "visit", "step": 0, "state": "g", "head": 0, "tape": "0:x"}]
    assert_one_line_error(*invoke("--format", "csv", *argv))


def test_run_foreign_symbol_never_read_runs_as_before():
    # grow_right only moves right, so the head never reaches cell -1.
    code, out, _ = invoke("run", corpus_path("grow_right.tm"), "--input", "cells:-1=x", "--budget", "20")
    assert code == 3
    assert records_of(out)[-1] == {"record": "outcome", "kind": "budget-exceeded", "budget": 20}


@pytest.mark.parametrize("flag", ["--sub-budget", "--global-budget"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_dovetail_nonpositive_budget_is_a_clean_error(flag, value):
    code, out, err = invoke("dovetail", corpus_path("halt0.tm") + "=zero-of", flag, value)
    assert_one_line_error(code, out, err)
    assert flag.lstrip("-") in err.splitlines()[0]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("beta", "matches", "0", "--bound", "0"), "bound"),
        (("beta", "predict", "0,1", "--bound", "-2"), "bound"),
        (("beta", "eval", "7,1", "-1"), "index"),
        (("beta", "eval", "1,0", "0"), "c must be >= 1"),
        (("collapse", "demo", "--k", "2", "--measure", "-1"), "measure"),
        (("universe", "sim", "--config", "uniform_pair", "--window", "0"), "window"),
        (("universe", "sim", "--config", "uniform_pair", "--steps", "-1"), "steps"),
    ],
    ids=[
        "matches-bound", "predict-bound", "eval-index", "eval-pair", "collapse-measure",
        "universe-window", "universe-steps",
    ],
)
def test_out_of_range_naturals_are_clean_errors(argv, name):
    code, out, err = invoke(*argv)
    assert_one_line_error(code, out, err)
    assert name in err.splitlines()[0]


@pytest.mark.parametrize(
    "spec",
    [
        "uniform:affine,a=x",
        "uniform:affine,a=1,b=0,mod=0,start=0",
        "uniform:table,values=",
        "horizon:parity,k0=x",
        "uniform:machine,file=missing.tm",
        f"uniform:machine,file={corpus_path('halt0.tm')},budget=-1",
        "horizon:parity,k0=0",
        "uniform:bogus",
        5,
        ["uniform:constant,value=1"],
        "uniform:constant,value=1,value=2",
        "horizon:parity,k0=2,k0=5",
        "uniform:constant,value=-1",
        "uniform:counter,step=-1",
        "uniform:table,values=1|-2",
    ],
    ids=[
        "affine-not-a-number", "affine-mod-zero", "table-empty-value",
        "horizon-k0", "machine-missing-file", "machine-negative-budget",
        "horizon-k0-zero", "uniform-unknown-rule", "spec-int", "spec-list",
        "repeated-value", "repeated-k0", "constant-negative", "counter-negative-step",
        "table-negative-entry",
    ],
)
def test_bad_provider_spec_is_a_clean_error(tmp_path, spec):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps({"properties": ["p"], "particles": [{"id": 1, "providers": {"p": spec}}]}),
        encoding="utf-8",
    )
    code, out, err = invoke("universe", "sim", "--config", str(config))
    assert_one_line_error(code, out, err)
    line = err.splitlines()[0]
    assert repr(spec) in line
    assert line.startswith(f"error: {config}: provider for 'p' of particle 1")


BOUNCE_TM = "states: a b\nalphabet: _ 1\nstart: a\na 1 -> a 1 R\na _ -> b _ L\nb 1 -> a 1 R\n"
NOX_TM = "states: a b\nalphabet: _ x\nstart: a\na _ -> b x R\n"
LOOP_TM = "states: a b\nalphabet: _ 1\nstart: a\na _ -> b _ R\nb _ -> a _ L\n"
# (machine, --steps, the provider's own error); each halts on the blank tape of t=0 with
# no ones, or fails there.
FAILING_RULES = [
    # The walker bounces between the last 1 and the blank past it from t=1 on.
    (BOUNCE_TM, 3, "machine rule looped at t=1; uniform rules must terminate"),
    # No symbol 1: t ones cannot be read from t=1 on.
    (NOX_TM, 3, "machine rule cannot read its input at t=1: symbol '1' not in machine alphabet"),
    # A loop on the blank tape: at --steps 0, which writes no row, the t=0 check finds it.
    (LOOP_TM, 2, "machine rule looped at t=0; uniform rules must terminate"),
    (LOOP_TM, 0, "machine rule looped at t=0; uniform rules must terminate"),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_uniform_rule_that_fails_mid_simulation_names_its_provider(tmp_path, fmt):
    config = tmp_path / "rule.json"
    config.write_text(
        json.dumps({"properties": ["p"], "particles": [{"id": 1, "providers": {"p": "uniform:machine,file=rule.tm"}}]}),
        encoding="utf-8",
    )
    for machine, steps, error in FAILING_RULES:
        (tmp_path / "rule.tm").write_text(machine, encoding="utf-8")
        code, out, err = invoke("--format", fmt, "universe", "sim", "--config", str(config), "--steps", str(steps))
        assert code == 1 and "Traceback" not in err
        # JSONL has written the row of t=0 by then; CSV drops every unwritten record.
        row = '{"p": 0, "particle": 1, "record": "signature", "t": 0}\n'
        assert out == (row if fmt == "jsonl" and "t=1" in error else "")
        line, manifest = err.splitlines()
        assert line == f"error: {config}: provider for 'p' of particle 1: {error}"
        manifest = json.loads(manifest)
        assert manifest["record"] == "manifest" and manifest["outcome_summary"] == line
        assert json.loads(manifest["inputs"]) == {"config": os.path.abspath(config), "steps": steps, "window": 3}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_beta_encode_past_the_int_digit_limit():
    # c = 1559! has more digits than Python converts to text by default.
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke("beta", "encode", "1559")
    assert code == 0 and "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit
    pair = beta.beta_encode([1559])
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(pair.c)) > limit
        record = {"record": "pair", "b": pair.b, "c": pair.c}
        assert out == json.dumps(record, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "config, name",
    [
        ({"steps": "x"}, "steps"),
        ({"window": "x"}, "window"),
        ({"particles": [{"id": 1, "providers": {"p": "uniform:constant,value=1"},
                         "initial": {"p": "one"}}]}, "initial value for 'p'"),
        ({"properties": 5}, "properties"),
        ({"particles": [{"id": 1, "providers": {"p": "uniform:constant,value=1"},
                         "initial": 5}]}, "initial"),
        ({"particles": [{"id": 1, "providers": ["x"]}]}, "providers"),
        ({"steps": 2.7}, "steps"),
        ({"window": True}, "window"),
        ({"particles": [{"id": 1, "providers": {"p": "uniform:constant,value=3"},
                         "initial": {"p": 3.9}}]}, "initial value for 'p'"),
        ({"particles": [{"id": 1.5, "providers": {"p": "uniform:constant,value=1"}}]}, "integer id"),
        ({"particles": [{"id": False, "providers": {"p": "uniform:constant,value=1"}}]}, "integer id"),
        ({"properties": [True]}, "properties entry True"),
        ({"properties": ["p", 5]}, "properties entry 5"),
        ({"values": [["a"]]}, "values entry ['a']"),
        ({"propertiez": ["q"]}, "unknown key 'propertiez'"),
        ({"particles": [{"id": 1, "provider": {"p": "uniform:constant,value=1"}}]},
         "unknown key 'provider' of particle 1"),
        ({"properties": [""]}, "properties entry ''"),
        ({"properties": ["\ud800"]}, "properties entry '\\ud800'"),
        ({"particles": [{"id": 1, "providers": {"p": f"uniform:machine,file={corpus_path('pingpong.tm')}"},
                         "initial": {"p": 0}}]},
         "initial value for 'p' of particle 1: machine rule looped at t=0"),
    ],
    ids=[
        "steps", "window", "initial", "properties-shape", "initial-shape", "providers-shape",
        "steps-float", "window-bool", "initial-float", "id-float", "id-bool",
        "properties-bool", "properties-int", "values-list", "top-level-key", "particle-key",
        "properties-empty-name", "properties-lone-surrogate", "initial-on-a-rule-that-loops-at-t0",
    ],
)
def test_config_value_not_an_integer_is_a_clean_error(tmp_path, config, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"properties": ["p"], **config}), encoding="utf-8")
    code, out, err = invoke("universe", "sim", "--config", str(path))
    assert_one_line_error(code, out, err)
    assert name in err.splitlines()[0]


def test_a_name_with_no_utf8_form_is_a_clean_error_in_csv(tmp_path):
    # Refused at load, before any output: CSV used to write the name to a UTF-8 stdout
    # and end in a UnicodeEncodeError traceback.  JSONL is a case of the test above.
    path = tmp_path / "surrogate.json"
    providers = {"\ud800": "uniform:constant,value=1"}
    path.write_text(
        json.dumps({"properties": ["\ud800"], "particles": [{"id": 1, "providers": providers}]}),
        encoding="utf-8",
    )
    code, out, err = invoke("--format", "csv", "universe", "sim", "--config", str(path))
    assert_one_line_error(code, out, err)
    assert err.splitlines()[0] == (
        f"error: {path}: properties entry '\\ud800' must be a non-empty UTF-8 string"
    )


def test_config_that_is_a_directory_is_a_clean_error(tmp_path):
    code, out, err = invoke("universe", "sim", "--config", str(tmp_path))
    assert_one_line_error(code, out, err)
    assert str(tmp_path) in err.splitlines()[0]


@pytest.mark.parametrize(
    "argv, env, parsed",
    [
        ((), None, False),
        (("run",), None, False),
        (("run", corpus_path("bb2.tm"), "--budget", "abc"), None, False),
        (("--seed", "x", "corpus", "verify"), None, False),
        (("corpus", "verify"), "xml", False),
        (("collapse", "demo", "--k", "2", "--eval", "-3"), None, True),
        (("--format", "csv", "dovetail", corpus_path("pingpong.tm") + "=zero-of",
          "--global-budget", "50"), None, True),
        (("--format", "csv", "dovetail", corpus_path("halt0.tm") + "=nonzero-of",
          "--global-budget", "50"), None, True),
    ],
    ids=[
        "no-command", "run-no-machine", "budget-not-a-number", "seed-not-a-number",
        "gu-format-xml", "collapse-eval-negative", "dovetail-zero-of-without-1",
        "dovetail-nonzero-of-without-1",
    ],
)
def test_every_bad_input_takes_the_one_error_path(monkeypatch, argv, env, parsed):
    # Usage errors used to exit 2 (the loop-detected code) with no manifest;
    # the rest raised a traceback.
    if env is None:
        monkeypatch.delenv("GU_FORMAT", raising=False)
    else:
        monkeypatch.setenv("GU_FORMAT", env)
    code, out, err = invoke(*argv)
    assert_one_line_error(code, out, err)
    manifest = json.loads(err.splitlines()[1])
    if not parsed:
        assert (manifest["subcommand"], manifest["seed"], manifest["inputs"]) == (None, None, "{}")


def test_help_still_exits_zero_without_a_manifest():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
        cli.main(["run", "--help"])
    assert info.value.code == 0
    assert out.getvalue().startswith("usage: gu run") and err.getvalue() == ""


def test_a_reader_that_closes_stdout_early_gets_exit_one_and_one_manifest():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "godelsim.cli", "run", corpus_path("grow_right.tm"), "--budget", "5000"]
    proc = subprocess.Popen(
        [*argv, "--trace"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert json.loads(first)["record"] == "visit"
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    manifest = json.loads(lines[0])
    assert manifest["record"] == "manifest" and manifest["subcommand"] == "run"
    assert manifest["outcome_summary"].startswith("error: ")


# --- one parser per process ------------------------------------------------------


def call(*argv):
    """``invoke``, with a ``SystemExit`` (as ``--help`` raises) caught and returned."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(monkeypatch):
    monkeypatch.delenv("GU_FORMAT", raising=False)
    calls = [
        ("run",),
        ("run", "--help"),
        ("run", corpus_path("write3.tm"), "--trace"),
        ("dovetail", corpus_path("halt0.tm") + "=zero-of", corpus_path("pingpong.tm") + "=zero-of",
         "--sub-budget", "8", "--global-budget", "100"),
    ]
    firsts = []
    for argv in calls:
        cli.build_parser.cache_clear()
        firsts.append(call(*argv))
    assert [code for code, _, _ in firsts] == [1, ("SystemExit", 0), 0, 0]
    assert firsts[0][2].startswith("error: the following arguments are required: machine\n")
    assert firsts[1][2] == ""

    cli.build_parser.cache_clear()
    assert [call(*argv) for argv in calls * 2] == firsts * 2
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(calls) - 1)


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import godelsim.cli as cli; print(cli.build_parser.cache_info().misses)"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "0\n"


# --- any argv: one exit code, one manifest, never a traceback ----------------------


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Files a fuzzed argv may name: every shape of bad file next to the good ones."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "bad-json.json": "{",
        "not-an-object.json": "[]",
        "shapes.json": json.dumps({"properties": ["p"], "particles": [{"id": 1, "providers": ["x"]}]}),
        "bad-spec.json": json.dumps(
            {"properties": ["p"], "particles": [{"id": 1, "providers": {"p": "uniform:affine,a=x"}}]}
        ),
        "bad-steps.json": json.dumps({"steps": "x"}),
        "bad.tm": "states: q0\nalphabet: _\nstart: q0\nq0 _ -> zz _ R\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "not-utf8.json").write_bytes(b"\xff\xfe{")
    (root / "not-utf8.tm").write_bytes(b"states: q0\n\xff\n")
    machines = [corpus_path(name) for name in ("bb2.tm", "pingpong.tm", "grow_right.tm", "halt0.tm")]
    made = [str(root / name) for name in files] + [str(root / "not-utf8.json"), str(root / "not-utf8.tm")]
    odd = [str(root / "missing.tm"), str(root), "", "x" * 5000]  # the last is too long a file name
    return {
        "machines": machines + made + odd,
        "configs": ["uniform_pair", "mixed", "horizon_only", "constant_world", "nope"] + made + odd,
    }


SMALL = [str(n) for n in range(13)]
JUNK = ["", "-1", "-0", "abc", "1.5", "0x10", "--nope"]
HUGE = ["9" * 30, "-" + "9" * 30]


def fuzz_argv(draw, paths):
    """An argv over every subcommand and flag; about one in four runs to an outcome.

    Every budget, bound, step count, range and ``beta encode`` value is at most 12,
    so no call runs long; only flags whose cost does not grow with the value also
    draw 30-digit tokens.
    """

    def number(big=False):
        return draw(st.sampled_from(SMALL + JUNK + (HUGE if big else [])))

    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["jsonl", "csv"] * 3 + ["xml", ""]))]
    if draw(st.booleans()):
        argv += ["--seed", number(big=True)]
    command = draw(st.sampled_from(["run", "beta", "dovetail", "universe", "collapse", "corpus", "nope"]))
    if command == "run":
        argv += ["run", draw(st.sampled_from(paths["machines"]))]
        spec = draw(st.sampled_from(["blank", "unary", "cells", "weird"]))
        if spec == "unary":
            spec = f"unary:{number()}"
        elif spec == "cells":
            cells = [f"{number()}={draw(st.sampled_from('_1x'))}" for _ in range(draw(st.integers(0, 2)))]
            spec = "cells:" + ",".join(cells)
        argv += ["--input", spec, "--budget", number()]
        if draw(st.booleans()):
            argv.append("--trace")
    elif command == "beta":
        sub = draw(st.sampled_from(["encode", "eval", "matches", "predict", "superpose", "nope"]))
        argv += ["beta", sub]
        seq = ",".join(number() for _ in range(draw(st.integers(0, 3))))
        if sub == "encode":
            argv.append(seq)
        elif sub == "eval":
            argv += [f"{number(big=True)},{number(big=True)}", number(big=True)]
        elif sub in ("matches", "predict"):
            argv += [seq, "--bound", number()]
        elif sub == "superpose":
            argv += [",".join(f"{number()}:{number()}" for _ in range(draw(st.integers(0, 3))))
                     for _ in range(2)]
    elif command == "dovetail":
        argv.append("dovetail")
        for _ in range(draw(st.integers(1, 2))):
            predicate = draw(st.sampled_from(["zero-of", "nonzero-of"] * 3 + ["maybe", ""]))
            argv.append(draw(st.sampled_from(paths["machines"])) + "=" + predicate)
        argv += ["--sub-budget", number(big=True), "--global-budget", number()]
    elif command == "universe":
        argv += ["universe", "sim", "--config", draw(st.sampled_from(paths["configs"]))]
        argv += ["--steps", number(), "--window", number(big=True)]
    elif command == "collapse":
        predicate = draw(st.sampled_from(["parity", "pi", "const=", "mod=", "nope"]))
        if predicate.endswith("="):
            predicate += number(big=predicate == "mod=")
        argv += ["collapse", "demo", "--pred", predicate, "--k", number(big=True)]
        if draw(st.booleans()):
            argv += ["--measure", number(big=True)]
        argv += ["--eval", draw(st.sampled_from([f"{number()}..{number()}", number()]))]
    elif command == "corpus":
        argv += ["corpus", "verify"]
    else:
        argv.append(command)
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    if argv and draw(st.integers(0, 19)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.data())
def test_any_argv_gives_one_exit_code_and_one_manifest(fuzz_paths, data):
    argv = data.draw(st.composite(fuzz_argv)(fuzz_paths), label="argv")
    code, _, err = invoke(*argv)
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    manifests = [line for line in lines if line.startswith('{"inputs"')]
    assert len(manifests) == 1 and lines[-1] == manifests[0]
    assert json.loads(manifests[0])["record"] == "manifest"


# --- any mutation of a shipped config: its rows and one report, or one error line --

SHIPPED_CONFIGS = ["uniform_pair", "mixed", "horizon_only", "constant_world"]
# One JSON value of each type, so that a swap can draw one of another type.
JSON_SAMPLES = [None, True, 3, 2.5, "p", [], ["p"], {}, {"p": 1}]
# The fixed record columns, and the column a property named "record" moves to.
COLUMN_NAMES = ["record", "prop_record", "t", "particle"]


def json_spots(node):
    """``(container, key)`` for each value below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from json_spots(child)


def mutate_config(draw, config):
    """Swap a value's JSON type, drop or misspell a key, make a name or an id equal
    another, or put an int out of range.  Every int drawn is small, so runs are short."""
    spots = list(json_spots(config))
    parent, key = draw(st.sampled_from(spots))
    old = parent[key]
    leaves = [c[k] for c, k in spots if type(c[k]) in (int, str)] + [k for c, k in spots if type(k) is str]
    texts = [on_key for on_key, text in ((True, key), (False, old)) if isinstance(text, str) and text]
    mutation = draw(st.sampled_from(["swap", "drop", "misspell", "collide", "range"]))
    if mutation in ("misspell", "collide") and texts:
        on_key = draw(st.sampled_from(texts))
        text = key if on_key else old
        if mutation == "misspell":
            cut = draw(st.integers(0, len(text) - 1))
            new = text[:cut] + text[draw(st.integers(cut + 1, len(text))):]
        else:
            new = draw(st.sampled_from([v for v in leaves if type(v) is str] + COLUMN_NAMES))
        if on_key:
            parent[new] = parent.pop(key)
        else:
            parent[key] = new
    elif mutation == "collide" and type(old) is int:
        parent[key] = draw(st.sampled_from([v for v in leaves if type(v) is int]))
    elif mutation == "swap":
        parent[key] = draw(st.sampled_from([v for v in JSON_SAMPLES if type(v) is not type(old)]))
    elif mutation == "drop":
        del parent[key]
    elif type(old) is int:
        parent[key] = draw(st.integers(-3, 2))
    elif isinstance(old, str) and old.startswith(("uniform:", "horizon:")):
        runs = list(re.finditer(r"\d+", old))
        if runs and draw(st.booleans()):
            run = draw(st.sampled_from(runs))
            parent[key] = old[:run.start()] + str(draw(st.integers(-3, 2))) + old[run.end():]
        else:
            a, b, mod, start = (draw(st.integers(-3, 2)) for _ in range(4))
            parent[key] = f"uniform:affine,a={a},b={b},mod={mod},start={start}"


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.json"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_any_mutated_shipped_config_gives_its_rows_or_one_error_naming_it(mutant_path, data):
    name = data.draw(st.sampled_from(SHIPPED_CONFIGS), label="config")
    config = json.loads(resources.files("godelsim").joinpath(f"data/configs/{name}.json").read_text("utf-8"))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        mutate_config(data.draw, config)
    note(json.dumps(config))
    mutant_path.write_text(json.dumps(config), encoding="utf-8")
    fmt = data.draw(st.sampled_from(["jsonl", "csv"]), label="format")
    code, out, err = invoke("--format", fmt, "universe", "sim", "--config", str(mutant_path))
    if code != 0:
        assert_one_line_error(code, out, err)
        assert str(mutant_path) in err.splitlines()[0]
        return
    rows = records_of(out) if fmt == "jsonl" else list(csv.DictReader(io.StringIO(out)))
    particles = len(config.get("particles", []))
    assert [row["record"] for row in rows] == ["signature"] * config.get("steps", 5) * particles + ["report"]
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["record"] == "manifest"


# --- gu universe sim against the library route ------------------------------------


def library_sim(config, steps, window):
    """The records of ``gu universe sim``, rebuilt from ``signature_at`` for every
    particle and t, ``check_predictability_obstruction`` and ``classify_predictability``."""
    u = universe.load_universe_config(config).universe
    columns = {}
    for k in u.registry.numbers():
        name = u.registry.name_of(k)
        columns[k] = f"prop_{name}" if name in ("record", "t", "particle") else name
    records, series = [], {}
    for t in range(steps):
        for particle in u.particles:
            row = {"record": "signature", "t": t, "particle": particle.id}
            for k, value in universe.signature_at(u, particle.id, t).values.items():
                row[columns[k]] = "horizon-exceeded" if value is None else value
                series.setdefault((particle.id, k), []).append(value)
            records.append(row)
    verdicts = {"predictable": [], "random": [], "undetermined": [], "horizon_limited": []}
    kinds = {universe.Predictable: "predictable", universe.Random: "random", universe.Undetermined: "undetermined"}
    for (pid, k), values in sorted(series.items()):
        kind = "horizon_limited" if None in values else kinds[type(universe.classify_predictability(values, window))]
        verdicts[kind].append(f"{pid}.{columns[k]}")
    report = universe.check_predictability_obstruction(u)
    records.append({
        "record": "report",
        "classification": report.classification.value,
        "particles": len(u.particles),
        "fundamental": " ".join(map(str, report.fundamental_particles)),
        "initial_materialized": " ".join(str(p.particle) for p in report.particles if p.initial_materialized),
        **{kind: " ".join(labels) for kind, labels in verdicts.items()},
        "window": window,
    })
    return records


# Steps left off the unary input and writes two more ones: value t + 2.
BUMP_TM = "states: q0 q1 q2\nalphabet: _ 1\nstart: q0\nq0 1 -> q0 1 L\nq0 _ -> q1 1 L\nq1 _ -> q2 1 L\n"


def random_provider_spec(rng):
    """One of the five uniform rules, the machine rule on ``bump.tm``, or a horizon spec."""
    rule = rng.choice(["affine", "table", "counter", "machine", "constant", "horizon"])
    if rule == "affine":
        return f"uniform:affine,a={rng.randint(-3, 9)},b={rng.randint(-3, 9)},mod={rng.randint(1, 60)},start={rng.randint(-5, 50)}"
    if rule == "table":
        return "uniform:table,values=" + "|".join(str(rng.choice([0, 1, 7, 20])) for _ in range(rng.randint(1, 4)))
    if rule == "counter":
        return f"uniform:counter,start={rng.randint(0, 9)},step={rng.randint(0, 3)}"
    if rule == "machine":
        return "uniform:machine,file=bump.tm"
    if rule == "constant":
        return f"uniform:constant,value={rng.randint(0, 30)}"
    predicate = rng.choice(["parity", "pi", f"const={rng.randint(0, 5)}", f"mod={rng.randint(1, 12)}"])
    return f"horizon:{predicate},k0={rng.randint(1, 45)}"


def test_universe_sim_matches_the_library_route(tmp_path):
    (tmp_path / "bump.tm").write_text(BUMP_TM, encoding="utf-8")
    rng = random.Random(20)
    configs = [str(resources.files("godelsim").joinpath(f"data/configs/{name}.json")) for name in SHIPPED_CONFIGS]
    names = ["mass", "t", "spin", "record", "charge"]
    for i in range(24):
        particles = [
            {"id": pid, "providers": {name: random_provider_spec(rng) for name in rng.sample(names, rng.randint(0, 4))}}
            for pid in rng.sample(range(-2, 9), rng.randint(1, 3))
        ]
        path = tmp_path / f"generated{i}.json"
        path.write_text(json.dumps({"properties": names, "particles": particles}), encoding="utf-8")
        configs.append(str(path))
    for config in configs:
        for steps in sorted({0, 1, rng.randint(2, 40), 40}):
            window = rng.randint(1, 5)
            expected = library_sim(config, steps, window)
            argv = ["universe", "sim", "--config", config, "--steps", str(steps), "--window", str(window)]
            code, out, _ = invoke("--format", "jsonl", *argv)
            assert code == 0 and records_of(out) == expected, (config, steps, window)
            code, out, _ = invoke("--format", "csv", *argv)
            parsed = list(csv.DictReader(io.StringIO(out)))
            assert code == 0 and parsed == list(csv.DictReader(io.StringIO(csv_round_trip(expected))))


def test_universe_sim_rows_build_no_signature(monkeypatch):
    built = []
    original = universe.Signature

    def counted(particle, interaction, values):
        built.append(interaction)
        return original(particle, interaction, values)

    monkeypatch.setattr(universe, "Signature", counted)
    code, out, _ = invoke("universe", "sim", "--config", "mixed", "--steps", "50")
    assert code == 0 and len(records_of(out)) == 2 * 50 + 1
    # The report reads provider kinds only, so no signature is built at all.
    assert built == []


@pytest.mark.parametrize("steps", [0, 4])
def test_universe_sim_runs_each_machine_backed_t0_value_once(tmp_path, monkeypatch, steps):
    (tmp_path / "bump.tm").write_text(BUMP_TM, encoding="utf-8")
    config = tmp_path / "once.json"
    providers = {"rule": "uniform:machine,file=bump.tm", "spin": "horizon:parity,k0=3"}
    config.write_text(
        json.dumps({"properties": list(providers), "particles": [{"id": 1, "providers": providers}]}),
        encoding="utf-8",
    )
    calls = []
    value_at, evaluate = universe.MachineRule.value_at, collapse.evaluate
    monkeypatch.setattr(universe.MachineRule, "value_at", lambda rule, t: calls.append(("rule", t)) or value_at(rule, t))
    monkeypatch.setattr(collapse, "evaluate", lambda hm, n: calls.append(("spin", n)) or evaluate(hm, n))
    code, out, _ = invoke("universe", "sim", "--config", str(config), "--steps", str(steps))
    assert code == 0 and len(records_of(out)) == steps + 1
    # The first row, or the t=0 check of --steps 0, runs each; the report runs neither.
    assert sorted(call for call in calls if call[1] == 0) == [("rule", 0), ("spin", 0)]


# --- gu run --trace against records rebuilt from the library -------------------


def old_run_output(machine, start, budget, fmt):
    """``gu run --trace`` exit code and stdout, built from ``run_with_loop_detection``
    with every visit formatted from its sorted canonical tape and every record
    held until the run ends."""
    records = []

    def on_visit(step, canon):
        tape = " ".join(f"{cell}:{sym}" for cell, sym in sorted(canon.tape.items()))
        records.append(
            {"record": "visit", "step": step, "state": canon.state, "head": canon.head, "tape": tape}
        )

    outcome = run_with_loop_detection(machine, start, budget, on_visit)
    if isinstance(outcome, Halted):
        code = 0
        last = {"steps": outcome.steps, "ones": count_symbols(outcome.final_id), "kind": "halted"}
    elif isinstance(outcome, LoopDetected):
        code = 2
        last = {"first_repeat_step": outcome.first_repeat_step, "period": outcome.period,
                "kind": "loop-detected"}
    else:
        code, last = 3, {"budget": outcome.budget, "kind": "budget-exceeded"}
    records.append({"record": "outcome", **last})
    if fmt == "jsonl":
        return code, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    out = io.StringIO()
    columns = sorted({key for r in records for key in r})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        writer.writerow(["" if r.get(col) is None else r.get(col) for col in columns])
    return code, out.getvalue()


def test_run_trace_matches_library_records_on_random_machines(tmp_path):
    rng = random.Random(20031)
    symbols, states = ["_", "0", "1"], ["q0", "q1", "q2"]
    for index in range(400):
        lines = ["states: q0 q1 q2", "alphabet: _ 0 1", "start: q0"]
        for state in states:
            for sym in symbols:
                if rng.random() < 0.15:
                    continue  # no rule: the machine halts here
                move = rng.choice("LR")
                lines.append(f"{state} {sym} -> {rng.choice(states)} {rng.choice(symbols)} {move}")
        text = "\n".join(lines) + "\n"
        path = tmp_path / f"m{index}.tm"
        path.write_text(text, encoding="utf-8")
        machine = parse_machine_text(text)
        kind = index % 3
        if kind == 0:
            spec, start = "blank", ID(machine.start_state, 0, {})
        elif kind == 1:
            n = rng.randrange(13)
            spec, start = f"unary:{n}", unary_id(machine, n)
        else:
            cells = {rng.randrange(-6, 7): rng.choice(symbols) for _ in range(rng.randrange(7))}
            spec = "cells:" + ",".join(f"{cell}={sym}" for cell, sym in cells.items())
            start = ID(machine.start_state, 0, cells)
        budget = rng.randrange(81)
        for fmt in ("jsonl", "csv"):
            argv = ["--format", fmt, "run", str(path), "--input", spec, "--budget", str(budget)]
            code, out, _ = invoke(*argv, "--trace")
            assert (code, out) == old_run_output(machine, start, budget, fmt), (text, argv)


# --- record kinds against json.dumps and the CSV of a JSON round trip -------------


def csv_round_trip(records):
    """CSV as every record once came out: ``csv.writer`` over ``json.loads(json.dumps(r))``."""
    out = io.StringIO()
    columns = sorted({key for r in records for key in r})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        r = json.loads(json.dumps(r, sort_keys=True))
        writer.writerow(["" if r.get(col) is None else r.get(col) for col in columns])
    return out.getvalue()


KEYS = ["record", "a", "b", "step", "k,1", 'q"t', "\u00e9t\u00e9", "n\r\nl", "%s", "x y", "\x1b", "\x1f"]
STRINGS = ["", "visit", "a,b", 'say "hi"', "\r\n", "line\nbreak", "caf\u00e9 \u2603", "%s %d",
           "\x1b2", "\x1f", "\t", " lead", "\x00", "\ud800"]


def random_value(rng, kind=None):
    kind = rng.randrange(6) if kind is None else kind
    if kind == 0:
        return rng.choice([0, 1, -1, 7, -(10**30), 2**64])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(10 ** rng.randrange(4300, 5000))
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    return "".join(rng.choice(STRINGS) for _ in range(rng.randrange(4)))


def test_kind_writers_match_json_dumps_and_the_csv_round_trip():
    rng = random.Random(1703)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # as main lifts it
    try:
        for _ in range(300):
            kinds = []
            for _ in range(rng.randrange(1, 5)):
                chosen = rng.sample(KEYS, rng.randrange(1, 5))
                split = rng.randrange(len(chosen) + 1)
                fixed = {key: random_value(rng) for key in chosen[split:]}
                ints = rng.sample(chosen[:split], rng.randrange(split + 1))
                kinds.append((chosen[:split], ints, fixed))
            records, calls = [], []
            for _ in range(rng.randrange(8)):
                index = rng.randrange(len(kinds))  # a kind may write no record at all
                keys, ints, fixed = kinds[index]
                # A declared int column mostly gets exact ints (0, negatives, past 4 300
                # digits), and sometimes a bool, None or a str, which must give the same text.
                values = [
                    random_value(rng, rng.randrange(2) if key in ints and rng.randrange(4) else None)
                    for key in keys
                ]
                records.append({**dict(zip(keys, values)), **fixed})
                calls.append((index, values))
            for fmt in ("jsonl", "csv"):
                out = io.StringIO()
                emit = cli._Emitter(fmt, out)
                writers = [emit.kind(*keys, ints=ints, **fixed) for keys, ints, fixed in kinds]
                for index, values in calls:
                    writers[index](*values)
                emit.finish()
                emit.close()
                if fmt == "jsonl":
                    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
                else:
                    expected = csv_round_trip(records)
                assert out.getvalue() == expected, (fmt, kinds, calls)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_a_kind_with_a_repeated_key_is_refused():
    emit = cli._Emitter("jsonl", io.StringIO())
    with pytest.raises(ValueError):
        emit.kind("a", "a")
    with pytest.raises(ValueError):
        emit.kind("a", a=1)
    with pytest.raises(ValueError):
        emit.kind("a", ints=("b",))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_an_int_column_gives_other_values_their_own_text(fmt):
    # A bool is an int, but %d would write True as 1.
    out = io.StringIO()
    emit = cli._Emitter(fmt, out)
    write = emit.kind("b", "a", ints=("a", "b"), record="r")
    some = emit.kind("b", "s", ints=("b",), record="r")
    for values in [(0, -5), (True, False), (None, 7), (3, "x"), (-(10**20), 1)]:
        write(*values)
        some(*values)
    emit.finish()
    if fmt == "jsonl":
        assert out.getvalue().splitlines() == [
            '{"a": -5, "b": 0, "record": "r"}', '{"b": 0, "record": "r", "s": -5}',
            '{"a": false, "b": true, "record": "r"}', '{"b": true, "record": "r", "s": false}',
            '{"a": 7, "b": null, "record": "r"}', '{"b": null, "record": "r", "s": 7}',
            '{"a": "x", "b": 3, "record": "r"}', '{"b": 3, "record": "r", "s": "x"}',
            '{"a": 1, "b": -100000000000000000000, "record": "r"}',
            '{"b": -100000000000000000000, "record": "r", "s": 1}',
        ]
    else:
        assert out.getvalue().splitlines() == [
            "a,b,record,s",
            "-5,0,r,", ",0,r,-5",
            "False,True,r,", ",True,r,False",
            "7,,r,", ",,r,7",
            "x,3,r,", ",3,r,x",
            "1,-100000000000000000000,r,", ",-100000000000000000000,r,1",
        ]


# --- streamed output: memory set by the tape, not by the records written ---------


def peak_traced(*argv):
    """Peak traced allocation of one ``gu`` call whose stdout goes to the null device.

    An untraced call first takes the allocations that only a first call makes.
    """
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        with redirect_stderr(io.StringIO()):
            cli.main(list(argv))
            tracemalloc.start()
            try:
                cli.main(list(argv))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()


def test_run_trace_memory_grows_with_the_tape_not_the_output():
    def peak(budget):
        return peak_traced("run", corpus_path("grow_right.tm"), "--budget", str(budget), "--trace")

    # The tape and the seen table grow linearly (a ratio near 2); records held
    # until the end grow as steps x tape (near 4).
    assert peak(2000) < 3 * peak(1000)


def test_csv_run_trace_memory_grows_with_the_tape_not_the_output():
    def run(budget):
        return ("--format", "csv", "run", corpus_path("grow_right.tm"), "--budget", str(budget), "--trace")

    # Both outputs pass the 1 MB that the spool holds in memory, so both rows go to disk.
    assert len(invoke(*run(1000))[1]) > 2 * (1 << 20)
    assert peak_traced(*run(2000)) < 3 * peak_traced(*run(1000))


def test_csv_past_the_spool_size_is_the_round_trip_of_the_jsonl_records():
    argv = ("dovetail", corpus_path("grow_right.tm") + "=zero-of", corpus_path("counter.tm") + "=zero-of",
            "--sub-budget", "500", "--global-budget", "40000")
    code, out, _ = invoke("--format", "csv", *argv)
    # Past the 1 MB the spool holds in memory, so the rows come back from disk, over many batches.
    assert len(out.encode("utf-8")) > max(1 << 20, 10 * cli._SPOOL_BATCH)
    jsonl = invoke(*argv)
    assert (code, out) == (jsonl[0], csv_round_trip(records_of(jsonl[1])))


def test_universe_sim_memory_is_flat_in_the_steps():
    def peak(steps):
        return peak_traced("universe", "sim", "--config", "mixed", "--steps", str(steps))

    # Each series keeps its last --window values.  Series kept whole grow by
    # about 55 bytes a step, so they peak 7 times higher at 10 000 than at 1 000.
    assert peak(10_000) < 1.5 * peak(1_000)


def test_dovetail_memory_is_flat_in_the_global_budget():
    def peak(budget):
        task = corpus_path("grow_right.tm") + "=zero-of"
        return peak_traced("dovetail", task, "--global-budget", str(budget))

    # One event record per global step, each written at once.
    assert peak(8000) < 1.5 * peak(2000)
