"""CLI contract: records, exit codes, formats, and byte-for-byte reproducibility."""

import csv
import io
import json
import os
import random
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelsim import beta, cli
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
    monkeypatch.setenv("GU_FORMAT", "csv")
    code, out, _ = invoke("beta", "encode", "0")
    assert code == 0
    assert out.splitlines()[0] == "b,c,record"


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
        (("collapse", "demo", "--k", "2", "--measure", "-1"), "measure"),
        (("universe", "sim", "--config", "uniform_pair", "--window", "0"), "window"),
        (("universe", "sim", "--config", "uniform_pair", "--steps", "-1"), "steps"),
    ],
    ids=[
        "matches-bound", "predict-bound", "eval-index", "collapse-measure",
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
    ],
    ids=[
        "affine-not-a-number", "affine-mod-zero", "table-empty-value",
        "horizon-k0", "machine-missing-file",
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
    assert repr(spec) in err.splitlines()[0]


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
    ],
    ids=["steps", "window", "initial", "properties-shape", "initial-shape", "providers-shape"],
)
def test_config_value_not_an_integer_is_a_clean_error(tmp_path, config, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"properties": ["p"], **config}), encoding="utf-8")
    code, out, err = invoke("universe", "sim", "--config", str(path))
    assert_one_line_error(code, out, err)
    assert name in err.splitlines()[0]


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


def test_dovetail_memory_is_flat_in_the_global_budget():
    def peak(budget):
        task = corpus_path("grow_right.tm") + "=zero-of"
        return peak_traced("dovetail", task, "--global-budget", str(budget))

    # One event record per global step, each written at once.
    assert peak(8000) < 1.5 * peak(2000)
