import contextlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import coroutine_vm
from coroutine_vm import cli
from coroutine_vm.cli import main
from coroutine_vm.debruijn import to_debruijn_ct, to_debruijn_gs
from coroutine_vm.gen import gen_named_ct, gen_named_gs
from coroutine_vm.parser import parse, parse_ct, parse_gs
from coroutine_vm.safety import safe_db
from coroutine_vm.terms import NLam, NVar, print_term
from coroutine_vm.translate import down
from named_terms import shadowed


def _corpus(corpus_dir, name):
    return str(corpus_dir / name)


def test_check_safe(corpus_dir, capsys):
    assert main(["check", _corpus(corpus_dir, "safe.ct")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("safe")
    assert "use-sets=True visibility=True indices=True" in out


def test_check_unsafe(corpus_dir, capsys):
    assert main(["check", _corpus(corpus_dir, "unsafe.ct")]) == 1
    assert capsys.readouterr().out.startswith("unsafe")


def test_check_identity(corpus_dir):
    assert main(["check", _corpus(corpus_dir, "id.ct")]) == 0


def test_check_lift_prints_source(corpus_dir, capsys):
    assert main(["check", "--lift", _corpus(corpus_dir, "safe.ct")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == r"\. get. \. set 0 #0"


def test_check_lift_on_unsafe_reports_path(corpus_dir, capsys):
    assert main(["check", "--lift", _corpus(corpus_dir, "unsafe.ct")]) == 1
    assert "lift failed" in capsys.readouterr().out


def test_check_gs_prints_index_form(corpus_dir, capsys):
    assert main(["check", _corpus(corpus_dir, "ctx.gs")]) == 0
    assert capsys.readouterr().out.strip() == r"\. get. \. set 0 #0"


def test_check_gs_visibility_error(corpus_dir, capsys):
    assert main(["check", _corpus(corpus_dir, "bad.gs")]) == 1
    err = capsys.readouterr().err
    assert "'y'" in err and "not visible" in err


def test_compile_mirror(corpus_dir, capsys):
    assert main(["compile", _corpus(corpus_dir, "ctx.gs")]) == 0
    assert capsys.readouterr().out.strip() == r"\. catch. \. throw 0 #1"


def test_compile_identity(corpus_dir, capsys):
    assert main(["compile", _corpus(corpus_dir, "id.gs")]) == 0
    assert capsys.readouterr().out.strip() == r"\. #0"


def test_compile_rejects_invisible_variable(corpus_dir):
    assert main(["compile", _corpus(corpus_dir, "bad.gs")]) == 1


def test_compile_reports_unsafe_translation_as_internal_error(corpus_dir, capsys, monkeypatch):
    # down is safe by construction; if it ever is not, compile must say so, not crash
    unsafe = to_debruijn_ct(parse_ct(r"\x. catch a. \y. throw a y"))
    monkeypatch.setattr(cli, "down", lambda term: unsafe)
    assert main(["compile", _corpus(corpus_dir, "ctx.gs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_run_demo_gs(corpus_dir, capsys):
    assert main(["run", _corpus(corpus_dir, "ctx_demo.gs"), "--machine", "gs"]) == 0
    assert "final after 2 steps" in capsys.readouterr().out


def test_run_omega_exhausts_fuel(corpus_dir, capsys):
    assert main(["run", _corpus(corpus_dir, "omega.ct"), "--machine", "ct", "--max-steps", "50"]) == 3
    assert "fuel exhausted" in capsys.readouterr().out


def test_negative_fuel_is_an_input_error(corpus_dir, capsys, monkeypatch):
    omega = _corpus(corpus_dir, "omega.gs")
    for argv in (["run", omega, "--max-steps", "-1"], ["bisim", omega, "--max-steps", "-1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "negative" in captured.err
    monkeypatch.setenv("COROUTINE_VM_MAX_STEPS", "-5")
    for argv in (["run", omega], ["bisim", omega]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_fuel_variable_is_an_input_error(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("COROUTINE_VM_MAX_STEPS", "lots")
    assert main(["run", _corpus(corpus_dir, "omega.gs")]) == 1
    assert capsys.readouterr().err.startswith("error: COROUTINE_VM_MAX_STEPS must be an integer")


def test_run_demo_it_trace(corpus_dir, capsys):
    assert main(["run", _corpus(corpus_dir, "ctx_demo.gs"), "--machine", "it", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # two transitions + final event + summary
    assert lines[-1].startswith("final after 2 steps")


def test_run_json_trace_round_trips(corpus_dir, capsys):
    assert main(
        ["run", _corpus(corpus_dir, "ctx_demo.gs"), "--machine", "it", "--trace", "--format", "json"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert [e["rule"] for e in events] == ["catch_or_get", "throw_or_set", "final"]
    assert [e["step"] for e in events] == [0, 1, 2]
    assert set(events[0]) == {"step", "machine", "rule", "head", "stack_depth", "mu_count"}


def test_traced_run_memory_does_not_grow_with_fuel(corpus_dir):
    # each event is printed as its step is taken and then dropped: collected
    # first, 50,000 omega events would hold about 4.7 MB
    def peak(*flags):
        argv = ["run", str(corpus_dir / "omega.gs"), "--machine", "it", *flags, "--max-steps", "50000"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == cli.EXIT_FUEL
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    untraced = peak()
    for fmt in ("text", "json"):
        assert peak("--trace", "--format", fmt) - untraced <= 500_000, fmt


def test_run_rejects_machine_calculus_mismatch(corpus_dir, capsys):
    assert main(["run", _corpus(corpus_dir, "ctx_demo.gs"), "--machine", "ct"]) == 1
    assert "does not run" in capsys.readouterr().err


def test_run_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.ct"
    bad.write_text("\\x. (x", encoding="utf-8")
    assert main(["run", str(bad)]) == 1


def test_bisim_demo_composed(corpus_dir, capsys):
    assert main(["bisim", _corpus(corpus_dir, "ctx_demo.gs"), "--pair", "composed"]) == 0
    assert "both_halted" in capsys.readouterr().out


def test_bisim_identity_star(corpus_dir, capsys):
    assert main(["bisim", _corpus(corpus_dir, "id.gs"), "--pair", "star"]) == 0
    assert "steps=0" in capsys.readouterr().out


def test_bisim_omega_diamond_fuel(corpus_dir, capsys):
    assert main(["bisim", _corpus(corpus_dir, "omega.gs"), "--pair", "diamond", "--max-steps", "50"]) == 0
    assert "fuel_exhausted" in capsys.readouterr().out


def test_bisim_json(corpus_dir, capsys):
    assert main(["bisim", _corpus(corpus_dir, "ctx_demo.gs"), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"file": "ctx_demo.gs", "outcome": "both_halted", "pair": "composed", "steps_checked": 2}


def test_bisim_all_directory(corpus_dir, capsys):
    assert main(["bisim", str(corpus_dir / "gen"), "--all", "--max-steps", "300"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 20


def test_bisim_all_needs_directory(corpus_dir, capsys):
    assert main(["bisim", _corpus(corpus_dir, "id.gs"), "--all"]) == 1


def test_parse_round_trip(corpus_dir, capsys):
    assert main(["parse", _corpus(corpus_dir, "safe.ct")]) == 0
    assert capsys.readouterr().out.strip() == r"\x. catch a. \y. throw a x"


def test_parse_error_has_position(tmp_path, capsys):
    bad = tmp_path / "nope.ct"
    bad.write_text("\\x. (", encoding="utf-8")
    assert main(["parse", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.gs"
    latin1.write_bytes("\\x. é".encode("latin-1"))
    for path in (tmp_path / "missing.gs", latin1, tmp_path):
        for argv in (["parse", str(path), "--calculus", "gs"], ["run", str(path), "--calculus", "gs"],
                     ["bisim", str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err


def test_unknown_extension_needs_calculus(tmp_path, capsys):
    f = tmp_path / "term.txt"
    f.write_text("\\x. x", encoding="utf-8")
    assert main(["parse", str(f)]) == 1
    assert main(["parse", str(f), "--calculus", "ct"]) == 0


def test_gen_size_one(capsys):
    assert main(["gen", "--seed", "1", "--size", "1"]) == 0
    term = parse_gs(capsys.readouterr().out.strip())
    assert isinstance(term, NLam) and isinstance(term.body, NVar)


def test_gen_stream_compiles_and_is_safe(capsys):
    assert main(["gen", "--seed", "42", "--count", "100", "--size", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 100
    for line in lines:
        compiled = down(to_debruijn_gs(parse_gs(line)))
        assert safe_db(compiled)


def test_gen_unsafe_ok_reports_ratio(capsys):
    assert main(["gen", "--calculus", "ct", "--unsafe-ok", "--count", "60", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 60
    assert "unsafe terms:" in captured.err
    for line in captured.out.strip().splitlines():
        parse_ct(line)  # closed, parseable


def test_gen_out_dir(tmp_path, capsys):
    assert main(["gen", "--seed", "5", "--count", "3", "--out-dir", str(tmp_path / "terms")]) == 0
    files = sorted((tmp_path / "terms").glob("*.gs"))
    assert len(files) == 3
    for f in files:
        to_debruijn_gs(parse_gs(f.read_text(encoding="utf-8")))


def test_gen_rejects_bad_flags(capsys):
    assert main(["gen", "--size", "0"]) == 1
    assert main(["gen", "--unsafe-ok", "--calculus", "gs"]) == 1
    assert main(["gen", "--count", "-3"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: --count must not be negative"


def test_gen_out_dir_errors_are_input_errors(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x", encoding="utf-8")
    assert main(["gen", "--out-dir", str(not_a_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot create directory {not_a_dir}: ")
    blocked = tmp_path / "out" / "gen_0_000.gs"  # the first output name is taken by a directory
    blocked.mkdir(parents=True)
    assert main(["gen", "--out-dir", str(blocked.parent)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocked}: ")


# A term nested past the recursion limit gets a real answer: every layer the
# commands use runs at any depth.
DEEP_TERMS = {"deep.ct": "\\x0. " * 1500 + "x0\n", "wide.gs": "\\x. " + " ".join(["x"] * 5000) + "\n"}


@pytest.mark.parametrize(
    "command, name",
    [("parse", "deep.ct"), ("check", "deep.ct"), ("run", "deep.ct"), ("compile", "wide.gs"), ("bisim", "wide.gs")],
)
def test_deep_terms_get_an_answer_or_an_error_line(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_text(DEEP_TERMS[name], encoding="utf-8")
    assert sys.getrecursionlimit() < 1500
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (cli.EXIT_OK, "")
    assert captured.out.strip()


# 100k-node inputs: a binder chain, a wide application run on an argument,
# and a chain of binders and captures whose last restore goes back to the
# first capture. Each is written in both calculi. Every command gets a real
# answer at the default recursion limit: gen is the only command that
# recurses.
HUGE = 100_000
HUGE_TEXTS = {
    "binders": lambda kw: "".join(f"\\x{i}. " for i in range(HUGE)) + "x0",
    "wide": lambda kw: "(\\x. " + " ".join(["x"] * HUGE) + ") (\\y. y)",
    "captures": lambda kw: "".join(f"\\x{i}. {kw[0]} k{i}. " for i in range(HUGE // 2)) + f"{kw[1]} k0 x0",
}
HUGE_KEYWORDS = {"ct": ("catch", "throw"), "gs": ("getctx", "setctx")}
# (name, arguments, calculi, exit code per input); a run gets 10 steps of
# fuel: the wide application runs out of it, the other two are values. bisim
# starts the ct machine on the compiled gs input, so run takes the gs files
# only; check --lift covers the ct judgments and lift.
HUGE_COMMANDS = [
    ("parse", ["parse"], ("ct", "gs"), {}),
    ("check-lift", ["check", "--lift"], ("ct",), {}),
    ("check", ["check"], ("gs",), {}),
    ("compile", ["compile"], ("gs",), {}),
    ("run", ["run", "--max-steps", "10"], ("gs",), {"wide": cli.EXIT_FUEL}),
    ("bisim", ["bisim", "--max-steps", "10"], ("gs",), {}),
]


@pytest.fixture(scope="module")
def huge_inputs(tmp_path_factory):
    """Each 100k input's file and its parse, by file name; parsed once for every command."""
    root = tmp_path_factory.mktemp("huge")
    out = {}
    for name, text_of in HUGE_TEXTS.items():
        for calculus, keywords in HUGE_KEYWORDS.items():
            path = root / f"{name}.{calculus}"
            text = text_of(keywords)
            path.write_text(text + "\n", encoding="utf-8")
            out[path.name] = (path, text, parse(text, calculus))
    return out


@pytest.mark.parametrize(
    "args, name, code",
    [
        pytest.param(args, f"{name}.{calculus}", codes.get(name, cli.EXIT_OK), id=f"{command}-{name}.{calculus}")
        for command, args, calculi, codes in HUGE_COMMANDS
        for calculus in calculi
        for name in HUGE_TEXTS
    ],
)
def test_100k_inputs_get_real_answers(huge_inputs, capsys, monkeypatch, args, name, code):
    assert sys.getrecursionlimit() < HUGE
    path, text, term = huge_inputs[name]
    monkeypatch.setattr(cli, "_load", lambda path, calculus: term)  # the shared parse of path
    assert main([args[0], str(path), *args[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    if args[0] == "parse":
        assert captured.out == text + "\n"
    else:
        assert captured.out.strip()


@pytest.mark.parametrize(
    "args",
    [["gen", "--count", "20000"], ["run", "corpus/omega.gs", "--trace", "--max-steps", "100000"]],
    ids=["gen", "run-trace"],
)
def test_closed_stdout_is_not_a_traceback(args):
    src = str(Path(coroutine_vm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "coroutine_vm.cli", *args],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()  # the reader takes one line and goes away, like `| head -1`
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_INPUT, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


# ---------------------------------------------------------------------------
# The exit-code contract on seeded sources
# ---------------------------------------------------------------------------

CONTRACT_COMMANDS = (["parse"], ["check", "--lift"], ["compile"], ["run", "--max-steps", "200"],
                     ["bisim", "--max-steps", "200"])


def contract_sources(rng, count):
    """(text, extension) pairs: printed terms whose names shadow each other, each beside one
    variant with an open name, an open label or the other calculus's keywords."""
    sources = [(r"\x. catch a. \x. throw a x", "ct"), (r"\x. getctx a. \x. setctx a x", "gs")]
    while len(sources) < count:
        calculus, other = rng.choice((("ct", "gs"), ("gs", "ct")))
        size = rng.randint(1, 40)
        term = shadowed(gen_named_ct(rng, size, unsafe_ok=True) if calculus == "ct" else gen_named_gs(rng, size), rng)
        text = print_term(term, calculus)
        restore = "throw" if calculus == "ct" else "setctx"
        variant = rng.choice((f"({text}) z", f"{restore} q ({text})", print_term(term, other)))
        sources += [(text, calculus), (variant, calculus)]
    return sources


def test_every_command_keeps_the_exit_code_contract(tmp_path, capsys):
    # exit 0-3, and stderr holds only `error:` lines: no traceback, no internal disagreement or error
    for k, (text, extension) in enumerate(contract_sources(random.Random(2113), 300)):
        path = tmp_path / f"t{k}.{extension}"
        path.write_text(text + "\n", encoding="utf-8")
        for command in CONTRACT_COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (text, command)
            assert all(line.startswith("error: ") for line in err.splitlines()), (text, command, err)
