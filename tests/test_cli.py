import argparse
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import ghostkit
from ghostkit import characters, cli, fusion, grammar, homalg, modules, rigidity, verify
from ghostkit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    schema = json.loads(
        resources.files("ghostkit.schemas").joinpath(schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_fuse_text(capsys):
    code, out, _ = run(capsys, "fuse", "W[1/3,0]", "W[2/3,0]")
    assert code == 0
    assert out.strip() == "P[-1]"


def test_fuse_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "fuse", "B[3,0]", "B[3,0]")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "fuse.schema.json")
    assert payload["guard_extended"] is False
    assert {"module": "B[5,0]", "mult": 1} in payload["summands"]


def test_fuse_guard_flag_and_strict(capsys):
    code, out, _ = run(capsys, "--format", "json", "fuse", "B[3,0]", "B[4,0]")
    assert code == 0
    assert json.loads(out)["guard_extended"] is True
    code, out, err = run(capsys, "fuse", "B[3,0]", "B[4,0]", "--strict-guards")
    assert code == 1
    assert "guard" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "fuse", "W[0/1,2]", "V[0]")
    assert code == 1
    assert "error" in err


def test_global_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "hom", "V[0]", "V[0]", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 1
    code, out, _ = run(capsys, "char", "V[0]", "--hmax", "0",
                       "--jwindow", "0:0", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["j,h,dim", "0,0,1"]


def test_hom_and_ext(capsys):
    code, out, _ = run(capsys, "hom", "P[0]", "P[0]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "--format", "json", "ext", "V[0]", "V[1]")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "dim.schema.json")
    assert payload["dim"] == 1


def test_char_json_and_csv(capsys):
    code, out, _ = run(capsys, "--format", "json", "char", "V[0]",
                       "--hmax", "2", "--jwindow=-2:2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "char.schema.json")
    entries = {(e["j"], e["h"]): e["dim"] for e in payload["entries"]}
    assert entries[("0", "0")] == 1
    assert entries[("1", "1")] == 1

    code, out, _ = run(capsys, "--format", "csv", "char", "V[0]",
                       "--hmax", "1", "--jwindow", "0:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,h,dim"
    assert "0,0,1" in lines


@pytest.mark.parametrize("command, argv", [
    ("fuse", ["fuse", "B[3,0]", "B[3,0]", "--format", "csv"]),
    ("verify", ["--format", "csv", "verify", "--suite", "numerics"]),
])
def test_csv_outside_char_is_refused(capsys, command, argv):
    # only char has a CSV form
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"csv applies only to char, not to {command}" in err


def test_loewy_text_and_json(capsys):
    code, out, _ = run(capsys, "loewy", "T[5,0]")
    assert code == 0
    top_line = out.splitlines()[0]
    for label in ("V[0]", "V[2]", "V[4]"):
        assert label in top_line
    assert "V[1]" not in top_line

    code, out, _ = run(capsys, "--format", "json", "loewy", "P[0]")
    payload = json.loads(out)
    validate(payload, "loewy.schema.json")
    assert payload["diamond"] is True

    code, out, _ = run(capsys, "loewy", "P[0]")
    assert code == 0
    assert out.splitlines()[0].strip() == "V[0]"


def test_loewy_draws_a_simple_by_its_own_label(capsys):
    code, out, _ = run(capsys, "loewy", "W[1/2,3]")
    assert code == 0
    assert "W[1/2,3]" in out and "V[" not in out
    assert run(capsys, "loewy", "V[3]") == (0, "  V[3]\n", "")


def test_dual_variants(capsys):
    code, out, _ = run(capsys, "dual", "B[4,1]")
    assert code == 0 and out.strip() == "T[4,1]"
    code, out, _ = run(capsys, "dual", "B[4,1]", "--functor", "restricted")
    assert out.strip() == "B[4,-5]"
    code, out, _ = run(capsys, "dual", "V[0]", "--functor", "conjugate")
    assert out.strip() == "V[-1]"
    code, out, _ = run(capsys, "--format", "json", "dual", "V[2]",
                       "--functor", "flow", "--ell", "-2")
    payload = json.loads(out)
    validate(payload, "functor.schema.json")
    assert payload["result"] == "V[0]"


def test_cover_and_hull(capsys):
    code, out, _ = run(capsys, "cover", "B[3,0]")
    assert code == 0 and out.strip() == "P[1]"
    code, out, _ = run(capsys, "--format", "json", "hull", "B[3,0]")
    payload = json.loads(out)
    validate(payload, "presentation.schema.json")
    assert payload["result"] == "P[0] + P[2]"


def test_rigidity_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity",
                       "--j", "0.3", "--w1", "1.0")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "rigidity.schema.json")
    assert payload["identities_pass"] is True
    assert payload["I_abs"] > 1e-8


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "--bound", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "catalog.schema.json")
    names = {s["name"] for s in payload["sequences"]}
    assert "staggered sub" in names


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify",
                       "--suite", "numerics")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.schema.json")
    assert payload["passed"] is True


def test_verify_text_summary(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "numerics")
    assert code == 0
    assert "suite numerics: PASS" in out


def test_verify_zero_pool_bounds_are_used(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "fusion",
                       "--max-length", "0", "--max-flow", "0")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.schema.json")
    checks = {c["name"]: c for c in payload["suites"]["fusion"]}
    # V[0], three relaxed simples and P[0]: 15 unordered pairs
    assert checks["commutativity"]["cases"] == 15


@pytest.mark.parametrize("flags, cfg_text", [
    (["--max-flow", "-1"], ""),
    ([], "pool_max_flow = -1\n"),
])
def test_verify_rejects_negative_pool_bound(tmp_path, capsys, flags, cfg_text):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "homalg",
                         *flags)
    assert code == 1
    assert out == ""
    assert "non-negative" in err


def test_bad_jwindow_fraction_is_quoted(tmp_path, capsys):
    code, _, err = run(capsys, "char", "V[0]", "--jwindow=0:1/0")
    assert code == 1
    assert "'0:1/0'" in err
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text("jwindow = 0:1/0\n")
    code, _, err = run(capsys, "--config", str(cfg), "char", "V[0]")
    assert code == 1
    assert "config error" in err and "'0:1/0'" in err


@pytest.mark.parametrize("flags, cfg_text", [
    (["--hmax", "1/0"], ""),
    ([], "hmax = 1/0\n"),
    ([], "pool_cosets = 1/3, 1/0\n"),
])
def test_bad_rational_is_quoted(tmp_path, capsys, flags, cfg_text):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, "--config", str(cfg), "char", "V[0]", *flags)
    assert code == 1
    assert out == ""
    assert "'1/0'" in err
    assert ("config error" in err) == bool(cfg_text)


def test_char_hmax_above_table_limit(capsys, monkeypatch):
    def no_build(weight):
        raise AssertionError(f"table build started for weight {weight}")

    monkeypatch.setattr(characters, "_build_suffix_table", no_build)
    code, out, err = run(capsys, "char", "V[0]", "--hmax", "1e9")
    assert code == 1
    assert out == ""
    assert "weight 1000000000" in err and f"limit {characters.MAX_TABLE_WEIGHT}" in err


def test_verify_zero_case_check_is_skip(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fusion",
                       "--max-length", "3", "--max-flow", "1")
    assert code == 0
    lines = {line.split(" (")[0] for line in out.splitlines()}
    assert "[fusion] skip Grothendieck homomorphism, guard-extended" in lines
    assert "[fusion] ok   associativity" in lines


def test_config_file_changes_defaults(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text("hmax = 1\njwindow = 0:1\n# comment\nstrict_guards = on\n")
    code, out, _ = run(capsys, "--config", str(cfg), "--format", "json",
                       "char", "V[0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["hmax"] == "1"
    assert payload["jwindow"] == ["0", "1"]
    # strict_guards from the file makes guard-extended fusion fail
    code, _, err = run(capsys, "--config", str(cfg), "fuse", "B[3,0]", "B[4,0]")
    assert code == 1

    monkeypatch.setenv("GHOSTKIT_CONFIG", str(cfg))
    code, out, _ = run(capsys, "--format", "json", "char", "V[0]")
    assert json.loads(out)["hmax"] == "1"


@pytest.mark.parametrize("line, complaint", [
    ("frobnicate = 1", "unknown config key 'frobnicate'"),
    ("strict_guards = maybe", "not a boolean: 'maybe'"),
    ("jwindow = 3:1", "empty jwindow '3:1'"),
])
def test_bad_config_value_is_named(tmp_path, capsys, line, complaint):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "--config", str(cfg), "hom", "V[0]", "V[0]")
    assert code == 1
    assert out == ""
    # the file and line come first, as for a line without '=', and the
    # boolean reader names its key
    named = "strict_guards is " if line.startswith("strict_guards") else ""
    assert err == f"config error: {cfg}:1: {named}{complaint}\n"


def test_strict_guards_off_in_the_file_yields_to_the_flag(tmp_path, capsys):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text("strict_guards = off\n")
    code, out, _ = run(capsys, "--config", str(cfg), "fuse", "B[3,0]", "B[4,0]")
    assert code == 0
    assert out.strip().endswith("guard-extended: true")
    code, out, err = run(capsys, "--config", str(cfg), "fuse", "B[3,0]", "B[4,0]",
                         "--strict-guards")
    assert code == 1
    assert out == ""
    assert "guard" in err


@pytest.mark.parametrize("command, flag, key", [
    ("catalog", "--bound", "catalog_bound"),
    ("verify", "--max-length", "pool_max_length"),
    ("verify", "--max-flow", "pool_max_flow"),
])
@pytest.mark.parametrize("from_file", [False, True])
def test_integer_setting_is_read_alike_from_flag_and_file(tmp_path, capsys, command, flag,
                                                          key, from_file):
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(f"{key} = abc\n" if from_file else "")
    flags = [] if from_file else [flag, "abc"]
    code, out, err = run(capsys, "--config", str(cfg), command, *flags)
    assert code == 1
    assert out == ""
    prefix = f"config error: {cfg}:1: " if from_file else "error: "
    assert err == f"{prefix}{key} must be an integer, got 'abc'\n"


@pytest.mark.parametrize("argv, complaint", [
    (["verify", "--max-lenght", "3"], "unrecognized arguments: --max-lenght 3"),
    (["fuse", "V[0]"], "the following arguments are required: right"),
    (["verify", "--suite", "nope"], "argument --suite: invalid choice"),
])
def test_usage_error_exits_1(argv, complaint):
    # exit code 2 means a verification failure, so argparse's 2 is not used
    src = str(Path(ghostkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ghostkit.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ghostkit")
    assert complaint in proc.stderr


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ghostkit verify")


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense\n")
    code, _, err = run(capsys, "--config", str(cfg), "hom", "V[0]", "V[0]")
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize("flags, cfg_text", [
    (["--jwindow=-1e9:1e9"], ""),
    ([], "jwindow = -1e9:1e9\n"),
])
def test_char_window_above_width_limit(tmp_path, capsys, monkeypatch, flags, cfg_text):
    def no_columns(*args):
        raise AssertionError("a character column was built")

    monkeypatch.setattr(characters, "_simple_character", no_columns)
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, "--config", str(cfg), "char", "V[0]", "--hmax", "0", *flags)
    assert code == 1
    assert out == ""
    assert "2000000000 wide" in err and f"limit {characters.MAX_WINDOW_WIDTH}" in err


def test_char_with_a_non_decimal_digit(capsys):
    code, out, err = run(capsys, "char", "V[\u00b2]")
    assert code == 1
    assert out == ""
    assert err == "error: expected an integer (at position 2)\n"


def test_fuse_with_an_overlong_multiplicity(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int reads decimal strings of any length here")
    code, out, err = run(capsys, "fuse", " " + "1" * (limit + 700) + "*V[0]", "V[0]")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: Exceeds the limit ({limit} digits)")
    assert err.endswith(" (at position 1)\n")


@pytest.mark.parametrize("text", ["V[0] +", ""])
def test_fuse_with_a_missing_atom_points_at_the_end(capsys, text):
    code, out, err = run(capsys, "fuse", text, "V[1]")
    assert code == 1
    assert out == ""
    assert err == f"error: expected a module atom V/W/B/T/P (at position {len(text)})\n"


def test_fuse_text_with_huge_multiplicity(capsys):
    code, out, _ = run(capsys, "fuse", "1000000000*B[3,0]", "B[3,0]")
    assert code == 0
    assert out.strip() == "1000000000*B[5,0] + 1000000000*P[2]"


def test_fuse_json_compact_above_limit(capsys, monkeypatch):
    def no_display(self):
        raise AssertionError("a compact display entry was built")

    monkeypatch.setattr(fusion.ProjSum, "__str__", no_display)
    code, out, err = run(capsys, "--format", "json", "fuse", "10000000*B[3,0]", "B[3,0]")
    assert code == 1
    assert out == ""
    assert f"10000000 entries, above the limit {fusion.MAX_COMPACT_ENTRIES}" in err


def test_fuse_above_the_product_term_limit_is_refused_before_any_product(capsys, monkeypatch):
    def no_product(*args):
        raise AssertionError("a pair product was built")

    monkeypatch.setattr(fusion, "_fuse_modules", no_product)
    left = " + ".join(f"B[1000,{k}]" for k in range(60))
    right = " + ".join(f"T[999,{k}]" for k in range(60))
    code, out, err = run(capsys, "fuse", left, right)
    assert code == 1
    assert out == ""
    assert err == ("error: the pair products of 60 by 60 terms may have 7196400 terms, "
                   f"above the limit {cli.MAX_FUSE_TERMS}; fuse smaller sums\n")


def test_fuse_product_term_bound():
    # the bound holds for every pair product, and the longest pair of
    # strings is far inside the limit
    pool = verify.pool_modules() + [modules.bstr(1000, 0), modules.tstr(999, 3),
                                    modules.bstr(998, -1)]
    for x in pool:
        for y in pool:
            bound = cli._product_terms(modules.FormalSum.of(x), modules.FormalSum.of(y))
            assert len(fusion.fuse(x, y)) <= bound, (x, y)
    longest = grammar.parse_module_expr("B[1000,0]")
    assert cli._product_terms(longest, longest) == 2000
    twenty = [grammar.parse_module_expr(" + ".join(f"{s}[{n},{k}]" for k in range(20)))
              for s, n in (("B", 1000), ("T", 999))]
    assert cli._product_terms(*twenty) == 799_600 <= cli.MAX_FUSE_TERMS


@pytest.mark.parametrize("command, rule", [("hom", "_hom_modules"), ("ext", "_ext_modules")])
def test_dim_above_the_pair_limit_is_refused_before_any_pair(capsys, monkeypatch, command, rule):
    def no_pair(*args):
        raise AssertionError("a label pair was computed")

    monkeypatch.setattr(homalg, rule, no_pair)
    source = " + ".join(f"V[{k}]" for k in range(100))
    target = " + ".join(f"V[{k}]" for k in range(1001))
    code, out, err = run(capsys, command, source, target)
    assert code == 1
    assert out == ""
    assert err == ("error: 100 by 1001 terms make 100100 pairs, above the limit "
                   f"{cli.MAX_DIM_PAIRS}; {command} smaller sums\n")
    # V[0]+...+V[15789] is 130,999 bytes, within one command-line argument
    whole = "+".join(f"V[{k}]" for k in range(15790))
    code, out, err = run(capsys, command, whole, whole)
    assert (code, out) == (1, "")
    assert "15790 by 15790 terms make 249324100 pairs" in err


@pytest.mark.parametrize("command, want", [("hom", "100"), ("ext", "199")])
def test_dim_at_the_pair_limit_answers(capsys, command, want):
    source = " + ".join(f"V[{k}]" for k in range(100))
    target = " + ".join(f"V[{k}]" for k in range(1000))
    assert len(source.split("+")) * len(target.split("+")) == cli.MAX_DIM_PAIRS
    code, out, _ = run(capsys, command, source, target)
    assert (code, out) == (0, want + "\n")


@pytest.mark.parametrize("command", ["hom", "ext", "fuse"])
def test_string_length_above_limit(capsys, monkeypatch, command):
    def no_label(*args):
        raise AssertionError("a string label was built")

    monkeypatch.setattr(grammar, "bstr", no_label)
    code, out, err = run(capsys, command, "B[4000,0]", "B[4000,0]")
    assert code == 1
    assert out == ""
    assert f"string length 4000 is above the limit {grammar.MAX_STRING_LENGTH}" in err


def test_char_table_limit_is_checked_before_any_build(capsys, monkeypatch):
    # the early factors of B[100,0] fit in the table, the late ones do not
    def no_build(weight):
        raise AssertionError(f"table build started for weight {weight}")

    monkeypatch.setattr(characters, "_SUFFIX", ((1,),))
    monkeypatch.setattr(characters, "_build_suffix_table", no_build)
    code, out, err = run(capsys, "char", "B[100,0]", "--hmax", "100", "--jwindow=-100:100")
    assert code == 1
    assert out == ""
    assert f"above the limit {characters.MAX_TABLE_WEIGHT}" in err


@pytest.mark.parametrize("flags, cfg_text", [
    (["--bound", "100000"], ""),
    ([], "catalog_bound = 500\n"),
])
def test_catalog_bound_above_limit(tmp_path, capsys, monkeypatch, flags, cfg_text):
    def no_sequence(*args):
        raise AssertionError("a catalog sequence was built")

    monkeypatch.setattr(modules, "_seq", no_sequence)
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, "--config", str(cfg), "catalog", *flags)
    assert code == 1
    assert out == ""
    assert f"above the limit {modules.MAX_CATALOG_BOUND}" in err


def test_catalog_at_the_bound_limit_parses_again(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog",
                       "--bound", str(modules.MAX_CATALOG_BOUND))
    assert code == 0
    sequences = json.loads(out)["sequences"]
    assert max(len(s["middle"]) for s in sequences) == len(
        f"B[{grammar.MAX_STRING_LENGTH - 1},0]")
    for seq in sequences:
        for part in ("sub", "middle", "quotient"):
            assert str(grammar.parse_module_expr(seq[part])) == seq[part]


def test_catalog_into_a_closed_pipe_exits_quietly():
    src = str(Path(ghostkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "ghostkit.cli", "catalog", "--bound", "400"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # like ``| head -1``
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"zero-coset plus:")
    assert err == b""


@pytest.mark.parametrize("flags, cfg_text", [
    (["--max-length", "1000"], ""),
    (["--max-flow", "1000"], ""),
    ([], "pool_max_length = 1000\n"),
    ([], "pool_max_flow = 1000\n"),
])
def test_verify_pool_bounds_above_limit(tmp_path, capsys, monkeypatch, flags, cfg_text):
    def no_module(*args):
        raise AssertionError("a pool module was built")

    monkeypatch.setattr(verify, "vac", no_module)
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(cfg_text)
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "fusion", *flags)
    assert code == 1
    assert out == ""
    assert f"at most max_length={verify.MAX_POOL_LENGTH}, max_flow={verify.MAX_POOL_FLOW}" in err


def test_verify_characters_hmax_above_oracle_limit(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the characters suite started building")

    monkeypatch.setattr(verify, "sequence_catalog", no_build)
    monkeypatch.setattr(characters, "character", no_build)
    monkeypatch.setattr(characters, "_enumerate_free_monomials", no_build)
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text("hmax = 40\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "characters")
    assert code == 1
    assert out == ""
    assert f"hmax=40 counts monomials to weight 40, above the limit " \
           f"{characters.MAX_ORACLE_WEIGHT}" in err


def test_rigidity_huge_ell_is_named(capsys, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("a hypergeometric series was summed")

    monkeypatch.setattr(rigidity, "hyp2f1", no_series)
    code, out, err = run(capsys, "rigidity", "--ell", "100000000")
    assert code == 1
    assert out == ""
    assert "ell=100000000" in err


def test_verify_pool_cosets_above_limit(tmp_path, capsys, monkeypatch):
    def no_module(*args):
        raise AssertionError("a pool module was built")

    monkeypatch.setattr(verify, "vac", no_module)
    monkeypatch.setattr(verify, "typ", no_module)
    cosets = ", ".join(f"1/{k}" for k in range(2, 3 + verify.MAX_POOL_COSETS))
    cfg = tmp_path / "ghostkit.cfg"
    cfg.write_text(f"pool_cosets = {cosets}\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--suite", "fusion")
    assert code == 1
    assert out == ""
    assert f"at most {verify.MAX_POOL_COSETS} cosets, got {verify.MAX_POOL_COSETS + 1}" in err


@pytest.mark.parametrize("flags, named", [
    (["--ell", "30", "--w1", "0.5"], "ell=30 with w1=0.5"),
    (["--ell", "-30", "--w1", "0.5"], "ell=-30 with w1=0.5"),
    (["--ell", "3", "--w1", "1e300"], "ell=3 with w1=1e+300"),
    (["--w1", "nan"], "2*w1 finite"),
    (["--w1", "inf"], "2*w1 finite"),
    (["--w1", "1e308"], "2*w1 finite"),
])
def test_rigidity_out_of_range_is_refused_before_any_series(capsys, monkeypatch, flags, named):
    def no_series(*args, **kwargs):
        raise AssertionError("a hypergeometric series was summed")

    monkeypatch.setattr(rigidity, "hyp2f1", no_series)
    code, out, err = run(capsys, "rigidity", *flags)
    assert code == 1
    assert out == ""
    assert named in err


def test_rigidity_constant_out_of_range_is_refused(capsys):
    # the prefactor is in range here, but the constant underflows to zero
    code, out, err = run(capsys, "rigidity", "--j", "0.98", "--w1", "1e-10", "--ell", "-3")
    assert code == 1
    assert out == ""
    assert "ell=-3 with w1=1e-10" in err and "constant underflows" in err


def test_rigidity_in_range_value_is_kept(capsys):
    code, out, _ = run(capsys, "rigidity", "--ell", "5", "--w1", "0.5")
    assert code == 0
    assert "|I|=1.130744634372e-12" in out


@pytest.mark.parametrize("j", ["1e-160", "1e-170"])
def test_rigidity_near_zero_coset_is_computed(capsys, j):
    # the constant tends to 4 pi^2 as j -> 0, where sin(pi*j)**2 underflows
    code, out, err = run(capsys, "rigidity", "--j", j)
    assert code == 0, err
    assert "|I|=3.947841760436e+01" in out


def test_rigidity_identities_near_one_are_relative(capsys):
    # both sides of the Beta identity are near 1e6 here; they agree to 6e-12
    code, out, _ = run(capsys, "rigidity", "--j", "0.999999")
    assert code == 0
    assert out.strip().endswith("identities=pass")


def test_empty_jwindow_flag_is_refused_like_the_file(capsys):
    code, out, err = run(capsys, "char", "V[0]", "--jwindow=")
    assert code == 1
    assert out == ""
    assert "error: jwindow must look like 'a:b', got ''" in err


@pytest.mark.parametrize("flags, what", [
    (["--j", "0.02", "--ell", "23", "--w1", "0.5"], "the constant"),
    (["--j", "0.1", "--ell", "-2", "--w1", "1e-40"], "the prefactor"),
])
def test_rigidity_subnormal_is_refused(capsys, flags, what):
    # |I| = 4.4e-317 and a prefactor of 7.5e-318 keep about 7 significant digits
    code, out, err = run(capsys, "rigidity", *flags)
    assert code == 1
    assert out == ""
    ell, w1 = flags[3], flags[5]
    assert f"ell={ell} with w1={w1}" in err and f"{what} underflows to a subnormal" in err


def _loaded_modules(code):
    """The names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    src = str(Path(ghostkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n" + code + "\n"
              "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded_submodules(code):
    return {name for name in _loaded_modules(code) if name.startswith("ghostkit.")}


def test_cli_import_loads_only_what_the_command_needs():
    engines = {"ghostkit.verify", "ghostkit.rigidity", "ghostkit.homalg",
               "ghostkit.fusion", "ghostkit.functors"}
    loaded = _loaded_submodules("import ghostkit.cli")
    # perfbench's traced probe looks up FormalSum and CharSeries right after this import
    assert {"ghostkit.modules", "ghostkit.characters"} <= loaded
    assert not loaded & engines

    loaded = _loaded_submodules("import ghostkit.cli\n"
                                "ghostkit.cli.main(['fuse', 'W[1/3,0]', 'W[2/3,0]'])")
    assert "ghostkit.fusion" in loaded
    assert "ghostkit.verify" not in loaded


def test_cli_calls_load_no_dataclasses_and_json_only_for_json_output():
    calls = ("import ghostkit.cli\n"
             "ghostkit.cli.main(['fuse', 'B[3,0]', 'B[3,0]'])\n"
             "ghostkit.cli.main(['hom', 'B[3,0]', 'T[2,1]'])\n"
             "ghostkit.cli.main(['ext', 'B[3,0]', 'T[2,1]'])\n"
             "ghostkit.cli.main(['char', 'P[0]', '--hmax', '8', '--jwindow=-6:6',"
             " '--format', 'csv'])")
    heavy = {"dataclasses", "inspect", "json"}
    assert not _loaded_modules(calls) & heavy
    loaded = _loaded_modules(calls + "\nghostkit.cli.main(['fuse', 'B[3,0]', 'B[3,0]',"
                                     " '--format', 'json'])")
    assert loaded & heavy == {"json"}


def test_suite_choices_are_the_verify_suites():
    import argparse

    from ghostkit.cli import build_parser

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    suite = next(action for action in commands.choices["verify"]._actions
                 if action.dest == "suite")
    assert tuple(suite.choices) == ("all",) + tuple(verify.SUITES)


def _readme_calls():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("ghostkit "):
            call, _, comment = line.partition("#")
            _, _, want = comment.partition("->")
            yield shlex.split(call)[1:], want.strip() or None


@pytest.mark.parametrize("argv, want", list(_readme_calls()),
                         ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_readme_examples_run(capsys, argv, want):
    if argv[0] == "verify":
        # about 10 s; CI's `ghostkit verify --suite all` step runs the fusion suite
        build_parser().parse_args(argv)
        return
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if want is not None:
        assert out.splitlines()[0] == want


def test_readme_shows_every_command():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv, _ in _readme_calls()} == set(commands.choices)
