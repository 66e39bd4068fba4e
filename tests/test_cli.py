"""Batch tool: exit codes, schemas, determinism, and output contracts."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ergolab as E
from ergolab.cli import main, parse_n_grid, parse_vector_spec

from test_ergodicity import brute_correlation

F = Fraction


@pytest.fixture
def ergodic_path(tmp_path):
    path = tmp_path / "ergodic.json"
    E.save_system(E.CepsSystem.from_parts([F(1, 3)] * 3, [[0, 1, 2]], [1, 2, 0]), path)
    return str(path)


@pytest.fixture
def non_ergodic_path(tmp_path):
    path = tmp_path / "non_ergodic.json"
    E.save_system(E.CepsSystem.from_parts([F(1, 2)] * 2, [[0, 1]], [0, 1]), path)
    return str(path)


@pytest.fixture
def broken_path(tmp_path):
    doc = {"n": 2, "weights": [{"num": 1, "den": 2}] * 2, "partition": [[0, 1]], "sigma": [0, 0]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None):
    """``python -m ergolab *argv`` in a child process, output captured as text."""
    # the child imports the same ergolab as this test, whatever sys.path pytest was given
    package_root = str(Path(E.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "ergolab", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


# --- vector and grid specs ------------------------------------------------------

def test_vector_spec_grammar():
    assert parse_vector_spec("basis:1", 3) == E.basis_vector(3, 1)
    assert parse_vector_spec("component:101", 3) == E.Component([1, 0, 1])
    assert parse_vector_spec("rat:1/2,-3,0", 3) == E.RieszVector([F(1, 2), -3, 0])


@pytest.mark.parametrize("spec", ["basis:9", "basis:x", "component:10", "rat:1,2",
                                  "rat:1/0,1,2", "rat:a,b,c", "mystery:1", "noseparator"])
def test_vector_spec_rejects_garbage(spec):
    with pytest.raises(ValueError):
        parse_vector_spec(spec, 3)


def test_vector_spec_accepts_exact_decimal_strings():
    assert parse_vector_spec("rat:0.5,1,2", 3) == E.RieszVector([F(1, 2), 1, 2])


def test_n_grid_doubles():
    assert parse_n_grid("geometric:1:9") == [1, 2, 4, 8]
    assert parse_n_grid("geometric:3:3") == [3]
    with pytest.raises(ValueError):
        parse_n_grid("linear:1:5")
    with pytest.raises(ValueError):
        parse_n_grid("geometric:5:1")


# --- validate --------------------------------------------------------------------

def test_validate_accepts_valid_system(capsys, ergodic_path):
    code, out, _ = run(capsys, "validate", ergodic_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["passed"] is True


def test_validate_flags_broken_system(capsys, broken_path):
    code, out, _ = run(capsys, "validate", broken_path)
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "basis-preservation" in failed and "permutation" in failed
    witnessed = [c for c in doc["checks"] if not c["passed"]]
    assert all("witness" in c for c in witnessed)


def test_validate_schema_error_carries_path(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "weights": [{"num": 1, "den": 2}] * 2,
                                "partition": [[0, 1]], "sigma": [0, 5]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "$.sigma[1]" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/system.json")
    assert code == 2 and "no such file" in err


def test_validate_unparseable_json(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "not valid JSON" in err


# --- check -----------------------------------------------------------------------

def test_check_ergodic(capsys, ergodic_path):
    code, out, _ = run(capsys, "check", ergodic_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True and doc["ergodic"] is True
    assert set(doc["verdicts"]) == set(E.CRITERIA)
    assert doc["witnesses"] == {}


def test_check_non_ergodic_serializes_witnesses(capsys, non_ergodic_path):
    code, out, _ = run(capsys, "check", non_ergodic_path)
    assert code == 1
    doc = json.loads(out)
    assert doc["ergodic"] is False
    assert set(doc["witnesses"]) == set(E.CRITERIA)
    assert doc["witnesses"]["definition"] == [{"num": 1, "den": 1}, {"num": 0, "den": 1}]
    assert set(doc["witnesses"]["corr-diagonal"]) == {"f", "g"}


@pytest.mark.parametrize("method", E.CRITERIA)
def test_check_single_methods(capsys, ergodic_path, method):
    code, out, _ = run(capsys, "check", ergodic_path, "--method", method)
    assert code == 0
    assert json.loads(out)["verdicts"] == {method: True}


def test_check_exhaustive_mode(capsys, non_ergodic_path):
    code, out, _ = run(capsys, "check", non_ergodic_path, "--exhaustive")
    assert code == 1
    assert json.loads(out)["agreement"] is True


def test_check_exhaustive_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "big.json"
    E.save_system(E.random_system(9, 2, seed=3), path)
    code, _, err = run(capsys, "check", str(path), "--exhaustive", "--cap", "8")
    assert code == 2 and "cap" in err


def test_check_rejects_invalid_system(capsys, broken_path):
    code, out, _ = run(capsys, "check", broken_path)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_cap_env_override(capsys, non_ergodic_path, monkeypatch):
    monkeypatch.setenv("ERGOLAB_CAP", "1")
    code, _, err = run(capsys, "check", non_ergodic_path, "--exhaustive")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("ERGOLAB_CAP", "not-a-number")
    code, _, err = run(capsys, "check", non_ergodic_path)
    assert code == 2 and "ERGOLAB_CAP" in err


# --- unusable input exits 2, never 1 ("not ergodic") ------------------------------

def exit_code(capsys, *argv):
    """Exit code of one in-process call, counting argparse's own exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_check_negative_cap_flag_exits_2(capsys, ergodic_path):
    code, err = exit_code(capsys, "check", ergodic_path, "--exhaustive", "--cap", "-1")
    assert code == 2 and "--cap" in err


def test_fuzz_negative_cap_flag_exits_2(capsys):
    """A negative cap used to run the campaign and skip the oracle silently."""
    code, err = exit_code(capsys, "fuzz", "--atoms", "3", "--systems", "2", "--cap", "-5")
    assert code == 2 and "--cap" in err


@pytest.mark.parametrize("command", ["check", "fuzz"])
def test_negative_cap_env_exits_2(capsys, ergodic_path, monkeypatch, command):
    monkeypatch.setenv("ERGOLAB_CAP", "-3")
    argv = ((command, ergodic_path, "--exhaustive") if command == "check"
            else (command, "--atoms", "3", "--systems", "2"))
    code, err = exit_code(capsys, *argv)
    assert code == 2 and "ERGOLAB_CAP" in err


FILE_COMMANDS = {
    "validate": (),
    "check": (),
    "converge": ("--vector", "basis:0"),
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_directory_path_exits_2(capsys, tmp_path, command):
    code, err = exit_code(capsys, command, str(tmp_path), *FILE_COMMANDS[command])
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{")
    code, err = exit_code(capsys, command, str(path), *FILE_COMMANDS[command])
    assert code == 2 and "cannot read" in err


def _unusable_file(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    if kind == "missing":
        return path
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe{")
    elif kind == "bad-json":
        path.write_text("{nope")
    elif kind == "huge-integer":  # beyond the interpreter's integer digit limit
        path.write_text('{"n": ' + "1" * 5000 + "}")
    elif kind == "deep-nesting":  # beyond the decoder's recursion limit
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif kind == "schema":
        path.write_text(json.dumps({"n": 1, "weights": [1], "partition": [[0]], "sigma": [3]}))
    return path


UNUSABLE_FILES = ["missing", "directory", "non-utf8", "bad-json", "huge-integer",
                  "deep-nesting", "schema"]


@pytest.mark.parametrize("kind", UNUSABLE_FILES)
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_no_subcommand_exits_1_on_unusable_file(capsys, tmp_path, command, kind):
    path = _unusable_file(kind, tmp_path)
    code, err = exit_code(capsys, command, str(path), *FILE_COMMANDS[command])
    assert code == 2 and err.startswith("error:"), (command, kind, err)


@pytest.mark.parametrize("argv, env", [
    (("check", "{system}", "--exhaustive", "--cap", "-1"), None),
    (("check", "{system}", "--cap", "x"), None),
    (("check", "{system}", "--exhaustive"), "-3"),
    (("check", "{system}"), "x"),
    (("check", "{system}", "--method", "nonsense"), None),
    (("converge", "{system}", "--vector", "basis:7"), None),
    (("converge", "{system}", "--vector", "basis:0", "--n-grid", "geometric:0:4"), None),
    (("fuzz", "--atoms", "3", "--systems", "2", "--cap", "-5"), None),
    (("fuzz", "--atoms", "3", "--systems", "2"), "-3"),
    (("fuzz", "--atoms", "0", "--systems", "2"), None),
    (("fuzz", "--atoms", "3"), None),
])
def test_no_subcommand_exits_1_on_unusable_arguments(capsys, ergodic_path, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("ERGOLAB_CAP", raising=False)
    else:
        monkeypatch.setenv("ERGOLAB_CAP", env)
    code, err = exit_code(capsys, *(a.format(system=ergodic_path) for a in argv))
    assert code == 2 and "error" in err


# --- converge ----------------------------------------------------------------------

def test_converge_identity_map_has_zero_errors(capsys, tmp_path):
    path = tmp_path / "identity.json"
    E.save_system(E.CepsSystem.from_parts([F(1, 2)] * 2, [[0], [1]], [0, 1]), path)
    code, out, _ = run(capsys, "converge", str(path), "--vector", "rat:4,-1",
                       "--n-grid", "geometric:1:16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sup_error,bound,within_bound"
    for line in lines[1:]:
        n, err, bound, ok = line.split(",")
        assert err == "0" and ok == "true"


def test_converge_three_cycle_remainder_pattern(capsys, ergodic_path):
    code, out, _ = run(capsys, "converge", ergodic_path, "--vector", "rat:3,0,0",
                       "--n-grid", "geometric:1:64")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_n = {int(r[0]): r for r in rows}
    assert by_n[1][1] == "2"       # first mean is f itself, two away from the limit
    assert by_n[4][1] == "1/2"     # wrap-around remainder of the 3-cycle at n=4
    assert all(r[3] == "true" for r in rows)


def test_converge_correlation_table(capsys, ergodic_path):
    code, out, _ = run(capsys, "converge", ergodic_path, "--vector", "basis:0",
                       "--against", "basis:0", "--n-grid", "geometric:1:32", "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["within_bound"] for row in doc["rows"])
    last = doc["rows"][-1]
    assert last["n"] == 32
    # the table row must equal the correlation gap taken from the definition, exactly
    system = E.load_system(ergodic_path)
    e0 = E.basis_vector(3, 0)
    gap = E.sup_norm(brute_correlation(system, e0, e0, 32) - E.correlation_limit(system, e0, e0))
    assert F(last["sup_error"]["num"], last["sup_error"]["den"]) == gap
    assert gap > 0


def test_converge_float_mode(capsys, ergodic_path):
    code, out, _ = run(capsys, "converge", ergodic_path, "--vector", "rat:3,0,0",
                       "--n-grid", "geometric:1:1024", "--float", "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["within_bound"] for row in doc["rows"])
    assert isinstance(doc["rows"][0]["sup_error"], float)


def test_converge_float_correlation_tracks_exact(capsys, ergodic_path):
    table = ("converge", ergodic_path, "--vector", "basis:0",
             "--n-grid", "geometric:1:64", "--emit", "json")
    for args in (table + ("--against", "basis:1"), table):
        code, out, _ = run(capsys, *args, "--float")
        assert code == 0
        float_rows = {row["n"]: row["sup_error"] for row in json.loads(out)["rows"]}
        code, out, _ = run(capsys, *args)
        assert code == 0
        for row in json.loads(out)["rows"]:
            exact = row["sup_error"]["num"] / row["sup_error"]["den"]
            assert abs(float_rows[row["n"]] - exact) < 1e-9


def test_converge_bad_vector_spec(capsys, ergodic_path):
    code, _, err = run(capsys, "converge", ergodic_path, "--vector", "rat:1,2")
    assert code == 2 and "vector" in err or "entries" in err


def test_converge_refuses_invalid_system(capsys, broken_path):
    code, _, err = run(capsys, "converge", broken_path, "--vector", "basis:0")
    assert code == 1 and "valid" in err


@pytest.mark.parametrize("output", [("--float",), ("--emit", "json", "--pretty")])
def test_converge_exits_2_when_floats_overflow(capsys, ergodic_path, output):
    """10**400 fits no float: the table is refused on stderr, not crashed with exit 1."""
    argv = ("converge", ergodic_path, "--vector", "rat:1e400,1,0", "--n-grid", "geometric:1:4")
    code, out, err = run(capsys, *argv, *output)
    assert code == 2 and out == "" and "error:" in err and "float" in err
    code, out, _ = run(capsys, *argv)  # the exact table holds the same values
    assert code == 0 and out.startswith("n,sup_error,bound,within_bound\n")


@pytest.mark.parametrize("output", [(), ("--emit", "json")])
def test_converge_exits_2_past_the_int_digit_limit(capsys, ergodic_path, output):
    """Exact values of 5001 digits exceed the interpreter's int-to-text limit."""
    argv = ("converge", ergodic_path, "--vector", "rat:1e5000,1,0", "--n-grid", "geometric:1:4")
    code, out, err = run(capsys, *argv, *output)
    assert code == 2 and out == "" and "error:" in err and "digits" in err


@pytest.mark.parametrize("entry", ["1e99999999", "-1E-99999999", "2.5e9_999_999"])
def test_converge_refuses_a_huge_exponent_at_parse_time(ergodic_path, entry):
    """Fraction("1e99999999") would compute 10**99999999 before any check ran."""
    proc = run_module("converge", ergodic_path, "--vector", f"rat:{entry},1,0",
                      "--n-grid", "geometric:1:2", timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "digits" in proc.stderr


def test_converge_exits_2_when_a_product_passes_the_int_digit_limit(capsys, ergodic_path):
    """1e3000 parses, but the correlation table holds values of about 6000 digits."""
    argv = ("converge", ergodic_path, "--vector", "rat:1e3000,1,0", "--against", "rat:1e3000,1,0",
            "--n-grid", "geometric:1:4")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "cannot write the table" in err and f"{sys.get_int_max_str_digits()} digits" in err


@pytest.fixture
def twelve_atom_path(tmp_path):
    path = tmp_path / "twelve.json"
    E.save_system(E.random_system(12, 3, 4), path)
    return str(path)


def _exact_cell(cell):
    return F(cell) if isinstance(cell, str) else F(cell["num"], cell["den"])


@pytest.mark.parametrize("against", [(), ("--against", "rat:2/7,1,-1/3,0,5/9,7/11,1/13,-2,3/4,0,1/5,6/7")])
@pytest.mark.parametrize("emit", ["csv", "json"])
def test_converge_float_renders_the_exact_values(capsys, twelve_atom_path, against, emit):
    """--float prints float() of each exact cell and the exact within_bound verdict."""
    argv = ("converge", twelve_atom_path, "--vector", "rat:1/3,2/7,7/11,-5/13,0,1,-1/2,3/17,9/10,-4/9,1/6,2",
            *against, "--n-grid", "geometric:1:4096", "--emit", emit)
    tables = []
    for extra in ((), ("--float",)):
        code, out, _ = run(capsys, *argv, *extra)
        if emit == "csv":
            header, *lines = out.splitlines()
            assert header == "n,sup_error,bound,within_bound"
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
            for row in rows:
                row["within_bound"] = row["within_bound"] == "true"
        else:
            rows = json.loads(out)["rows"]
        tables.append((code, rows))
    (exact_code, exact_rows), (float_code, float_rows) = tables
    assert exact_code == float_code and len(exact_rows) == len(float_rows) == 13
    for exact, approx in zip(exact_rows, float_rows):
        assert int(exact["n"]) == int(approx["n"])
        for key in ("sup_error", "bound"):
            assert float(approx[key]) == float(_exact_cell(exact[key]))
            if emit == "json":
                assert isinstance(approx[key], float)
        assert approx["within_bound"] == exact["within_bound"]


# --- fuzz ------------------------------------------------------------------------------

def test_fuzz_campaign_is_clean_and_deterministic(capsys):
    args = ("fuzz", "--atoms", "6", "--systems", "40", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["disagreements"] == 0
    assert doc["isometry_failures"] == 0
    assert doc["oracle_disagreements"] == 0
    assert doc["ergodic"] + doc["non_ergodic"] == 40
    assert doc["oracle_checked"] == 40


def test_fuzz_single_atom_all_ergodic(capsys):
    code, out, _ = run(capsys, "fuzz", "--atoms", "1", "--systems", "10", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ergodic"] == 10 and doc["non_ergodic"] == 0


def test_fuzz_cap_limits_oracle(capsys):
    code, out, _ = run(capsys, "fuzz", "--atoms", "5", "--systems", "5",
                       "--seed", "3", "--cap", "4")
    assert code == 0
    assert json.loads(out)["oracle_checked"] == 0


def test_fuzz_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "fuzz", "--atoms", "0", "--systems", "5")
    assert code == 2 and "positive" in err


def test_check_aborts_loudly_on_forced_disagreement(capsys, ergodic_path, monkeypatch):
    """Exit 3 is reserved for criterion disagreement; force one to see it fire."""
    import ergolab.cli as cli

    fake = E.ErgodicityReport({"definition": True, "absorbing": False},
                              {"absorbing": E.zero(3)}, agreement=False)
    monkeypatch.setattr(cli, "full_report", lambda *a, **k: fake)
    code, out, err = run(capsys, "check", ergodic_path)
    assert code == 3
    assert "disagree" in err
    assert json.loads(out)["agreement"] is False


def test_fuzz_exits_nonzero_on_forced_disagreement(capsys, monkeypatch):
    import ergolab.cli as cli

    fake = E.ErgodicityReport({"definition": True, "absorbing": False},
                              {"absorbing": E.zero(3)}, agreement=False)
    monkeypatch.setattr(cli, "full_report", lambda *a, **k: fake)
    code, out, _ = run(capsys, "fuzz", "--atoms", "3", "--systems", "2", "--seed", "1")
    assert code == 3
    assert json.loads(out)["disagreements"] == 2


# --- presentation and packaging ---------------------------------------------------------

def test_pretty_renders_decimals(capsys, non_ergodic_path):
    code, out, _ = run(capsys, "check", non_ergodic_path, "--pretty")
    assert code == 1
    doc = json.loads(out)
    assert doc["witnesses"]["definition"] == [1.0, 0.0]


def test_module_invocation_round_trip(ergodic_path):
    proc = run_module("check", ergodic_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ergodic"] is True
