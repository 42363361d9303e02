"""Command-line behavior: config parsing and diagnostics, exit codes,
output files and their encoding, order refitting."""

import io
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

import spderk.cli as cli
import spderk.experiments as experiments
from spderk.errors import ConfigError
from spderk.experiments import ErrorRow, ErrorTable, StudyConfig
from spderk.cli import (
    check_order_bands,
    config_from_dict,
    load_config,
    run_cli,
)
from spderk.qwiener import dump_path


def _write_config(tmp_path, name="study.json", **overrides):
    data = dict(problem="example1", N=8, M_list=[4, 8, 16], realizations=3,
                schemes=["erkm15", "exe"], seed=5, out_dir=str(tmp_path / "out"))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _run_process(argv, timeout=60, **env_vars):
    """Exit status, stdout and stderr of `spderk argv`, run with env_vars
    added to the environment in a session of its own, which is killed
    with any workers and fails the test if it has not ended within
    timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               **env_vars)
    proc = subprocess.Popen([sys.executable, "-m", "spderk.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("spderk %s did not end within %d s" % (" ".join(argv), timeout))
    return proc.returncode, out.decode(), err.decode()


def _power_table(scheme, gamma, M_values=(4, 8, 16)):
    rows = tuple(
        ErrorRow(scheme, M, 1.0 / M, 2.0 * (1.0 / M) ** gamma, 0.0, 0)
        for M in M_values
    )
    return ErrorTable(rows)


def test_study_end_to_end(tmp_path):
    cfg_path = _write_config(tmp_path)
    code, out, err = _run(["study", str(cfg_path), "--workers", "1"])
    assert code == 0, err
    out_dir = tmp_path / "out"
    table_file = out_dir / "example1_errors.csv"
    meta_file = out_dir / "example1_meta.json"
    assert table_file.exists() and meta_file.exists()
    assert "example1_errors.csv" in out

    with open(table_file) as fh:
        table = ErrorTable.read_csv(fh)
    assert len(table.rows) == 6  # 2 schemes x 3 M values
    assert table.schemes() == ["erkm15", "exe"]

    # the metadata echo re-parses to an equivalent config
    meta = json.loads(meta_file.read_text())
    echoed = config_from_dict(meta["config"]).validated()
    assert echoed == load_config(str(cfg_path)).validated()
    assert set(meta) == {"config", "seed", "versions"}
    assert list(meta["config"]) == sorted(fld.name for fld in fields(StudyConfig))
    assert meta["seed"] == 5
    assert "numpy" in meta["versions"]

    # same config + seed: byte-identical outputs
    before = table_file.read_bytes(), meta_file.read_bytes()
    code, _, _ = _run(["study", str(cfg_path), "--workers", "1"])
    assert code == 0
    assert (table_file.read_bytes(), meta_file.read_bytes()) == before


def test_config_file_is_the_only_input_besides_the_flags(tmp_path, monkeypatch):
    # no environment variable reaches a study: with these exported, the
    # seed, the output directory and the sampled path are the config's
    cfg_path = _write_config(tmp_path, M_list=[4], schemes=["exe"])
    code, path_out, err = _run(["path", str(cfg_path)])
    assert code == 0, err
    other = tmp_path / "elsewhere"
    monkeypatch.setenv("SPDERK_SEED", "9")
    monkeypatch.setenv("SPDERK_OUT_DIR", str(other))
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 0, err
    meta = json.loads((tmp_path / "out" / "example1_meta.json").read_text())
    assert meta["seed"] == meta["config"]["seed"] == 5
    assert not other.exists()
    assert _run(["path", str(cfg_path)]) == (0, path_out, "")


def test_output_files_are_utf8_under_any_locale(tmp_path):
    # an ASCII locale, with UTF-8 mode and locale coercion off; standard
    # streams stay UTF-8, so only the encoding of the files is tested
    ascii_locale = dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                        PYTHONIOENCODING="utf-8")
    cfg_path = _write_config(tmp_path, realizations=2,
                             schemes=[{"name": "erkm15", "label": "erkm-\u00e9"}])
    code, out, err = _run_process(["study", str(cfg_path), "--workers", "1"], **ascii_locale)
    assert code == 0 and "Traceback" not in err, err
    table_path = tmp_path / "out" / "example1_errors.csv"
    assert "\nerkm-\u00e9,4," in table_path.read_text(encoding="utf-8")
    code, out, err = _run_process(["order", str(table_path)], **ascii_locale)
    assert code == 0 and err == "", err
    assert out.startswith("erkm-\u00e9: fitted order ")


def test_config_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "problem": "example1",\n  "bogus": 1\n}\n')
    code, _, err = _run(["study", str(bad)])
    assert code == 1
    assert "bogus" in err and "line 3" in err

    bad.write_text('{\n  "problem": "example1",\n')
    code, _, err = _run(["study", str(bad)])
    assert code == 1 and "line" in err

    bad.write_text("[1, 2]")
    code, _, err = _run(["study", str(bad)])
    assert code == 1 and "top level" in err

    # the line of the top-level key, not of an equal string before it
    bad.write_text('{\n  "schemes": [{"name": "exe", "label": "N"}],\n  "N": 3.7,\n'
                   '  "problem": "example1"\n}\n')
    code, _, err = _run(["study", str(bad)])
    assert code == 1 and "line 3: N must be an integer" in err

    bad.write_text('{"N": 8}')
    code, _, err = _run(["study", str(bad)])
    assert code == 1 and "problem" in err

    # a key given twice is rejected at its second line, at the top level
    # and inside a nested object, even when another object holds it too
    bad.write_text('{\n  "problem": "example1",\n  "N": 8,\n  "N": 16\n}\n')
    code, out, err = _run(["study", str(bad)])
    assert code == 1 and out == ""
    assert "duplicate key 'N'" in err and "line 4" in err and "Traceback" not in err
    bad.write_text('{\n  "problem": "example1",\n'
                   '  "schemes": [{"name": "ewp", "label": "M"}, {"name": "exe"}],\n'
                   '  "reference": {"mode": "ewp",\n    "M": 8,\n    "M": 16}\n}\n')
    with pytest.raises(ConfigError, match=r"line 6: duplicate key 'M'"):
        load_config(str(bad))
    bad.write_text('{"schemes": [{"name": "exe"},\n {"name": "lie", "name": "dfmm"}],\n'
                   ' "name": 1, "name": 2}')
    with pytest.raises(ConfigError, match=r"line 2: duplicate key 'name'"):
        load_config(str(bad))

    code, _, err = _run(["study", str(tmp_path / "missing.json")])
    assert code == 1

    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "key, value, phrase",
    [
        ("N", "abc", "integer"),
        ("N", 3.7, "integer"),
        ("realizations", True, "integer"),
        ("T", "x", "finite and > 0"),
        ("M_list", [8, 16.5], "list of integers"),
        ("schemes", "exe", "list of scheme entries"),
        ("reference", {"mode": "ewp", "M": "big"}, "reference"),
        ("out_dir", 3, "string"),
        # each field's rule checks the range with the type
        ("N", 0, "N must be an integer >= 1, got 0"),
        ("K", 0, "K must be an integer >= 1, got 0"),
        ("T", 0, "T must be finite and > 0, got 0"),
        ("realizations", 0, "realizations must be an integer >= 1, got 0"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("M_list", [], "M_list must be a non-empty list of integers >= 1"),
        ("M_list", [8, 8], "M_list entries must be distinct and each divide the largest"),
        ("M_list", [8, 12], "M_list entries must be distinct and each divide the largest"),
        ("schemes", [], "schemes must be a non-empty list of scheme entries"),
        ("schemes", ["exe", "nope"], "schemes entry 'nope': unknown scheme 'nope'"),
        ("schemes", ["exe", {"name": "lie", "label": "exe"}],
         "schemes must have unique labels, got ['exe', 'exe']"),
        ("problem", "nope", "problem must be one of example1, example2, example3"),
        ("reference", {"mode": "x"}, "reference mode must be 'exact' or 'ewp', got 'x'"),
    ],
)
def test_config_type_errors(tmp_path, key, value, phrase):
    # an error confined to one field names the file, the key's line and the key
    cfg_path = _write_config(tmp_path, **{key: value})
    text = cfg_path.read_text()
    line = text[:text.index('"%s"' % key)].count("\n") + 1
    with pytest.raises(ConfigError) as exc:
        load_config(str(cfg_path))
    msg = str(exc.value)
    assert msg.startswith("%s: line %d: %s " % (cfg_path, line, key)) and phrase in msg
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err == "config error: %s\n" % msg and out == ""

    # without the text the diagnostic still names the key
    with pytest.raises(ConfigError, match="^<config>: %s " % key):
        config_from_dict({"problem": "example1", key: value})


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_study_rejects_bad_worker_counts(tmp_path, workers):
    cfg_path = _write_config(tmp_path)
    code, out, err = _run(["study", str(cfg_path), "--workers", workers])
    assert code == 1 and "workers must be a positive integer" in err
    assert out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, phrase",
    [
        (dict(K=-3), "K must be an integer >= 1"),
        (dict(reference={"mode": "exact", "M": 999}), "exact reference takes none"),
        (dict(schemes=[{"name": "erkm15", "c": ["0.5"] * 7}]), "'c' must be a list of 7"),
        (dict(T=10**400), "T must be finite and > 0"),
        # a subnormal fine step T/16 would fail the first solve
        (dict(T=1e-320, M_list=[8, 16]), "T=1e-320 is too small"),
        # the study used to warn of overflow and stop at its first step
        (dict(schemes=[{"name": "erkm15", "c": [1, 1, 1e-160, 1, 1, 1, 1]}]),
         "c = [1.0, 1.0, 1e-160, 1.0, 1.0, 1.0, 1.0] leaves the ERKM1.5 family"),
        # 1/c_6^2 rounded to 0: the study used to run another scheme
        (dict(schemes=[{"name": "erkm15", "c": [1, 1, 1, 1, 1, 1e200, 1]}]),
         "leaves the ERKM1.5 family"),
    ],
)
def test_study_rejects_bad_values_as_config_errors(tmp_path, overrides, phrase):
    cfg_path = _write_config(tmp_path, **overrides)
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err.startswith("config error:") and phrase in err
    assert out == ""


@pytest.mark.parametrize("label", [5, None, "a\nb"])
def test_study_rejects_bad_scheme_labels(tmp_path, label):
    cfg_path = _write_config(tmp_path, schemes=[{"name": "exe", "label": label}])
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err.startswith("config error:") and "label must be" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "overrides, phrase",
    [
        (dict(realizations=10**20),
         "realizations is too large: a float64 array of shape (100000000000000000000, 2, 3)"),
        (dict(M_list=[8, 10**20]),
         "M_list is too large: a float64 array of shape (2, 100000000000000000000, 1)"),
        # the problem's own arrays, checked before it is built
        (dict(N=10**20),
         "N is too large: a float64 array of shape (100000000000000000000,"
         " 100000000000000000000)"),
        (dict(problem="example2", K=10**20, reference={"mode": "ewp", "M": 32}),
         "K is too large: a float64 array of shape (8, 100000000000000000000)"),
        (dict(problem="example2", K=2**62, reference={"mode": "ewp", "M": 32}),
         "K is too large: a float64 array of shape (8, 4611686018427387904)"),
    ],
)
def test_study_rejects_sizes_numpy_cannot_address(tmp_path, overrides, phrase, workers):
    # in a process of its own: a pool used to hang on such a study
    cfg_path = _write_config(tmp_path, **overrides)
    code, out, err = _run_process(["study", str(cfg_path), "--workers", workers])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("config error: ") and phrase in err


@pytest.mark.parametrize("argv", [["study", "--workers", "1"], ["study", "--workers", "2"],
                                  ["path"]])
def test_huge_T_is_a_config_error(tmp_path, argv):
    # the fine step's h**1.5, the scale of its mixed integrals, overflows;
    # it used to end in an OverflowError traceback
    cfg_path = _write_config(tmp_path, T=1e300, M_list=[8, 16, 32], realizations=2,
                             schemes=["exe"])
    code, out, err = _run_process(argv[:1] + [str(cfg_path)] + argv[1:])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == "config error: T=1e+300 is too large: its fine step T/32 raised to" \
                  " the power 1.5 overflows\n"
    # a T whose fine step's power is finite still runs
    cfg_path = _write_config(tmp_path, T=1e150, M_list=[8, 16, 32], realizations=2,
                             schemes=["exe"])
    code, out, err = _run(argv[:1] + [str(cfg_path)] + argv[1:])
    assert code == 0 and err == "", err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_study_set_up_failure_ends_alike_for_any_worker_count(tmp_path, workers):
    # a fine path of 2^58 steps takes 4 EiB, which no address space holds
    # (16 TiB, at 2^40 steps, can be granted where memory is overcommitted),
    # so every worker fails to set up its study; a pool used to replace
    # such workers forever
    cfg_path = _write_config(tmp_path, M_list=[8, 2**58], realizations=2, schemes=["lie"])
    code, out, err = _run_process(["study", str(cfg_path), "--workers", workers])
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["study", "path", "order"])
def test_file_that_is_not_utf8_is_a_config_error(tmp_path, command):
    # a UTF-16 byte-order mark is not UTF-8, the encoding of JSON
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"problem": "example1"}'.encode("utf-16-le"))
    code, out, err = _run([command, str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("config error: %s: " % path) and "0xff" in err


def test_every_field_has_one_rule():
    assert list(experiments.FIELD_RULES) == [fld.name for fld in fields(StudyConfig)]


def test_closed_pipe_exits_quietly(tmp_path):
    # a reader that stops after one line: no traceback, exit status 1
    cfg_path = _write_config(tmp_path, M_list=[4096])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "spderk.cli", "path", str(cfg_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"step,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def _no_study(cfg, workers=None):
    raise AssertionError("the study ran before its output directory was made")


def test_study_checks_out_dir_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_study", _no_study)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    # out_dir names an existing file
    cfg_path = _write_config(tmp_path, out_dir=str(blocker))
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err.startswith("config error:") and str(blocker) in err
    assert "Traceback" not in err and out == ""
    # out_dir names a directory under that file
    cfg_path = _write_config(tmp_path, out_dir=str(blocker / "out"))
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err.startswith("config error:") and str(blocker / "out") in err
    assert out == ""


def test_study_reports_unwritable_outputs(tmp_path, monkeypatch):
    # the table's path is taken by a directory
    monkeypatch.setattr(cli, "run_study", lambda cfg, workers=None: _power_table("exe", 0.5))
    cfg_path = _write_config(tmp_path, schemes=["exe"])
    table_path = tmp_path / "out" / "example1_errors.csv"
    table_path.mkdir(parents=True)
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 1 and err.startswith("config error: cannot write")
    assert str(table_path) in err and out == ""


def test_study_csv_is_byte_identical_for_any_worker_count(tmp_path):
    csvs = []
    for workers in ("1", "2"):
        cfg_path = _write_config(tmp_path, name="w%s.json" % workers, realizations=4,
                                 out_dir=str(tmp_path / ("w" + workers)))
        code, _, err = _run(["study", str(cfg_path), "--workers", workers])
        assert code == 0, err
        csvs.append((tmp_path / ("w" + workers) / "example1_errors.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_usage_errors():
    code, _, _ = _run(["frobnicate"])
    assert code == 1
    # the invariant checks live in the test suite, not in a subcommand
    code, _, _ = _run(["selftest"])
    assert code == 1
    code, _, _ = _run([])
    assert code == 1
    code, _, _ = _run(["--help"])
    assert code == 0


def test_config_round_trip_helpers():
    cfg = StudyConfig("example2", N=8, M_list=(4, 8), realizations=2,
                      schemes=({"name": "erkm15", "c": [1.0] * 7}, "ewp"),
                      reference={"mode": "ewp", "M": 16}, seed=3).validated()
    # the study's metadata echoes its config as asdict(cfg)
    again = config_from_dict(asdict(cfg)).validated()
    assert again == cfg


def test_order_subcommand(tmp_path):
    table_path = tmp_path / "t.csv"
    with open(table_path, "w") as fh:
        _power_table("erkm15", 1.5).write_csv(fh)
    code, out, _ = _run(["order", str(table_path)])
    assert code == 0
    assert "erkm15: fitted order 1.500" in out

    table_path.write_text("junk\n")
    code, _, err = _run(["order", str(table_path)])
    assert code == 1 and "header" in err

    # a readable table with no scheme at 3 usable rows
    with open(table_path, "w") as fh:
        _power_table("erkm15", 1.5, M_values=(4, 8)).write_csv(fh)
    code, out, err = _run(["order", str(table_path)])
    assert (code, out, err) == (1, "", "no scheme has enough rows to fit an order\n")


_VALID_ROWS = ("exe,4,0.25,1.0,0.0,0", "exe,8,0.125,0.5,0.0,0",
               "exe,16,0.0625,0.125,0.0,0")


@pytest.mark.parametrize(
    "row, phrase",
    [
        ("exe,16,0.125,0.125,0.0,0", "h must decrease as M grows"),
        ("exe,16,0.0,0.125,0.0,0", "h must be finite and > 0"),
        ("exe,16,-0.125,0.125,0.0,0", "h must be finite and > 0"),
        ("exe,16,nan,0.125,0.0,0", "h must be finite and > 0"),
        ("exe,0,0.0625,0.125,0.0,0", "M must be >= 1"),
        ("exe,16,0.0625,0.125,0.0,-1", "flagged must be >= 0"),
        ("exe,16,0.0625,-0.125,0.0,0", "exe at M=16: rms_error must be nonnegative"),
        ("exe,16,0.0625,0.125,-1.0,0", "exe at M=16: std_error must be nonnegative"),
        # a label only as resolve_scheme takes it, so write_csv writes it
        ("exe ,16,0.0625,0.125,0.0,0", "malformed row"),
        (",16,0.0625,0.125,0.0,0", "malformed row"),
        # each number only in the form write_csv writes it: int() and
        # float() would read these as the valid M = 16, h = 0.0625 or
        # flagged = 0
        ("exe,1_6,0.0625,0.125,0.0,0", "malformed row"),
        ("exe, 16,0.0625,0.125,0.0,0", "malformed row"),
        ("exe,16 ,0.0625,0.125,0.0,0", "malformed row"),
        ("exe,\u0661\u0666,0.0625,0.125,0.0,0", "malformed row"),
        ("exe,16,0.0625,0.125,0.0,0_0", "malformed row"),
        ("exe,16,0.0625,0.125,0.0, 0", "malformed row"),
        ("exe,16,0.06_25,0.125,0.0,0", "malformed row"),
        ("exe,16, 0.0625,0.125,0.0,0", "malformed row"),
        ("exe,16,0.0625,0.125 ,0.0,0", "malformed row"),
        ("exe,16,0.0625,0.125,0_0.0,0", "malformed row"),
        # nor other spellings of a valid number, which write_csv would
        # write back in another form
        ("exe,16,0.0625,0.125,0.0,008", "malformed row"),
        ("exe,16,0.0625,0.125,0.0,-0", "malformed row"),
        ("exe,16,+0.0625,0.125,0.0,0", "malformed row"),
        ("exe,16,.0625,0.125,0.0,0", "malformed row"),
        ("exe,16,0.0625,1.25E-1,0.0,0", "malformed row"),
        ("exe,16,0.0625,Infinity,0.0,0", "malformed row"),
        ("exe,16,0.0625,0.125,NaN,0", "malformed row"),
        ("exe,16,0,0.125,0.0,0", "malformed row"),
    ],
)
def test_order_rejects_impossible_tables(tmp_path, row, phrase):
    # each table replaces the last of three valid rows
    table_path = tmp_path / "t.csv"
    table_path.write_text("\n".join((experiments.CSV_HEADER,) + _VALID_ROWS[:2] + (row,)),
                          encoding="utf-8")
    code, out, err = _run(["order", str(table_path)])
    assert code == 1 and out == ""
    assert err.startswith("config error: %s: " % table_path) and phrase in err
    assert err.count("\n") == 1


def test_study_reports_out_of_memory_as_one_line(tmp_path, monkeypatch):
    def run_study(cfg, workers=None):
        raise MemoryError("Unable to allocate 65.5 TiB for an array")

    monkeypatch.setattr(cli, "run_study", run_study)
    code, out, err = _run(["study", str(_write_config(tmp_path))])
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 65.5 TiB for an array\n"


def _kinked_table(scheme):
    # slope 1 from M=4 to 8, slope 2 from 8 to 16
    return ErrorTable((ErrorRow(scheme, 4, 0.25, 1.0, 0.0, 0),
                       ErrorRow(scheme, 8, 0.125, 0.5, 0.0, 0),
                       ErrorRow(scheme, 16, 0.0625, 0.125, 0.0, 0)))


def test_order_subcommand_prints_local_slopes(tmp_path):
    table_path = tmp_path / "t.csv"
    with open(table_path, "w") as fh:
        _kinked_table("exe").write_csv(fh)
    code, out, _ = _run(["order", str(table_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("exe: fitted order 1.500")
    assert lines[1] == "  local slopes: M=4-8 1.000, M=8-16 2.000"


def test_study_prints_local_slopes_beside_fit(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, schemes=["exe"])
    monkeypatch.setattr(cli, "run_study", lambda cfg, workers=None: _kinked_table("exe"))
    code, out, err = _run(["study", str(cfg_path)])
    assert code == 0, err
    assert "exe: fitted order 1.500" in out
    assert "  local slopes: M=4-8 1.000, M=8-16 2.000" in out
    # the slopes go to the terminal only; the table file is the plain CSV
    buf = io.StringIO()
    _kinked_table("exe").write_csv(buf)
    assert (tmp_path / "out" / "example1_errors.csv").read_text() == buf.getvalue()


def test_study_local_slopes_for_every_scheme(tmp_path):
    cfg_path = _write_config(tmp_path)
    code, out, err = _run(["study", str(cfg_path), "--workers", "1"])
    assert code == 0, err
    slopes = [ln for ln in out.splitlines() if ln.startswith("  local slopes: ")]
    assert len(slopes) == 2  # erkm15 and exe, M = 4, 8, 16
    assert all(ln.count("M=") == 2 for ln in slopes)


def test_path_subcommand(tmp_path):
    cfg_path = _write_config(tmp_path, M_list=[4], schemes=["exe"])
    code, out, err = _run(["path", str(cfg_path)])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "step,mode,dB,I"
    assert len(lines) == 1 + 4  # M=4 steps, K=1 mode
    code2, out2, _ = _run(["path", str(cfg_path), "--realization", "1"])
    assert code2 == 0 and out2 != out
    code3, out3, err3 = _run(["path", str(cfg_path), "--realization", "-1"])
    assert code3 == 1 and out3 == "" and "--realization must be >= 0" in err3


def test_path_dumps_the_studys_fine_path(tmp_path, monkeypatch):
    # with an ewp reference the study samples reference.M steps, more
    # than max(M_list); path dumps that fine path, realization by
    # realization
    cfg_path = _write_config(tmp_path, problem="example3", N=4, K=2, M_list=[4, 8],
                             schemes=["exe"], reference={"mode": "ewp", "M": 32})
    cfg = load_config(str(cfg_path)).validated()
    sampled = []

    def sample(*args, **kwargs):
        sampled.append(real_sample(*args, **kwargs))
        return sampled[-1]

    real_sample = experiments.sample_path
    monkeypatch.setattr(experiments, "sample_path", sample)
    state = experiments._StudyState(cfg)
    for r in (0, 2):
        state.realization(r)
        expected = io.StringIO()
        dump_path(sampled[-1], expected)
        code, out, err = _run(["path", str(cfg_path), "--realization", str(r)])
        assert code == 0, err
        assert out == expected.getvalue()
        assert len(out.splitlines()) == 1 + 32 * 2  # 32 steps, K=2 modes


def test_assert_orders(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, schemes=["erkm15"])

    monkeypatch.setattr(cli, "run_study", lambda cfg, workers=None: _power_table("erkm15", 1.5))
    code, out, _ = _run(["study", str(cfg_path), "--assert-orders"])
    assert code == 0 and "order assertions passed" in out

    monkeypatch.setattr(cli, "run_study", lambda cfg, workers=None: _power_table("erkm15", 0.2))
    code, _, err = _run(["study", str(cfg_path), "--assert-orders"])
    assert code == 2 and "outside" in err


def test_check_order_bands_details():
    cfg = StudyConfig("example1", N=8, M_list=(4, 8, 16), realizations=2,
                      schemes=("erkm15", "lie")).validated()
    table = _power_table("erkm15", 1.5)
    breaches = check_order_bands(cfg, table)
    # erkm15 fits inside its band; lie has no rows at all
    assert len(breaches) == 1 and "lie" in breaches[0]

    cfg3 = StudyConfig("example3", N=8, M_list=(4, 8, 16), realizations=2,
                       schemes=("erkm15", "lie"),
                       reference={"mode": "ewp", "M": 16}).validated()
    # example3 only bands the 1.5-order schemes; lie is not asserted
    assert check_order_bands(cfg3, _power_table("erkm15", 1.6)) == []

    # a labelled erkm15 gets erkm15's band, looked up under its label
    cfg_rk = StudyConfig("example1", N=8, M_list=(4, 8, 16), realizations=2,
                         schemes=({"name": "erkm15", "label": "rk"},)).validated()
    assert check_order_bands(cfg_rk, _power_table("rk", 1.5)) == []
    (breach,) = check_order_bands(cfg_rk, _power_table("rk", 1.0))
    assert breach == "rk: fitted order 1.000 outside [1.30, 1.70]"
