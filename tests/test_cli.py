import hashlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tracemalloc

import pytest

from qtgl3 import cli
from qtgl3.form import WordEngine, word_str

BASE = [sys.executable, "-m", "qtgl3.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_gram_vacuum_level():
    res = run_cli("gram", "--level", "0,0", "--window", "0")
    assert res.returncode == 0
    js = json.loads(res.stdout)
    assert js["entries"] == [["(1+0i)·q^0·μ^0"]]
    assert js["basis"] == ["|0>"]


def test_gram_level_one_window_zero():
    res = run_cli("gram", "--level", "1,0", "--window", "0")
    js = json.loads(res.stdout)
    assert js["entries"] == [["(1+0i)·q^0·μ^1"]]


def test_gram_level_one_one_window_zero():
    res = run_cli("gram", "--level", "1,1", "--window", "0")
    js = json.loads(res.stdout)
    assert js["entries"] == [["(1+0i)·q^0·μ^2 + (1+0i)·q^0·μ^1"]]


def test_gram_constraint_mode(tmp_path):
    out = tmp_path / "g.json"
    res = run_cli("gram", "--level", "1,0", "--constraint", "1,1", "--out", str(out))
    assert res.returncode == 0
    js = json.loads(out.read_text(encoding="utf-8"))
    assert js["constraint"] == [1, 1]
    assert len(js["basis"]) == 4  # nonneg exponents within the (1,1) budget


def test_verify_brackets_smoke_and_determinism(tmp_path):
    a = run_cli("verify-brackets", "--samples", "5", "--seed", "3")
    b = run_cli("verify-brackets", "--samples", "5", "--seed", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    js = json.loads(a.stdout)
    assert js["ok"] is True
    assert {s["name"] for s in js["suites"]} >= {"homomorphism", "lie_axioms"}


def test_form_crosscheck_small():
    res = run_cli("form-crosscheck", "--level", "1,1", "--window", "0")
    assert res.returncode == 0
    js = json.loads(res.stdout)
    assert js["ok"] is True
    assert js["mismatches"] == []
    assert js["pairs"] == js["words"] ** 2


def test_form_crosscheck_counts_every_mismatch_and_lists_fifty(monkeypatch, capsys):
    # the rejected block-order convention as the combinatorial evaluator
    # mismatches 171 pairs at total level <= 2, window 1
    rejected = WordEngine.form_combinatorial
    monkeypatch.setattr(WordEngine, "form_combinatorial",
                        lambda self, u, v: rejected(self, u, v, identify_block_order=False))
    assert cli.main(["form-crosscheck", "--level", "1,1", "--window", "1"]) == 1
    out, err = capsys.readouterr()
    js = json.loads(out)
    assert js["ok"] is False
    assert js["pairs"] == 190 ** 2
    assert len(js["mismatches"]) == 50
    assert err.startswith("FAILED: 171 mismatching pairs; first: ")
    first = js["mismatches"][0]
    assert f"first: {{'u': {first['u']!r}, 'v': {first['v']!r}," in err


def test_unitarity_scan_flags(tmp_path):
    out = tmp_path / "scan.json"
    res = run_cli(
        "unitarity-scan", "--level", "1,1", "--window", "0",
        "--theta", "1/7", "--mu=-1,-0.5,0.5,1,5", "--out", str(out),
    )
    assert res.returncode == 0
    js = json.loads(out.read_text(encoding="utf-8"))
    assert [s["pd"] for s in js["samples"]] == [False, False, True, True, True]
    assert js["theta"] == "1/7"


def test_scan_output_deterministic():
    args = ("unitarity-scan", "--level", "1,0", "--window", "1",
            "--theta", "89/233", "--mu", "0.25,1,5")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_usage_errors_exit_two():
    assert run_cli("gram", "--level", "nope").returncode == 2
    assert run_cli("unitarity-scan", "--level", "1,0", "--theta", "x",
                   "--mu", "1").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("gram").returncode == 2  # --level is required


def test_usage_errors_come_before_the_gram(monkeypatch, capsys):
    # validated in order: window or constraint, level, theta, mu; no Gram is built
    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(WordEngine, "gram", no_gram)
    scan = ["unitarity-scan", "--level"]
    cases = [
        (["gram", "--level", "x", "--window=-1"], "window must be nonnegative"),
        (["gram", "--level", "x", "--constraint", "1,1"], "bad level 'x'"),
        (scan + ["x", "--window=-1", "--theta", "x", "--mu", "y"], "window must be nonnegative"),
        (scan + ["x", "--constraint=-1,0", "--theta", "x", "--mu", "y"],
         "constraint components must be nonnegative"),
        (scan + ["x", "--theta", "x", "--mu", "y"], "bad level 'x'"),
        (scan + ["1,0", "--theta", "x", "--mu", "y"], "bad theta 'x'"),
        (scan + ["1,0", "--theta", "1/3", "--mu", "y"], "bad mu grid 'y'"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def test_io_error_exit_one(tmp_path):
    res = run_cli("gram", "--level", "0,0", "--window", "0",
                  "--out", str(tmp_path / "missing" / "g.json"))
    assert res.returncode == 1


def assert_usage_error(res):
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_scan_rejects_nonfinite_mu():
    assert_usage_error(run_cli("unitarity-scan", "--level", "1,0", "--window", "0",
                               "--theta", "1/7", "--mu=nan,inf"))


def test_scan_rejects_overflowing_mu():
    # mu^2 overflows a float
    res = run_cli("unitarity-scan", "--level", "1,1", "--window", "0", "--theta", "1/7",
                  "--mu=1e200")
    assert_usage_error(res)
    assert "mu=1e+200" in res.stderr
    # mu itself is finite, the symmetrized entry is not
    res = run_cli("unitarity-scan", "--level", "1,0", "--window", "0", "--theta", "1/7",
                  "--mu=1e308")
    assert_usage_error(res)
    assert "mu=1e+308" in res.stderr
    assert "Warning" not in res.stderr
    assert res.stdout == ""


def test_scan_overflow_inside_a_grid_is_named():
    # the scan fails at the one mu that overflows, before anything reaches stdout
    for level, grid, name in (("1,1", "1,1e200", "mu=1e+200"), ("1,0", "1e308,2", "mu=1e+308")):
        res = run_cli("unitarity-scan", "--level", level, "--window", "0", "--theta", "1/7",
                      f"--mu={grid}")
        assert_usage_error(res)
        assert name in res.stderr
        assert res.stdout == ""


def test_scan_with_a_coefficient_past_the_float_range_is_a_usage_error():
    # one word of 850 factors: an exact Gram coefficient over 2^850 passes 1.8e308
    res = run_cli("unitarity-scan", "--level", "850,0", "--window", "0", "--theta", "1/3",
                  "--mu=1")
    assert_usage_error(res)
    assert res.stderr == "error: level 850,0: a Gram coefficient overflows a float\n"
    assert res.stdout == ""


def test_gram_past_the_int_string_digit_limit_writes_nothing(tmp_path):
    # one word of 900 factors: an exact coefficient passes the interpreter's
    # 4,300-digit limit for int-to-str conversion; no head of the document is left
    out = tmp_path / "g.json"
    for args in ([], ["--out", str(out)]):
        res = run_cli("gram", "--level", "900,0", "--window", "0", *args)
        assert_usage_error(res)
        assert res.stderr.startswith("error: level 900,0 has a Gram coefficient of more than "
                                     f"{sys.get_int_max_str_digits()} digits")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""
    assert not out.exists()


def test_emit_refuses_nonfinite_floats(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(ValueError):
        cli._emit({"min_eig": float("inf")}, str(out))
    assert not out.exists()


def test_negative_window_is_a_usage_error():
    assert_usage_error(run_cli("gram", "--level", "1,0", "--window", "-1"))
    assert_usage_error(run_cli("form-crosscheck", "--level", "1,0", "--window", "-2"))


def test_negative_constraint_is_a_usage_error():
    assert_usage_error(run_cli("gram", "--level", "1,0", "--constraint=-1,2"))


def test_negative_samples_is_a_usage_error():
    assert_usage_error(run_cli("verify-brackets", "--samples", "-5"))


def test_window_and_constraint_together_is_a_usage_error():
    assert_usage_error(run_cli("gram", "--level", "1,0", "--window", "1",
                               "--constraint", "1,1"))


# SHA-256 of the gram JSON on stdout; a rewrite of the word engine or the scalars must keep it
GRAM_SHA256 = {
    ("1,1", "--window", "1"): "6d2fb26be56f35f87564d1b712ab8e36986b56a4284fffb153e5720239be49a3",
    ("2,0", "--window", "1"): "f70351c54ff330ba0cc8f4ad5c89fee90bba7fcda8ddf7491c6a551508eb52cd",
    ("2,0", "--constraint", "3,3"):
        "7205f08d144e874e9535846dc1a6291d91f51c4d79e45439f5680e4a7f5fa805",
    ("1,0", "--constraint", "2,2"):
        "8aa234e54c68ea3f547e77f8dc583c359b120836d9d817bbf49d4c632d57a138",
    # the level and window of the gram benchmark workload
    ("2,1", "--window", "1"): "73a5c8e8bc0a6621968b1e76b91f74d97044112fe47bec32c3bea55990d09794",
    ("1,2", "--window", "1"): "094dc7996e8c4c62472516e4c46cc1b23efb6a4c3c3d11d26a7783ce29c412e7",
    # n = 1
    ("0,0", "--window", "0"): "4461d5583d91665dfd93a22c593a49767880b5c548b23b56e932711c69809331",
    # one word whose scaled coefficients pass 64 bits (69 bits long)
    ("12,0", "--window", "0"): "6db255efe68dbbf46e0046887b2be7d5ba15c5b31d107fdbe26bc2822e3a38f8",
}


def test_gram_json_is_byte_identical():
    for (level, *mode), want in GRAM_SHA256.items():
        res = subprocess.run(BASE + ["gram", "--level", level, *mode], capture_output=True)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == want, (level, *mode)


def test_gram_out_file_equals_stdout(tmp_path):
    out = tmp_path / "g.json"
    args = BASE + ["gram", "--level", "2,1", "--window", "1"]
    to_file = subprocess.run(args + ["--out", str(out)], capture_output=True)
    to_stdout = subprocess.run(args, capture_output=True)
    assert to_file.returncode == 0 and to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert out.read_bytes() == to_stdout.stdout


def streamed_gram(g):
    out = io.StringIO()
    cli.write_gram_json(g, cli.gram_entry_texts(g), out)
    return out.getvalue()


@pytest.mark.parametrize(
    "level,window,constraint",
    [((0, 0), 0, None), ((1, 0), 0, None), ((1, 1), 1, None),
     ((2, 0), None, (3, 3)), ((1, 0), None, (2, 2))],
)
def test_streamed_gram_equals_dense_json(level, window, constraint):
    # the oracle: the dense document, built entry by entry and dumped in one call
    g = WordEngine().gram(level, window=window, constraint=constraint)
    n = len(g.basis)
    doc = {
        "level": list(level),
        "window": window,
        "basis": [word_str(w) for w in g.basis],
        "entries": [[str(g.entry(i, j)) for j in range(n)] for i in range(n)],
    }
    if constraint is not None:
        doc["constraint"] = list(constraint)
    want = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1) + "\n"
    assert streamed_gram(g) == want


class Discard:
    def write(self, text):
        return len(text)


def test_streamed_gram_memory_is_bounded_by_a_row():
    # 405 words; a dense grid of their entry strings alone peaks at 16 MB
    g = WordEngine().gram((2, 1), window=1)
    tracemalloc.start()
    try:
        cli.write_gram_json(g, cli.gram_entry_texts(g), Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def gram_to_closed_pipe(level, window, nbytes, unbuffered=False):
    """Exit code and stderr of a gram whose reader takes `nbytes` and closes the pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(BASE + ["gram", "--level", level, "--window", window], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(nbytes)) == nbytes
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err
    finally:
        proc.kill()
        proc.stderr.close()


def test_a_level_too_deep_for_the_recursion_limit_is_a_usage_error():
    # one word of 1,000 factors: the word engine recurses once per factor
    for command in (["gram"], ["unitarity-scan", "--theta", "1/3", "--mu=1"]):
        res = run_cli(*command, "--level", "1000,0", "--window", "0")
        assert_usage_error(res)
        assert res.stderr.startswith("error: level 1000,0 ") and res.stderr.count("\n") == 1
        assert res.stdout == ""


MODULES = ("cli", "fock", "form", "gl3", "scalars", "torus", "unitarity", "verify")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a fresh interpreter imports no other qtgl3 module first, so a cycle shows
    res = subprocess.run([sys.executable, "-c", f"import qtgl3.{module}"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def assert_one_error_line(code, err):
    assert code == 1, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_gram_to_a_closed_pipe_is_one_error_line():
    # the reader takes 20 bytes of the 1.6 MB document
    for unbuffered in (False, True):
        assert_one_error_line(*gram_to_closed_pipe("2,1", "1", 20, unbuffered))


def test_buffered_stdout_to_a_closed_pipe_is_one_error_line():
    # the whole document waits in the stdout buffer until the reader is gone,
    # so the flush at exit would fail a second time
    assert_one_error_line(*gram_to_closed_pipe("0,0", "0", 0))


# SHA-256 of `verify-brackets --samples 200` stdout per seed; a faster scalar
# ring or sampler must keep the sampled stream and every rendered check
VERIFY_SHA256 = {
    0: "8a70ab09d52b69b4452e89348cfecbb54c8ec687c6198fbe2930ccfec694c198",
    7: "77917067d8fbabd1d4c36b485d3e25d246decd2341903dc6a8ee79edc447a2aa",
}


def test_verify_json_is_byte_identical():
    for seed, want in VERIFY_SHA256.items():
        res = subprocess.run(BASE + ["verify-brackets", "--samples", "200", "--seed", str(seed)],
                             capture_output=True)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == want, seed


def test_pair_errors_name_their_argument():
    cases = [
        (("gram", "--level", "1,x"), "bad level '1,x'"),
        (("gram", "--level=-1,0"), "level components must be nonnegative"),
        (("gram", "--level", "1,0", "--constraint", "2"), "bad constraint '2'"),
        (("gram", "--level", "1,0", "--constraint=0,-3"),
         "constraint components must be nonnegative"),
    ]
    for args, message in cases:
        res = run_cli(*args)
        assert_usage_error(res)
        assert message in res.stderr


# min_eig per mu of the reproduce_reports.py grid; pd flags exact, min_eig within 1e-9
SCAN_MU_GRID = "-1,-0.5,0,0.25,1,5"
SCAN_MIN_EIG = {
    ("2,1", "--window", "1", "1/3"): [
        -17.38251343523365, -8.75, 0.0, -3.2862833486507967, -11.590088693256632,
        52.29862978919813],
    ("2,1", "--window", "1", "89/233"): [
        -17.70483642966697, -11.281881592245313, 0.0, -3.582725300365508,
        -12.626729636703447, 47.55190017233882],
    ("1,2", "--window", "1", "1/7"): [
        -49.52406488006535, -28.459963333407003, 0.0, -4.554019118922287,
        -15.856356801312092, 39.18791638561496],
    ("2,0", "--constraint", "3,3", "1/3"): [
        -7.999999999999999, -4.2499999999999964, 0.0, -1.4375000000000009,
        -4.999999999999995, -5.000000000000005],
}
SCAN_PD = {
    ("2,1", "--window", "1", "1/3"): [False, False, False, False, False, True],
    ("2,1", "--window", "1", "89/233"): [False, False, False, False, False, True],
    ("1,2", "--window", "1", "1/7"): [False, False, False, False, False, True],
    ("2,0", "--constraint", "3,3", "1/3"): [False] * 6,
}


def test_scan_outputs_are_pinned():
    for (level, *mode, theta), want in SCAN_MIN_EIG.items():
        res = run_cli("unitarity-scan", "--level", level, *mode, "--theta", theta,
                      f"--mu={SCAN_MU_GRID}")
        assert res.returncode == 0
        samples = json.loads(res.stdout)["samples"]
        assert [s["mu"] for s in samples] == [float(m) for m in SCAN_MU_GRID.split(",")]
        assert [s["pd"] for s in samples] == SCAN_PD[(level, *mode, theta)], (level, theta)
        for s, eig in zip(samples, want):
            assert abs(s["min_eig"] - eig) < 1e-9, (level, theta, s["mu"])


REPRODUCE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_reports.py"


def stub_main(failing):
    """A CLI stand-in: writes a minimal scan document to --out and exits 1
    for the `failing` command, 0 for every other."""
    def main(argv):
        out = pathlib.Path(argv[argv.index("--out") + 1])
        out.write_text(json.dumps({"samples": [{"mu": 0.0, "pd": True}]}), encoding="utf-8")
        return int(argv[0] == failing)
    return main


@pytest.mark.parametrize("failing,code", [(None, 0), ("form-crosscheck", 1)])
def test_reproduce_reports_exits_with_the_worst_code(tmp_path, monkeypatch, failing, code):
    run = runpy.run_path(str(REPRODUCE))["run"]
    monkeypatch.setitem(run.__globals__, "main", stub_main(failing))
    assert run(tmp_path / "run") == code
    # as a script, the same code reaches sys.exit
    monkeypatch.setattr(cli, "main", stub_main(failing))
    monkeypatch.setattr(sys, "argv", [str(REPRODUCE), str(tmp_path / "script")])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(REPRODUCE), run_name="__main__")
    assert exit_.value.code == code
