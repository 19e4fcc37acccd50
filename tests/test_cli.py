import json
import subprocess
import sys

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
