import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bmwade
from bmwade import wordalg
from bmwade.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_e8_prints_the_big_number(capsys):
    code, out, _ = run(capsys, "dims", "--type", "E8")
    assert code == 0
    assert "41803776000" in out


def test_invalid_type_is_usage_error(capsys):
    code, out, err = run(capsys, "roots", "--type", "X9")
    assert code == 2
    assert "X9" in err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["roots", "--type", "A2", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_verify_a2_all(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "all")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_specialized_braid_e6(capsys):
    code, out, _ = run(capsys, "verify", "--type", "E6", "--suite", "braid",
                       "--specialize", "l=5/7,r=3/2")
    assert code == 0


def test_verify_generic_e8_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--type", "E8", "--suite", "braid")
    assert code == 2
    assert "specialized" in err


def test_roots_json_round_trip(capsys):
    code, out, _ = run(capsys, "roots", "--type", "D4", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) == out.rstrip("\n")
    assert parsed["c_nodes"] == [1, 3, 4]
    assert len(parsed["positive_roots"]) == 12


def test_deterministic_output(capsys):
    for fmt in (["--json"], []):
        first = run(capsys, "verify", "--type", "A3", "--suite", "table1", *fmt)
        second = run(capsys, "verify", "--type", "A3", "--suite", "table1", *fmt)
        assert first == second
        assert first[0] == 0
    parsed = json.loads(run(capsys, "verify", "--type", "A3", "--suite", "table1", "--json")[1])
    assert parsed["passed"] is True
    text = run(capsys, "verify", "--type", "A3", "--suite", "table1")[1]
    assert text.splitlines()[0] == "suite table1 on A3 (generic)"


def test_reduce_and_hbeta_and_tcoeff(capsys):
    code, out, _ = run(capsys, "reduce", "--type", "A2", "--word", "g1 g1")
    assert code == 0 and "e1" in out
    code, out, _ = run(capsys, "hbeta", "--type", "D4", "--root", "1,2,1,1", "--node", "1")
    assert code == 0 and out.strip() == "z1"
    code, out, _ = run(capsys, "tcoeff", "--type", "A2", "--node", "1", "--root", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["terms"][0]["word"] == []


def test_reduce_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "reduce", "--type", "A2", "--word", "g9")
    assert code == 2


@pytest.mark.parametrize("label,word,message", [
    ("A9", "g1 g3 g5 g7", "orbit search cap"),  # 24 commuting orderings
    ("A2", "G1 G2 G1", "inverse expansion cap"),  # 27 words after g^-1 = g + m - m e
])
def test_reduce_past_the_rewrite_cap_is_refused(capsys, monkeypatch, label, word, message):
    monkeypatch.setattr(wordalg, "_SEARCH_CAP", 20)
    code, out, err = run(capsys, "reduce", "--type", label, "--word", word)
    assert code == 2 and out == ""
    assert message in err and "internal" not in err


def test_hbeta_invalid_pairing_is_usage_error(capsys):
    code, _, err = run(capsys, "hbeta", "--type", "A2", "--root", "1,0", "--node", "2")
    assert code == 2


def test_matrices_json_to_file(tmp_path, capsys):
    target = tmp_path / "a2.json"
    code, out, _ = run(capsys, "matrices", "--type", "A2", "--json", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["size"] == 3
    assert set(data["sigma"]) == {"1", "2"}
    assert len(data["sigma"]["1"]) == 3  # column-major: one list per column


def test_matrices_theta_lk(capsys):
    code, out, _ = run(capsys, "matrices", "--type", "A2", "--theta", "lk", "--r", "3/2")
    assert code == 0
    data = json.loads(out)
    assert set(data["gamma"]) == {"1", "2"}


def test_tcoeff_is_identical_after_a_cold_start(capsys):
    import bmwade.lkrep as lkrep

    args = ["tcoeff", "--type", "A3", "--node", "1", "--root", "1,1,1", "--json"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    lkrep.build_lk.cache_clear()
    code, second, _ = run(capsys, *args)
    assert code == 0 and first == second


def test_cache_dir_is_rejected_and_writes_nothing(tmp_path, capsys):
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "tcoeff", "--type", "A3",
                       "--node", "1", "--root", "1,1,1", "--json")
    assert code == 2 and out == ""
    assert list(tmp_path.iterdir()) == []


def test_matrices_theta_at_r_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "matrices", "--type", "A2", "--theta", "lk", "--r", "0")
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_matrices_r_without_theta_is_usage_error(capsys):
    code, out, err = run(capsys, "matrices", "--type", "A2", "--r", "3/2")
    assert code == 2 and out == ""
    assert "--theta" in err


def test_verify_a2dim_suite(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "a2dim")
    assert code == 0
    code, _, err = run(capsys, "verify", "--type", "A3", "--suite", "a2dim")
    assert code == 2


def test_verify_a2dim_specialized_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "a2dim",
                         "--specialize", "l=5/7,r=3/2")
    assert code == 2 and out == ""
    assert "a2dim" in err


@pytest.mark.parametrize("spec", [
    "l=5/7,r=2,junk",      # a part without '='
    "l=5/7,r=3/2,r=2",     # a repeated key
    "l=5/7,,r=3/2",        # an empty part
    "l=5/7,q=3/2",         # an unknown key
    "",                    # an empty point, which is not the generic mode
])
def test_verify_malformed_specialize_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "braid",
                         "--specialize", spec)
    assert code == 2 and out == ""
    assert "--specialize" in err and "Traceback" not in err


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr("bmwade.cli.run_suite", boom)
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "braid")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: internal: RuntimeError: simulated failure"]
    assert "Traceback" not in err


def test_matrices_json_to_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "a3.json"
    code, out, err = run(capsys, "matrices", "--type", "A3", "--json", str(target))
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith(f"error: cannot write {target}: ")
    assert "internal" not in err and "Traceback" not in err
    assert not target.parent.exists()


def test_matrices_json_to_an_empty_path_is_usage_error(capsys):
    code, out, err = run(capsys, "matrices", "--type", "A2", "--json", "")
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith("error: cannot write : ")
    assert "internal" not in err and "Traceback" not in err


def test_matrices_theta_lk_reads_a_negative_r_as_a_value(capsys):
    code, spaced, err = run(capsys, "matrices", "--type", "A3", "--theta", "lk", "--r", "-2/5")
    assert code == 0 and err == ""
    code, joined, _ = run(capsys, "matrices", "--type", "A3", "--theta", "lk", "--r=-2/5")
    assert code == 0 and spaced == joined


@pytest.mark.parametrize("label, r, size", [("E8", "3/2", 120), ("A3", "1", 6), ("A3", "-1", 6)])
def test_matrices_theta_lk_sizes(capsys, label, r, size):
    code, out, _ = run(capsys, "matrices", "--type", label, "--theta", "lk", "--r", r)
    assert code == 0
    data = json.loads(out)
    assert data["size"] == size and len(data["gamma"]["1"]) == size


def test_verify_specialize_at_r_minus_one_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "braid",
                         "--specialize", "l=5/7,r=-1")
    assert code == 2 and out == ""
    assert err == ("error: need l0 != 0 and r0 not in {0, 1, -1}\n"
                   "hint: see `bmwade verify --help`\n")


def test_closed_stdout_exits_141_without_a_message():
    src = str(Path(bmwade.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # about 1.4 MB of JSON: far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "bmwade.cli", "matrices", "--type", "E7", "--theta", "lk"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 141
    assert err == b""


@pytest.mark.parametrize("argv, message", [
    (("roots", "--type", "A³"), "cannot parse Dynkin type 'A³'"),
    (("reduce", "--type", "A2", "--word", "g²"), "bad token 'g²' at position 0"),
    # full-width digits, which str.isdecimal, int and Fraction all accept
    (("roots", "--type", "A３"), "cannot parse Dynkin type 'A３'"),
    (("reduce", "--type", "A3", "--word", "g１ g2"), "bad token 'g１' at position 0"),
    (("tcoeff", "--type", "A3", "--node", "1", "--root", "1,１,0"),
     "cannot parse root '1,１,0': expected comma-separated integers"),
    (("tcoeff", "--type", "A3", "--node", "１", "--root", "1,1,0"), "cannot parse node '１'"),
    (("hbeta", "--type", "A3", "--root", "1,1,0", "--node", "２"), "cannot parse node '２'"),
    (("verify", "--type", "A2", "--suite", "braid", "--specialize", "l=５/7,r=3/2"),
     "cannot parse rational '５/7'"),
    (("matrices", "--type", "A2", "--theta", "lk", "--r", "３/2"), "cannot parse rational '３/2'"),
    # ASCII digits that parse but name no positive root
    (("tcoeff", "--type", "A3", "--node", "1", "--root", "1,0,1"), "(1, 0, 1) is not a positive root of A3"),
    (("tcoeff", "--type", "A3", "--node", "4", "--root", "1,0,0"), "node 4 out of range"),
])
def test_non_ascii_digits_are_usage_errors(capsys, argv, message):
    # str.isdigit accepts superscripts that int() then rejects
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"error: {message}"
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


BIG = "9" * 5000  # past int()'s 4300-digit limit for str conversion


@pytest.mark.parametrize("argv, message", [
    (("tcoeff", "--type", "A3", "--node", BIG, "--root", "1,0,0"), f"cannot parse node '{BIG}'"),
    (("tcoeff", "--type", "A3", "--node", "1", "--root", f"{BIG},0,0"),
     f"cannot parse root '{BIG},0,0': expected comma-separated integers"),
    (("hbeta", "--type", "A3", "--node", BIG, "--root", "1,0,0"), f"cannot parse node '{BIG}'"),
    (("reduce", "--type", "A3", "--word", f"g{BIG}"), f"bad token 'g{BIG}' at position 0"),
    # exponent notation: a short text whose value has any number of digits
    (("verify", "--type", "A2", "--suite", "braid", "--specialize", "l=1e5000,r=3/2"),
     "cannot parse rational '1e5000'"),
    (("matrices", "--type", "A2", "--theta", "lk", "--r", "1e5000"), "cannot parse rational '1e5000'"),
    (("roots", "--type", f"A{BIG}"), f"cannot parse Dynkin type 'A{BIG}'"),
], ids=["tcoeff-node", "tcoeff-root", "hbeta-node", "reduce-word", "verify-specialize", "matrices-r",
        "roots-type"])
def test_oversized_numbers_are_usage_errors(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


@pytest.mark.parametrize("r", ["7" * 800, "1/" + "7" * 800], ids=["r", "1/r"])
def test_exact_character_matrices_print_past_the_digit_limit(capsys, r):
    # r parses under int's 4300-digit limit for str(), but r^2 does not print under it
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "matrices", "--type", "D4", "--theta", "lk", "--r", r)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["type"] == "D4" and sorted(payload["gamma"]) == ["1", "2", "3", "4"]


# sha256 of stdout, recorded before Scalar moved to flat (l_exp, m_exp) keys
# (the last two before Hecke elements did): every coefficient the CLI prints
# must keep its bytes
OUTPUT_DIGESTS = [
    (("matrices", "--type", "D4"),
     "d5414b5a3a7ae53ccf382ca39058584b2e650a537ebff0d9420a5d662edef33e"),
    (("matrices", "--type", "A3", "--theta", "lk"),
     "22cb12f8ce41f7d86e9b4b648ed926cd73bb161d2b42f6fe883bb6024e818ca0"),
    (("matrices", "--type", "D4", "--theta", "lk", "--r", "3/2"),
     "204a38fe204cfcbd365ff1ba43323f451424965753073794e82cfe9f634b3bb9"),
    (("tcoeff", "--type", "E6", "--node", "4", "--root", "1,2,2,3,2,1", "--json"),
     "ec1923902153d0d27550c13a6148d252a421671324e1f16bb403efaf74bca257"),
    (("reduce", "--type", "D4", "--word", "e1 e1 g2 e3 e3 G1 e4 g2", "--json"),
     "3c0e3d0169f2987af28a40c6b26d20f6e853a2d04f037b4f0e5aa0cf6c35fde7"),
    (("tcoeff", "--type", "E7", "--node", "4", "--root", "1,1,2,3,2,2,1", "--json"),
     "2203ad507b96c50f5ad7937b1a08665ea1c76d8b06c2572811d2aa0a684a85ea"),
    (("verify", "--type", "D5", "--suite", "all", "--json"),
     "2a7cd885fd547dc6c6ef01a955688253f784b52ed92bcdac8ec6ea0f147333bc"),
    (("dims", "--type", "E8", "--json"),
     "f7f376772340dfac12a2c0376b69b8c6e2b0f42db4f703e943b89e84c6f0f9d9"),
    (("dims", "--type", "D8", "--json"),
     "385f80d5660ae865a68ab451483ec2a5198251f11a8054bc5a4b7e785645ac54"),
    (("verify", "--type", "A4", "--suite", "table1", "--json"),
     "cc15d7de737be2c6868a5a2c23774a9411f16f42c7fb09e9946f1fac63c767b2"),
    (("verify", "--type", "E6", "--suite", "table1", "--specialize", "l=5/7,r=3/2", "--json"),
     "911adea88a6baba12f3d2dc5f65899e1bc82d83d7d0312da7be2c72062a79dbd"),
    # recorded before specialized matrices became integers over one denominator;
    # the D6 point has r < 0, so signs pass through the normal form
    (("verify", "--type", "E8", "--suite", "all", "--specialize", "l=5/7,r=3/2", "--json"),
     "6e2316b3a152591412aa1ea7b6e513400579eaaa9b591ef19ea9b8fea2c9e693"),
    (("verify", "--type", "D6", "--suite", "all", "--specialize", "l=4/9,r=-5/3", "--json"),
     "40313ae4beb7fcefeed40ecafeb3d836c5bdd3025deb77c9b3a8afaabebb235c"),
    # recorded before |W| was read from root heights, sigma was built on tau and
    # the a2dim rules moved into run_suite; E6 --theta lk pins sigma = tau + l^-1 T
    # over the symbolic character ring
    (("dims", "--type", "A5", "--json"),
     "055c880415328d79855afae9da686e41177f113c2a27774d685efb2a059dae10"),
    (("dims", "--type", "E7", "--json"),
     "764470ad5b372b0ed26dfad99f1d2a86738509c79e4e3e8e26be51a30a12cc2c"),
    (("verify", "--type", "A2", "--suite", "a2dim", "--json"),
     "c60e7c11b3bae8fb5dd9f48c59d0f855011d7b2a65bea457e97ce8af90930229"),
    (("matrices", "--type", "E6", "--theta", "lk"),
     "f0bd7554acd0b4c8f935eaecc8538dfb1102f06e05f506e24b96047cd40d4fa7"),
    # recorded before specialized matrices kept their denominators unreduced
    # and each linear combination became one pass
    (("verify", "--type", "E7", "--suite", "all", "--specialize", "l=5/7,r=3/2", "--json"),
     "090af26b312ff1e01bcfbf19d26d92af230525790f962fc537cd925f128f0c76"),
    # recorded before D4's total came from the D_n formula rather than a literal
    (("dims", "--type", "D4", "--json"),
     "1bd1c36959a4e393291683981420c915e1bb5379a86d74afd93f53b39cbbef7b"),
]


def test_output_bytes_are_pinned(capsys):
    for argv, digest in OUTPUT_DIGESTS:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


HELP_USAGE = {
    "roots": "usage: bmwade roots [-h] --type TYPE [--json]",
    "reduce": "usage: bmwade reduce [-h] --type TYPE --word WORD [--json]",
    "tcoeff": "usage: bmwade tcoeff [-h] --type TYPE --node NODE --root ROOT [--json]",
    "hbeta": "usage: bmwade hbeta [-h] --type TYPE --root ROOT --node NODE [--json]",
    "matrices": "usage: bmwade matrices [-h] --type TYPE [--theta {lk}] [--r R] [--json [PATH]]",
    "verify": "usage: bmwade verify [-h] --type TYPE --suite SUITE [--specialize SPECIALIZE] [--json]",
    "dims": "usage: bmwade dims [-h] --type TYPE [--json]",
}


@pytest.mark.parametrize("command", sorted(HELP_USAGE))
def test_help_usage_line_is_pinned(capsys, monkeypatch, command):
    # the option order of each subcommand, --type first, on one unwrapped line
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run(capsys, command, "-h")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == HELP_USAGE[command]


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "A99999999999"),
    ("dims", "--type", "D99999999999"),
    ("roots", "--type", "A101"),
])
def test_rank_above_the_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    rank = argv[-1][1:]
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: rank {rank} is above 100, the largest rank bmwade builds"]


@pytest.mark.parametrize("argv", [
    ("tcoeff", "--type", "E8", "--node", "1", "--root", "1,0,1,0,0,0,0,0"),
    ("tcoeff", "--type", "A9", "--node", "1", "--root", "1,0,0,0,0,0,0,0,0"),
    ("matrices", "--type", "E8"),
    ("matrices", "--type", "D9", "--json"),
    ("verify", "--type", "A9", "--suite", "braid"),
])
def test_generic_t_beyond_its_reach_is_usage_error(capsys, argv):
    # build_lk refuses before any T coefficient is computed
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    first = err.splitlines()[0]
    assert first.startswith("error: generic mode covers rank <= 8 except E8")
    assert "--specialize" in first and "--theta lk" in first


# -- a seeded fuzzer over the argument grammar ---------------------------------

FUZZ_SEED = 20261019
FUZZ_COMMANDS = ("roots", "reduce", "tcoeff", "hbeta", "matrices", "verify", "dims", "frobnicate")
FUZZ_TYPES = ("A1", "A2", "A3", "A4", "D4", "E6",
              "", "X9", "A0", "D3", "E9", "A³", "A３", "A101", "A99999999999", "E8")
FUZZ_PARTS = ("0", "1", "2", "3", "", "-1", "１", "²", "01", "002", BIG)
FUZZ_ROOTS = ("1", "1,1", "1,1,1", "0,1,1", "1,1,1,1", "1,2,1,1", "0,1,1,1,1,0", "1,2,2,3,2,1")
FUZZ_RATIONALS = ("5/7", "3/2", "-2/5", "2", "1", "-1", "0", "-0", "1/0", "nan", "inf", "５/7",
                  "1e5000")
FUZZ_SUITES = ("braid", "table1", "tau_monoid", "a2dim", "", "nonsense")
FUZZ_LETTERS = ("g1", "G2", "e1", "e2", "g3", "g0", "g9", "e²", "g１", "x1", "G", f"g{BIG}")
GENERIC_T = ("tcoeff", "matrices", "verify")


def _fuzz_root(rng):
    if rng.random() < 0.5:
        return rng.choice(FUZZ_ROOTS)
    return ",".join(rng.choice(FUZZ_PARTS) for _ in range(rng.randint(0, 6)))


def _fuzz_specialize(rng):
    l0, r0 = rng.choice(FUZZ_RATIONALS), rng.choice(FUZZ_RATIONALS)
    return rng.choice((
        f"l={l0},r={r0}", f"r={r0},l={l0}", f"l={l0},r={r0},r=2", f"l{l0},r={r0}", f"l={l0}", "",
    ))


def _fuzz_argv(rng):
    """One argument list; valid work stays cheap: rank <= 6 and no essential or all suite."""
    command = rng.choice(FUZZ_COMMANDS)
    label = rng.choice(FUZZ_TYPES)
    if label == "E8" and command not in GENERIC_T:
        label = "E6"
    opts = {"--type": label}
    if command == "reduce":
        opts["--word"] = " ".join(rng.choice(FUZZ_LETTERS) for _ in range(rng.randint(0, 4)))
    if command in ("tcoeff", "hbeta"):
        opts["--node"] = rng.choice(FUZZ_PARTS)
        opts["--root"] = _fuzz_root(rng)
    if command == "matrices" and label != "E8" and rng.random() < 0.5:
        opts["--theta"] = "lk"
        if rng.random() < 0.7:
            opts["--r"] = rng.choice(FUZZ_RATIONALS)
    elif command == "matrices" and rng.random() < 0.2:
        opts["--r"] = rng.choice(FUZZ_RATIONALS)
    if command == "verify":
        opts["--suite"] = rng.choice(FUZZ_SUITES)
        if label != "E8" and rng.random() < 0.5:
            opts["--specialize"] = _fuzz_specialize(rng)
    argv = [command]
    for key, value in opts.items():
        if rng.random() < 0.95:
            argv += [key, value]
    if command != "matrices" and rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.append("--bogus")
    return argv


def test_seeded_cli_fuzz(capsys):
    rng = random.Random(FUZZ_SEED)
    failures = []
    for _ in range(1000):
        argv = _fuzz_argv(rng)
        code, out, err = run(capsys, *argv)
        if code not in (0, 1, 2) or "error: internal" in err or (code == 2 and out):
            failures.append((argv, code, err.splitlines()[:1]))
    assert not failures, failures
