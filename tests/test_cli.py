"""End-to-end CLI behavior: verbs, exit codes, JSON determinism."""
from __future__ import annotations

import json

import numpy as np
import pytest

from cvwitness.cli import main
from cvwitness.states import make_state, save_state


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_symmetric_trivial(capsys):
    code, out, _ = run(capsys, "bound", "--symmetric-witness", "4", "--partition", "trivial")
    assert code == 0
    assert "8.48528" in out


def test_bound_table1_row(capsys, tmp_path):
    dest = tmp_path / "row.json"
    code, out, _ = run(
        capsys, "bound", "--symmetric-witness", "4", "--table1", "--json", str(dest)
    )
    assert code == 0
    for piece in ("8.48528", "10.03820", "10.89292", "12.00000"):
        assert piece in out
    row = json.loads(dest.read_text())
    assert row["f"] == pytest.approx(12.0, abs=1e-4)


def test_bound_witness_file(capsys, tmp_path):
    w = {
        "n": 4,
        "X": ((np.eye(4) * 2 + np.ones((4, 4))) / 3).tolist(),
        "P": np.eye(4).tolist(),
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w))
    code, out, _ = run(capsys, "bound", "--witness", str(path), "--partition", "12|34")
    assert code == 0
    assert "quantum bound" in out
    assert "B_12|34" in out
    assert "certificate X" in out


def test_bound_full_partition(capsys):
    code, out, _ = run(capsys, "bound", "--symmetric-witness", "4", "--partition", "full")
    assert code == 0
    assert "12.00000" in out


def test_bound_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "bound", "--witness", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "X": [[1, 0], [0, 1]]}')
    code, _, err = run(capsys, "bound", "--witness", str(bad))
    assert code == 2
    assert "missing field" in err


@pytest.mark.parametrize(
    "text, named",
    [
        ("5", "JSON object"),
        ('[{"n": 1, "X": [[1]], "P": [[1]]}]', "JSON object"),
        ('{"n": null, "X": [[1]], "P": [[1]]}', "'n'"),
        ('{"n": true, "X": [[1]], "P": [[1]]}', "'n'"),
        ('{"n": 1.0, "X": [[1]], "P": [[1]]}', "'n'"),
        ('{"n": [1], "X": [[1]], "P": [[1]]}', "'n'"),
    ],
)
def test_bound_rejects_malformed_witness_document(capsys, tmp_path, text, named):
    path = tmp_path / "w.json"
    path.write_text(text)
    code, out, err = run(capsys, "bound", "--witness", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("n", [[2], None, True, 2.0, "2"])
def test_check_rejects_non_integer_n(capsys, tmp_path, n):
    path = tmp_path / "s.json"
    eye = np.eye(2).tolist()
    path.write_text(json.dumps({"n": n, "gamma_xx": eye, "gamma_pp": eye}))
    code, out, err = run(capsys, "check", "--state", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'n'" in err


def test_bound_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound"])
    assert info.value.code == 2
    code, _, err = run(capsys, "bound", "--symmetric-witness", "4", "--partition", "12|3")
    assert code == 2


def test_removed_ascent_flags_are_usage_errors(capsys):
    for flag in ("--max-iter", "--grad-tol", "--step"):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--symmetric-witness", "4", "--partition", "12|34", flag, "5"])
        assert info.value.code == 2
    capsys.readouterr()


def test_bound_json_has_no_ascent_fields(capsys, tmp_path):
    dest = tmp_path / "bound.json"
    code, out, _ = run(
        capsys, "bound", "--symmetric-witness", "4", "--partition", "12|34",
        "--json", str(dest),
    )
    assert code == 0
    assert "iterations" not in out
    doc = json.loads(dest.read_text())
    assert "iterations" not in doc and "converged" not in doc


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--state", "ppt4", "--partition", "1|234")
    assert code == 1
    assert "VIOLATED" in out
    code, out, _ = run(capsys, "check", "--state", "ppt4", "--partition", "12|34")
    assert code == 0
    assert "nothing detected" in out
    code, out, _ = run(capsys, "check", "--state", "vacuum4")
    assert code == 0
    assert "physical" in out


def test_check_all_bipartitions_default(capsys, tmp_path):
    dest = tmp_path / "check.json"
    code, out, _ = run(capsys, "check", "--state", "ppt4", "--json", str(dest))
    assert code == 1  # single-mode rows certify
    doc = json.loads(dest.read_text())
    assert doc["physical"] is True
    assert len(doc["partitions"]) == 7
    lmi = {row["partition"]: row["lmi_violated"] for row in doc["partitions"]}
    assert lmi["1|234"] and not lmi["12|34"]


def test_check_unphysical_state_is_inconclusive(capsys):
    code, out, _ = run(capsys, "check", "--state", "klev4", "--partition", "1|234")
    assert code == 0
    assert "not physical" in out
    assert "inconclusive" in out


def test_indefinite_blocks_are_inconclusive(capsys, tmp_path):
    # gxx = gpp = diag(-1, 1): the moduli of eig(J gamma) all read 1, but a
    # negative variance makes the state unphysical.
    flip = np.diag([-1.0, 1.0])
    path = tmp_path / "flipped.json"
    save_state(make_state(flip, flip), path)
    code, out, _ = run(capsys, "check", "--state", str(path))
    assert code == 0
    assert "NOT physical (min symplectic eigenvalue 0.000000" in out
    assert "inconclusive" in out and "entanglement certified" not in out
    code, out, _ = run(
        capsys, "search", "--state", str(path), "--partition", "1|2", "--no-error"
    )
    assert code == 0
    assert "not physical" in out and "inconclusive" in out


def test_search_requires_error_model(capsys):
    code, _, err = run(capsys, "search", "--state", "ppt4", "--partition", "12|34")
    assert code == 2
    assert "no-error" in err


def test_search_margin_mode_refuses_unphysical_state(capsys, tmp_path):
    # 0.3 I lies below the vacuum 0.5 I: raw margins certify nothing here.
    sig = 0.01 * np.ones((3, 3))
    path = tmp_path / "unphysical.json"
    save_state(make_state(0.3 * np.eye(3), 0.3 * np.eye(3), sig, sig), path)
    dest = tmp_path / "out.json"
    for extra in (
        ["--partition", "1|23", "--method", "random", "--trials", "10000"],
        ["--partition", "1|23", "--method", "optimize"],
        ["--all-bipartitions"],
    ):
        code, out, _ = run(
            capsys, "search", "--state", str(path), "--no-error", *extra,
            "--json", str(dest),
        )
        assert code == 0, extra
        assert "not physical" in out and "inconclusive" in out
        assert "certified across" not in out
        assert json.loads(dest.read_text()) == []
    code, _, err = run(
        capsys, "search", "--state", str(path), "--no-error", "--genuine"
    )
    assert code == 2
    assert "error model" in err


def test_search_margin_mode_detects_ppt(capsys):
    code, out, _ = run(
        capsys, "search", "--state", "ppt4", "--no-error", "--partition", "12|34"
    )
    assert code == 1
    assert "certified across: 12|34" in out


def test_search_margin_mode_random_misses_ppt(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--state",
        "ppt4",
        "--no-error",
        "--partition",
        "12|34",
        "--method",
        "random",
        "--trials",
        "65536",
    )
    assert code == 0
    assert "nothing certified" in out


def test_search_random_single_partition(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--state",
        "klev4",
        "--partition",
        "1|234",
        "--trials",
        "131072",
        "--seed",
        "7",
    )
    assert code == 1
    assert "h=(" in out


def test_search_nothing_certified_on_separable_state(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--state",
        "vacuum4",
        "--all-bipartitions",
        "--trials",
        "65536",
    )
    assert code == 0
    assert "nothing certified" in out


def test_search_genuine(capsys):
    code, out, _ = run(
        capsys, "search", "--state", "klev4", "--genuine", "--target-s", "4"
    )
    assert code == 1
    assert "FOUND" in out


def test_search_json_deterministic(capsys, tmp_path, monkeypatch):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    args = (
        "search",
        "--state",
        "klev4",
        "--partition",
        "13|24",
        "--trials",
        "131072",
        "--seed",
        "5",
    )
    run(capsys, *args, "--json", str(a))
    run(capsys, *args, "--json", str(b))
    monkeypatch.setenv("CVWITNESS_THREADS", "2")
    run(capsys, *args, "--json", str(c))
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_search_rejects_bad_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("CVWITNESS_THREADS", "lots")
    code, _, err = run(
        capsys, "search", "--state", "klev4", "--partition", "1|234", "--trials", "10"
    )
    assert code == 2
    assert "CVWITNESS_THREADS" in err


def test_search_all_bipartitions_json_thread_invariant(capsys, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    args = ("search", "--state", "klev4", "--all-bipartitions", "--trials", "131075")
    run(capsys, *args, "--threads", "1", "--json", str(one))
    run(capsys, *args, "--threads", "2", "--json", str(two))
    assert len(json.loads(one.read_text())) == 7
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
def test_search_rejects_thread_count_below_one(capsys, monkeypatch, flag, env):
    argv = ["search", "--state", "klev4", "--partition", "1|234", "--trials", "10"]
    if flag is not None:
        argv += ["--threads", flag]
    if env is not None:
        monkeypatch.setenv("CVWITNESS_THREADS", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert ("CVWITNESS_THREADS" if env else "--threads") in err
    assert "must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--all-bipartitions", "--trials", "10"],
        ["check"],
        ["check", "--partition", "full"],
    ],
)
def test_enumerations_capped_at_twelve_modes(capsys, tmp_path, argv):
    g = 0.5 * np.eye(13)
    path = tmp_path / "s13.json"
    save_state(make_state(g, g, np.full((13, 13), 0.01), np.full((13, 13), 0.01)), path)
    code, _, err = run(capsys, argv[0], "--state", str(path), *argv[1:])
    assert code == 2
    assert "12" in err and "got 13" in err


@pytest.mark.parametrize("extra", [[], ["--no-error"]])
def test_search_one_mode_state(capsys, tmp_path, extra):
    # A 1x1 witness is rank one: the table shows its vectors.
    path = tmp_path / "one.json"
    sig = [[0.01]]
    save_state(make_state([[0.3]], [[1.2]], sig, sig), path)
    code, out, err = run(
        capsys, "search", "--state", str(path), "--partition", "trivial",
        "--trials", "1000", *extra,
    )
    assert code in (0, 1), err
    lines = out.splitlines()
    assert lines[0].startswith("partition") and lines[2].startswith("1 ")
    assert "h=(" in lines[2] and "g=(" in lines[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["--genuine", "--restarts", "-1"],
        ["--genuine", "--s-level", "-1", "--restarts", "1"],
        ["--genuine", "--target-s", "nan", "--restarts", "1"],
        ["--partition", "1|234", "--s-level", "-0.5", "--trials", "100"],
    ],
)
def test_search_rejects_negative_budget_or_level(capsys, argv):
    code, out, err = run(capsys, "search", "--state", "klev4", *argv)
    assert code == 2
    assert "FOUND" not in out
    assert "restarts" in err or "s_level" in err


SEARCH_PATHS = {
    "random": ["--partition", "1|234", "--trials", "1000"],
    "optimize": ["--partition", "1|234", "--method", "optimize"],
    "genuine": ["--genuine", "--s-level", "4", "--restarts", "1"],
}


@pytest.mark.parametrize("path", sorted(SEARCH_PATHS))
@pytest.mark.parametrize("seed, ok", [("-5", False), (str(2**64), False), (str(2**64 - 1), True)])
def test_search_seed_must_fit_64_bits(capsys, path, seed, ok):
    # A seed the random streams cannot take is a usage error (exit 2), not a
    # traceback with exit 1, which would read as "certified".
    code, out, err = run(capsys, "search", "--state", "klev4", *SEARCH_PATHS[path], f"--seed={seed}")
    if ok:
        assert code in (0, 1), err
    else:
        assert code == 2 and out == ""
        assert "seed must be in [0, 2^64)" in err


@pytest.mark.parametrize("path", sorted(SEARCH_PATHS))
@pytest.mark.parametrize("C", ["inf", "-inf", "nan"])
def test_search_rejects_non_finite_C(capsys, path, C):
    code, out, err = run(capsys, "search", "--state", "klev4", *SEARCH_PATHS[path], f"--C={C}")
    assert code == 2 and out == ""
    assert "C must be positive and finite" in err


def test_search_state_from_file(capsys, tmp_path, klev4):
    path = tmp_path / "s.json"
    save_state(klev4, path)
    code, out, _ = run(
        capsys,
        "search",
        "--state",
        str(path),
        "--partition",
        "1|234",
        "--trials",
        "65536",
        "--seed",
        "7",
    )
    assert code == 1


def test_reproduce_targets(capsys):
    for target in ("table1", "ppt4", "genuine4", "alt-property"):
        code, out, _ = run(capsys, "reproduce", target)
        assert code == 0, target
        assert "all values reproduced" in out


def test_reproduce_json_payload(capsys, tmp_path):
    dest = tmp_path / "genuine4.json"
    code, _, _ = run(capsys, "reproduce", "genuine4", "--json", str(dest))
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["min_s"] == pytest.approx(4.43, abs=0.01)
    assert doc["bounds"]["14|23"] == pytest.approx(1.56114, abs=1e-3)


def test_usage_errors(capsys):
    for argv in (["reproduce", "tableX"], ["nonsense"], []):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
