"""End-to-end CLI behavior: verbs, exit codes, JSON determinism."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvwitness
from cvwitness import cli
from cvwitness.cli import main
from cvwitness.partitions import all_partitions
from cvwitness.states import make_state, save_state


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_random_search_refuses_an_all_zero_error_model(capsys, tmp_path, monkeypatch):
    # Every trial's sigma would be 0: a usage error before any trial is drawn.
    klev4, zero = cvwitness.builtin_state("klev4"), np.zeros((4, 4))
    path = tmp_path / "exact.json"
    save_state(make_state(klev4.gamma_xx, klev4.gamma_pp, zero, zero), path)
    # Entries of 1e-170 pass that check, but every trial's sigma^2 underflows.
    tiny = tmp_path / "tiny.json"
    save_state(make_state(klev4.gamma_xx, klev4.gamma_pp, zero + 1e-170, zero + 1e-170), tiny)
    code, out, err = run(capsys, "search", "--state", str(tiny), "--all-bipartitions")
    assert code == 2 and out == ""
    assert "every trial had zero sigma" in err
    monkeypatch.setattr(np.random, "Philox", None)  # any draw would fail
    argv = ["search", "--state", str(path), "--all-bipartitions", "--method", "random"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "every sigma entry is 0" in err


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


@pytest.mark.parametrize("extra", [(), ("--partition", "12|34")])
def test_bound_table1_needs_the_symmetric_witness(capsys, tmp_path, extra):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"n": 4, "X": np.eye(4).tolist(), "P": np.eye(4).tolist()}))
    code, out, err = run(capsys, "bound", "--witness", str(path), "--table1", *extra)
    assert (code, out) == (2, "")
    assert "--table1 applies to --symmetric-witness only" in err


def test_bound_table1_still_reads_the_partition(capsys):
    # --table1 ignores the partition, but a bad one is still a usage error.
    code, out, err = run(
        capsys, "bound", "--symmetric-witness", "4", "--table1", "--partition", "zz"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'z'" in err


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
        ('{"n": 2, "X": [[1, 0], [0, 1]], "P": [[NaN, 0], [0, 1]]}', "witness P"),
        ('{"n": 2, "X": [[1]], "P": [[1, 0], [0, 1]]}', "witness X"),
        ('{"n": 2, "X": [[1, 0], [0, 1]], "P": [[1, 0.1], [0, 1]]}', "witness P"),
        ('{"n": 2, "X": [[1, true], [true, 1]], "P": [[1, 0], [0, 1]]}', "witness X"),
    ],
)
def test_bound_rejects_malformed_witness_document(capsys, tmp_path, text, named):
    path = tmp_path / "w.json"
    path.write_text(text)
    code, out, err = run(capsys, "bound", "--witness", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "argv, named", [(["check", "--state"], "gamma_xx"), (["bound", "--witness"], "witness X")]
)
def test_integer_beyond_float_range_is_an_input_error(capsys, tmp_path, argv, named):
    # JSON reads a 400-digit integer exactly; as a float it would overflow.
    path = tmp_path / "big.json"
    big = [[10**400]]
    path.write_text(json.dumps({"n": 1, "gamma_xx": big, "gamma_pp": [[1]], "X": big, "P": [[1]]}))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"{named} contains non-finite entries" in err


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


@pytest.mark.parametrize("n", ["33", "1000000"])
def test_symmetric_witness_beyond_32_modes_is_a_usage_error(capsys, n):
    # The package is built for n <= 32. A million modes used to die of a
    # MemoryError in np.ones with exit code 1, the code for "certified".
    code, out, err = run(capsys, "bound", "--symmetric-witness", n)
    assert (code, out) == (2, "")
    assert f"2 <= n <= 32, got {n}" in err


def test_symmetric_witness_of_32_modes_runs(capsys):
    # Its quantum bound has the closed form (n - 1) sqrt(n (n - 2)).
    code, out, _ = run(capsys, "bound", "--symmetric-witness", "32")
    assert code == 0
    assert out == f"quantum bound B(X, P) = {31 * np.sqrt(32 * 30):.5f}\n"


def test_superscript_digit_label_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "bound", "--symmetric-witness", "2", "--partition", "1|\u00b2"
    )
    assert code == 2 and out == ""
    assert "invalid mode label '\u00b2'" in err


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


def _boundary_product_states(n, delta):
    # Diagonal and squeezed product states just inside is_physical's slack.
    r = np.linspace(-0.4, 0.4, n)
    squeezed = (np.diag(np.exp(2 * r)), np.diag(np.exp(-2 * r)))
    for gxx, gpp in ((np.eye(n), np.eye(n)), squeezed):
        yield make_state((0.5 - delta) * gxx, (0.5 - delta) * gpp)


@pytest.mark.parametrize("delta", [5e-10, 9e-10])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_check_boundary_product_states_detect_nothing(capsys, tmp_path, n, delta):
    # Every sign pattern dips below -PSD_TOL, but the best rank-one margin,
    # delta, is what the physicality slack allows: the vacuum, a separable
    # state, lies delta * I above these states, so nothing is entanglement.
    for state in _boundary_product_states(n, delta):
        path = tmp_path / "edge.json"
        save_state(state, path)
        dest = tmp_path / "edge-check.json"
        code, out, _ = run(capsys, "check", "--state", str(path), "--json", str(dest))
        assert code == 0
        assert "nothing detected" in out and "entanglement certified" not in out
        doc = json.loads(dest.read_text())
        assert doc["physical"] is True
        assert all(row["lmi_min_eigenvalue"] < -1e-10 for row in doc["partitions"])


@pytest.mark.parametrize("delta", [5e-10, 9e-10])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_boundary_product_states_certify_nothing(capsys, tmp_path, n, delta):
    # Raw margins of about 1e-9, from the solver or the exact rank-one
    # optimum, sit within what the physicality slack allows: the vacuum, a
    # separable state, lies delta * I above these states.
    for state in _boundary_product_states(n, delta):
        path = tmp_path / "edge.json"
        save_state(state, path)
        for extra in ([], ["--method", "random", "--trials", "65536"]):
            code, out, _ = run(
                capsys, "search", "--state", str(path), "--all-bipartitions",
                "--no-error", *extra,
            )
            assert code == 0, (extra, out)
            assert "nothing certified" in out and "certified across" not in out


def test_rank_one_witness_column_prints_no_negative_zero(capsys):
    # vacuum4's exact rank-one witnesses have entries that round to zero from
    # below; the witness column prints them as 0.00 on every row.
    code, out, _ = run(
        capsys, "search", "--state", "vacuum4", "--all-bipartitions", "--no-error",
        "--method", "random",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if " h=(" in line]
    assert len(rows) == 7 and all("0.00" in row for row in rows)
    assert "-0.00" not in out


def test_check_enumerates_each_cut_once(capsys, monkeypatch):
    # check builds each cut's rank-one witness from the worst sign pattern it
    # already holds, so ppt4's seven bipartitions take seven enumerations.
    real, cuts = cvwitness.bounds.lmi_separability_test, []

    def counting(s, p):
        cuts.append(p.text)
        return real(s, p)

    for module in (cli, cvwitness.witness):
        monkeypatch.setattr(module, "lmi_separability_test", counting)
    code, out, _ = run(capsys, "check", "--state", "ppt4")
    assert code == 1 and "entanglement certified" in out
    assert len(cuts) == 7 and len(set(cuts)) == 7


def _min_symplectic(gxx, gpp):
    # Independent of the library: nu_min = sqrt of the least eigenvalue of gxx gpp.
    return float(np.sqrt(np.linalg.eigvals(gxx @ gpp).real.min()))


@pytest.mark.parametrize(
    "text, labels, want", [("1|2|34", ["PT 1", "PT 2", "PT 34"], 1), ("trivial", [], 0)]
)
def test_check_partial_transposes_per_partition(capsys, tmp_path, ppt4, text, labels, want):
    # One record per block (none for one block), printed and in --json alike;
    # single-mode flips of ppt4 are unphysical, and its LMI on 1|2|34 certifies.
    dest = tmp_path / "check.json"
    code, out, _ = run(
        capsys, "check", "--state", "ppt4", "--partition", text, "--json", str(dest)
    )
    assert code == want
    printed = [line.split(":")[0].strip() for line in out.splitlines() if "  PT " in line]
    assert printed == labels
    (row,) = json.loads(dest.read_text())["partitions"]
    pts = row["partial_transposes"]
    assert [t["modes"] for t in pts] == labels
    for t in pts:
        signs = np.ones(4)
        signs[[int(m) - 1 for m in t["modes"][3:]]] = -1.0
        S = np.diag(signs)
        want = _min_symplectic(ppt4.gamma_xx, S @ ppt4.gamma_pp @ S)
        assert t["min_symplectic"] == pytest.approx(want, abs=1e-9)
        assert t["physical"] is (want >= 0.5 - 1e-9)


def _network_states(seed, count):
    # Squeezed vacua through random orthogonal networks, mixed with vacuum:
    # physical, and entangled across a cut or not depending on the weight.
    rng = np.random.default_rng(seed)
    for n in range(2, 6):
        for _ in range(count):
            r = rng.uniform(0.0, 1.2, n)
            O = np.linalg.qr(rng.standard_normal((n, n)))[0]
            w = rng.uniform(0.0, 0.4)
            vac = 0.5 * (1 - w) * np.eye(n)
            yield make_state(
                w * O @ np.diag(np.exp(2 * r) / 2) @ O.T + vac,
                w * O @ np.diag(np.exp(-2 * r) / 2) @ O.T + vac,
            )


def test_partial_transpose_is_a_sign_pattern(capsys, tmp_path):
    # The PT on block b is physical exactly when M_E = [[gxx, E/2], [E/2, gpp]]
    # is PSD for E = -1 on b, one of the LMI's sign patterns. So the LMI
    # minimum lies at or below that M_E's, and a cut with an unphysical PT
    # certifies through its LMI witness alone.
    path, dest = tmp_path / "s.json", tmp_path / "check.json"
    decided = {True: 0, False: 0}
    for state in _network_states(11, 3):
        n = state.n
        save_state(state, path)
        for p in all_partitions(n):
            if p.k < 2:
                continue
            code, _, _ = run(
                capsys, "check", "--state", str(path), "--partition", p.text,
                "--json", str(dest),
            )
            (row,) = json.loads(dest.read_text())["partitions"]
            records = {t["modes"]: t["physical"] for t in row["partial_transposes"]}
            unphysical = False
            for block in p.blocks:
                E = np.diag([-1.0 if m + 1 in block else 1.0 for m in range(n)])
                nu = _min_symplectic(state.gamma_xx, E @ state.gamma_pp @ E)
                M = np.block([[state.gamma_xx, E / 2], [E / 2, state.gamma_pp]])
                low = np.linalg.eigvalsh(M)[0]
                if abs(nu - 0.5) < 1e-6 or abs(low) < 1e-6:
                    continue
                physical = bool(nu > 0.5)
                assert physical is bool(low > 0), (p.text, block)
                assert row["lmi_min_eigenvalue"] <= low + 1e-12
                name = "PT " + "".join(str(m) for m in block)
                assert records.get(name, physical) is physical
                unphysical |= not physical
                decided[physical] += 1
            if unphysical:
                assert code == 1, p.text
    assert min(decided.values()) > 20, decided


def _edge_state(A, nu):
    # Separable: gpp's partial transpose is gxx, so gxx gpp^T has the
    # eigenvalues (A + C)^2 and (A - C)^2. The PT's nu_min is A - C, which is
    # nu up to the rounding of C (at most 1e-9 here), so it stays >= 1/2.
    C = A - nu
    return make_state([[A, C], [C, A]], [[A, -C], [-C, A]])


@pytest.mark.parametrize(
    "A, nu",
    [(1e6, 0.5), (1e6, 0.50000001), (1e6, 0.5000001), (1e6, 0.500001), (1e7, 0.50000001)],
)
def test_separable_edge_states_certify_nothing(capsys, tmp_path, A, nu):
    # The PT's spectrum rounds below 1/2 at these entries; a PT line is a raw
    # diagnostic, and neither check nor a margin search certifies.
    path = tmp_path / "edge.json"
    save_state(_edge_state(A, nu), path)
    code, out, _ = run(capsys, "check", "--state", str(path))
    assert code == 0
    assert "nothing detected" in out and "entanglement certified" not in out
    for method in ("optimize", "random"):
        code, out, _ = run(
            capsys, "search", "--state", str(path), "--all-bipartitions", "--no-error",
            "--method", method,
        )
        assert code == 0, method
        assert "nothing certified" in out


def test_check_validates_every_cut_before_printing(capsys, tmp_path):
    g = 0.5 * np.eye(13)
    path = tmp_path / "s13.json"
    save_state(make_state(g, g), path)
    every_mode = "|".join(str(m) for m in range(1, 14))
    code, out, err = run(capsys, "check", "--state", str(path), "--partition", every_mode)
    assert (code, out) == (2, "")
    assert "the LMI test needs at most 12 blocks, got 13" in err


@pytest.mark.parametrize("name, want", [("ppt4", 1), ("klev4", 0), ("vacuum4", 0)])
def test_check_builtin_verdicts_follow_their_rows(capsys, tmp_path, name, want):
    # Away from the boundary a physical state is certified exactly when some
    # row reports an LMI violation or an unphysical partial transpose.
    dest = tmp_path / "check.json"
    code, out, _ = run(capsys, "check", "--state", name, "--json", str(dest))
    doc = json.loads(dest.read_text())
    flagged = any(
        row["lmi_violated"] or not all(t["physical"] for t in row["partial_transposes"])
        for row in doc["partitions"]
    )
    assert code == want == int(doc["physical"] and flagged)
    assert "within the physicality tolerance" not in out


def test_check_ten_modes_labels_partial_transposes_like_partitions(capsys, tmp_path):
    # gamma >= I/2 in both quadratures: a classical, separable state.
    gamma = 0.6 * np.eye(10)
    gamma[0, 1] = gamma[1, 0] = 0.05
    path = tmp_path / "ten.json"
    save_state(make_state(gamma, gamma), path)
    dest = tmp_path / "ten-check.json"
    code, out, _ = run(
        capsys, "check", "--state", str(path), "--partition", "1,2,3|4,5,6,7,8,9,10",
        "--json", str(dest),
    )
    assert code == 0
    assert "partition 1,2,3|4,5,6,7,8,9,10:" in out
    assert "PT 1,2,3:" in out and "(1, 2, 3)" not in out
    doc = json.loads(dest.read_text())
    assert doc["partitions"][0]["partial_transposes"][0]["modes"] == "PT 1,2,3"


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


def test_search_json_deterministic(capsys, tmp_path):
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
    run(capsys, *args, "--threads", "2", "--json", str(c))
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_search_all_bipartitions_json_thread_invariant(capsys, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    args = ("search", "--state", "klev4", "--all-bipartitions", "--trials", "131075")
    run(capsys, *args, "--threads", "1", "--json", str(one))
    run(capsys, *args, "--threads", "2", "--json", str(two))
    assert len(json.loads(one.read_text())) == 7
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), ("0", "2")])
def test_search_rejects_thread_count_below_one(capsys, monkeypatch, flag, env):
    # env is a CVWITNESS_THREADS value, which is not read: it hides no bad flag.
    argv = ["search", "--state", "klev4", "--partition", "1|234", "--trials", "10"]
    if env is not None:
        monkeypatch.setenv("CVWITNESS_THREADS", env)
    code, out, err = run(capsys, *argv, "--threads", flag)
    assert (code, out) == (2, "")
    assert f"--threads must be >= 1, got {flag}" in err


def test_thread_env_is_not_read(capsys, tmp_path, monkeypatch):
    # The thread count is --threads or the usable CPUs; CVWITNESS_THREADS=0
    # changes neither the exit code nor a byte of the report.
    argv = ["search", "--state", "klev4", "--partition", "1|234", "--trials", "1000"]
    plain, env = tmp_path / "plain.json", tmp_path / "env.json"
    want = run(capsys, *argv, "--json", str(plain))[:2]
    monkeypatch.setenv("CVWITNESS_THREADS", "0")
    assert run(capsys, *argv, "--json", str(env))[:2] == want
    assert want[0] == 1
    assert env.read_bytes() == plain.read_bytes()


def test_search_has_no_normalization_flag(capsys):
    # Solver witnesses are normalized to G = 1; --C is a usage error.
    argv = ["search", "--state", "klev4", "--partition", "1|234", "--trials", "1000"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--C", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --C 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, want",
    [
        ("search --state ppt4 --all-bipartitions --no-error", 1),
        ("check --state ppt4", 1),
        ("bound --symmetric-witness 4 --table1", 0),
        ("bound --symmetric-witness 4 --partition 12|34", 0),
        ("reproduce ppt4", 0),
    ],
)
def test_no_json_is_built_without_a_path(capsys, monkeypatch, argv, want):
    def refuse(*args, **kwargs):
        raise AssertionError("JSON text built without --json")

    monkeypatch.setattr(cli, "reports_to_json", refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    code, out, _ = run(capsys, *argv.split())
    assert code == want and out


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
    "level, extra",
    [("4", ["--method", "optimize"]), ("2", ["--method", "random", "--trials", "1000000"])],
)
def test_one_block_partition_certifies_nothing(capsys, tmp_path, level, extra):
    # B(X, P) bounds G on every physical state, so a witness beating it on the
    # one-block partition shows that klev4's data are unphysical (its minimum
    # symplectic eigenvalue is below 1/2), not that they are entangled.
    dest = tmp_path / "trivial.json"
    code, out, _ = run(
        capsys, "search", "--state", "klev4", "--partition", "trivial",
        "--s-level", level, *extra, "--json", str(dest),
    )
    (report,) = json.loads(dest.read_text())
    assert report["partition"] == "1234" and report["s"] > float(level)
    assert code == 0, out
    assert "nothing certified" in out and "certified across" not in out


@pytest.mark.parametrize("target", [["--all-bipartitions", "--method", "optimize"], ["--genuine"]])
def test_ties_certify_nothing_at_level_zero(capsys, tmp_path, target):
    # vacuum4 is separable: its optimal scores are 0 up to rounding, so
    # B_I = G, and a tie is no violation, whatever sign rounding gives s.
    dest = tmp_path / "tie.json"
    code, out, _ = run(
        capsys, "search", "--state", "vacuum4", *target, "--s-level", "0",
        "--json", str(dest),
    )
    assert all(abs(row["s"]) < 1e-9 for row in json.loads(dest.read_text()))
    assert code == 0, out
    assert "certified across" not in out and "FOUND" not in out


@pytest.mark.parametrize("g, verdict", [(0.7, "nothing detected"), (0.3, "inconclusive")])
def test_check_one_mode_state(capsys, tmp_path, g, verdict):
    # One mode has no bipartition: check reports physicality only, with
    # nu = sqrt(gxx gpp) = g.
    path = tmp_path / "one.json"
    save_state(make_state([[g]], [[g]]), path)
    dest = tmp_path / "one-check.json"
    code, out, err = run(capsys, "check", "--state", str(path), "--json", str(dest))
    assert code == 0, err
    assert f"(min symplectic eigenvalue {g:.6f}, needs >= 0.5)" in out
    assert verdict in out and "partition" not in out
    doc = json.loads(dest.read_text())
    assert doc["physical"] is (g >= 0.5) and doc["partitions"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--genuine", "--restarts", "-1"],
        ["--genuine", "--s-level", "-1", "--restarts", "1"],
        ["--genuine", "--target-s", "nan", "--restarts", "1"],
        ["--partition", "1|234", "--s-level", "-0.5", "--trials", "100"],
        ["--partition", "1|234", "--trials", "1000", "--restarts", "-1"],
        ["--partition", "1|234", "--method", "optimize", "--restarts", "-1"],
        ["--all-bipartitions", "--no-error", "--restarts", "-1"],
        # Margin mode does not read the level, but it is still checked.
        ["--all-bipartitions", "--no-error", "--s-level", "-1"],
        ["--partition", "1|234", "--no-error", "--s-level", "nan"],
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


def test_python_dash_m_runs_the_cli(tmp_path):
    # The package as imported here, whether from a checkout or installed.
    root = Path(cvwitness.__file__).resolve().parent.parent
    path = os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "cvwitness", "reproduce", "table1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "all values reproduced" in done.stdout


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


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "cvwitness":  # sub-parsers are "cvwitness <verb>"
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for i in range(20):
        argv = ("bound", "--symmetric-witness", str(3 + i % 3), "--partition", "full")
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_search_defaults_do_not_leak_between_calls(capsys, tmp_path):
    margin = ("search", "--state", "ppt4", "--no-error", "--all-bipartitions")
    code, out, _ = run(capsys, *margin)
    assert code == 1
    assert "matrix(4x4)" in out
    dest = tmp_path / "klev4.json"
    code, out, _ = run(
        capsys, "search", "--state", "klev4", "--partition", "1|234",
        "--trials", "1000", "--json", str(dest),
    )
    assert code == 1, out  # margin mode would call klev4 unphysical and exit 0
    header, _, row = out.splitlines()[:3]
    assert header.split()[:3] == ["partition", "G", "sigma"]
    assert row.split()[0] == "1|234" and row.split()[2] != "-"  # an error model
    assert "h=(" in out  # a rank-one witness: the random method
    (report,) = json.loads(dest.read_text())
    assert "gap" not in report and report["sigma"] is not None  # no solver ran


@pytest.mark.parametrize(
    "disrupt, want",
    [
        (["search", "--state", "klev4"], SystemExit),  # usage error
        (["check", "--help"], SystemExit),
        (["search", "--state", "klev4", "--all-bipartitions", "--restarts", "-1"], 2),
    ],
)
def test_main_is_reusable_after_an_exit(capsys, disrupt, want):
    probe = ("search", "--state", "klev4", "--partition", "12|34", "--trials", "2000")
    cli._build_parser.cache_clear()
    alone = run(capsys, *probe)
    if want is SystemExit:
        with pytest.raises(SystemExit):
            main(disrupt)
        capsys.readouterr()
    else:
        assert run(capsys, *disrupt)[0] == want
    assert run(capsys, *probe) == alone


def test_help_reads_the_terminal_width_when_it_formats(capsys, monkeypatch):
    def widest(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        return max(map(len, capsys.readouterr().out.splitlines()))

    wide = widest(200)
    assert widest(60) < wide
    assert widest(200) == wide
