import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schemewalk import CertificationError, ValidationError, dilation_unitary, walk
from schemewalk.cli import run
from schemewalk.errors import MASS_TOL
from schemewalk.serialize import load, loads


@pytest.fixture()
def j42_file(tmp_path):
    path = tmp_path / "j42.json"
    code = run(["scheme", "build", "--family", "johnson", "--v", "4", "--k", "2",
                "--out", str(path)])
    assert code == 0
    return path


def test_build_writes_scheme(j42_file, capsys):
    data = json.loads(j42_file.read_text())
    assert data["n"] == 6 and data["d"] == 2


def test_verify_reports_passed(j42_file, capsys):
    code = run(["scheme", "verify", str(j42_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed, commutative" in out


def test_dilate_inline_distribution(capsys):
    code = run(["qmc", "dilate", "--dist", "[0.5,0.5]"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "[[0.70710678, 0.70710678], [-0.70710678, 0.70710678]]"


def test_verify_fails_on_corrupted_scheme(tmp_path, j42_file, capsys):
    # the nested form is still read, so the corruption is written as nested rows
    data = json.loads(j42_file.read_text())
    relation = load(j42_file, "scheme").relation.tolist()
    relation[0][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, "relation": relation}))
    code = run(["scheme", "verify", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "axiom (1)" in out


@pytest.mark.parametrize("relation", [[[0, 1], [1]], "abc", [[0, 1.5], [1.5, 0]]])
def test_verify_refuses_malformed_relation(tmp_path, relation, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "d": 1, "relation": relation}))
    assert run(["scheme", "verify", str(bad)]) == 1


def test_verify_refuses_more_classes_than_pairs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "d": 10**7, "relation": [[0, 1], [1, 0]]}))
    assert run(["scheme", "verify", str(bad)]) == 1
    assert "at most 2 non-identity classes" in capsys.readouterr().err


def test_distribution_errors_print_python_floats(j42_file, capsys):
    with pytest.raises(ValidationError) as info:
        loads("[0.5,0.6,0]", "distribution")
    assert "sums to 1.1" in str(info.value) and "np.float64(" not in str(info.value)
    for argv in (["walk", "hypergroup", str(j42_file), "--coin", "[0.5,0.6,0]",
                  "--start", "0", "--steps", "1"],
                 ["qmc", "dilate", "--dist", "[0.5,0.6,0]"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "sums to 1.1" in err and "np.float64(" not in err


DISTRIBUTION_READERS = {
    "serialize.loads": lambda h, vec: loads(json.dumps(vec), "distribution"),
    "walk": lambda h, vec: walk(h, 1, vec, 1),
    "dilation_unitary": lambda h, vec: dilation_unitary(vec),
}


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)], ids=["inside", "outside"])
@pytest.mark.parametrize("where", ["mass", "negative entry"])
def test_distribution_readers_share_one_bound(where, scale, accepted, j42_hypergroup):
    """Every reader of a distribution accepts or refuses it alike, just
    inside and just outside the one mass tolerance of `errors`."""
    error = scale * MASS_TOL
    vec = [0.0, 0.5, 0.5 + error] if where == "mass" else [-error, 0.5, 0.5 + error]
    verdicts = {}
    for name, read in DISTRIBUTION_READERS.items():
        try:
            read(j42_hypergroup, vec)
            verdicts[name] = True
        except ValidationError:
            verdicts[name] = False
    assert verdicts == dict.fromkeys(DISTRIBUTION_READERS, accepted)


@pytest.mark.parametrize("coin, witness", [
    (f"[{10**400}, 0, 0]", "entries must be numbers, got dtype object"),
    ("[NaN, 0, 1]", "non-finite entry at (0)"),
], ids=["400-digit-integer", "nan"])
def test_a_coin_that_is_not_finite_numbers_is_an_error_without_a_traceback(
        j42_file, capsys, coin, witness):
    argv = ["walk", "hypergroup", str(j42_file), "--coin", coin, "--start", "0", "--steps", "1"]
    assert run(argv) == 1
    assert witness in capsys.readouterr().err


def test_spectrum_output(j42_file, capsys):
    code = run(["scheme", "spectrum", str(j42_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "multiplicities: [1, 3, 2]" in out
    assert "eigenmatrix P" in out and "eigenmatrix Q" in out


def test_params_intersection(j42_file, capsys):
    code = run(["scheme", "params", str(j42_file), "--kind", "intersection"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p[1][1] = [4, 2, 4]" in out


def test_params_krein_satisfied(j42_file, capsys):
    code = run(["scheme", "params", str(j42_file), "--kind", "krein"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Krein condition: satisfied" in out


def test_scheme_build_group_and_conjugacy(tmp_path, capsys):
    out_path = tmp_path / "s3c.json"
    code = run(["scheme", "build", "--family", "conjugacy", "--group", "s3",
                "--out", str(out_path)])
    assert code == 0
    scheme = load(out_path, "scheme")
    assert scheme.n == 6 and scheme.d == 2

    out_path = tmp_path / "z4.json"
    assert run(["scheme", "build", "--family", "group", "--group", "z4",
                "--out", str(out_path)]) == 0
    assert load(out_path, "scheme").n == 4


def test_scheme_build_orbit(tmp_path, capsys):
    out_path = tmp_path / "orbit.json"
    code = run(["scheme", "build", "--family", "orbit", "--n", "4",
                "--generators", "[[1,0,2,3],[1,2,3,0]]", "--out", str(out_path)])
    assert code == 0
    assert load(out_path, "scheme").d == 1


def test_scheme_build_grassmann(tmp_path, capsys):
    out_path = tmp_path / "gr.json"
    code = run(["scheme", "build", "--family", "grassmann", "--q", "2", "--v", "3",
                "--d", "1", "--out", str(out_path)])
    assert code == 0
    assert load(out_path, "scheme").n == 7


def test_scheme_build_johnson_above_vertex_cap_exits_1(tmp_path, capsys):
    code = run(["scheme", "build", "--family", "johnson", "--v", "40", "--k", "20",
                "--out", str(tmp_path / "big.json")])
    assert code == 1
    assert "above the cap" in capsys.readouterr().err
    assert not (tmp_path / "big.json").exists()


def test_scheme_build_grassmann_above_vertex_cap_exits_1(tmp_path, capsys):
    code = run(["scheme", "build", "--family", "grassmann", "--q", "2", "--v", "7",
                "--d", "3", "--out", str(tmp_path / "big.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: J_2(7,3) has 11811 vertices, above the cap of 5000\n")
    assert not (tmp_path / "big.json").exists()


def test_walk_csv(tmp_path, j42_file, capsys):
    csv_path = tmp_path / "walk.csv"
    code = run(["walk", "hypergroup", str(j42_file), "--coin", "1", "--start", "0",
                "--steps", "3", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,state0,state1,state2"
    assert len(lines) == 5
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0]


def test_walk_stdout(j42_file, capsys):
    code = run(["walk", "hypergroup", str(j42_file), "--coin", "1", "--start", "0",
                "--steps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step" in out


def test_walk_refuses_a_start_index_out_of_range(j42_file, capsys):
    code = run(["walk", "hypergroup", str(j42_file), "--coin", "1", "--start", "3",
                "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: start index 3 out of range 0..2\n"


def test_qmc_schur(tmp_path, j42_file, capsys):
    rho = json.dumps((np.eye(6) / 6).tolist())
    code = run(["qmc", "schur", "--scheme", str(j42_file), "--coin", "1",
                "--rho", rho, "--steps", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace factors" in out


def test_qmc_entangled(capsys):
    code = run(["qmc", "entangled", "--transition", "[[0.5,0.5],[0.5,0.5]]",
                "--M", "[[1,0],[0,1]]", "--N", "[[1,0],[0,0]]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[[0.50000000, 0.00000000], [0.00000000, 0.50000000]]" in out


def test_szegedy_writes_unitary(tmp_path, capsys):
    out_path = tmp_path / "U.json"
    code = run(["szegedy", "--transition", "[[0.5,0.5],[0.5,0.5]]",
                "--out", str(out_path)])
    assert code == 0
    u = load(out_path, "matrix")
    assert u.shape == (4, 4)
    assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-10


def test_anyon_fuse(capsys):
    code = run(["anyon", "--system", "ising", "--op", "fuse", "sigma", "sigma"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1:1" in out and "psi:1" in out


def test_anyon_dims(capsys):
    code = run(["anyon", "--system", "fibonacci", "--op", "dims"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.6180339887" in out


def test_anyon_braid(capsys):
    code = run(["anyon", "--system", "ising", "--op", "braid"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sigma1" in out and "residual" in out


def test_anyon_pentagon_and_hexagon(capsys):
    assert run(["anyon", "--system", "ising", "--op", "pentagon"]) == 0
    assert run(["anyon", "--system", "fibonacci", "--op", "hexagon"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


@pytest.mark.parametrize("system", [
    {"labels": "1g", "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    {"labels": ["1", "g"], "N": [[[1, 0], [0, 1]], [[0, 1]]]},
    {"labels": ["1", "g"], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "F": {"1,1,0,7": [[1]]}},
    {"labels": ["1", "g"], "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "R": [1, 0]},
], ids=["labels-string", "ragged-n", "f-key-range", "r-list"])
def test_anyon_malformed_system_file_exits_1(tmp_path, system, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system))
    code = run(["anyon", "--system", str(path), "--op", "dims"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_anyon_bridge(j42_file, capsys):
    code = run(["anyon", "bridge", "--scheme", str(j42_file), "--system", "ising"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "no integral match: no label map keeps the support pattern\n"

    code = run(["anyon", "bridge", "--scheme", str(j42_file), "--system", "ising", "--json"])
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 0
    assert out == {"matched": False, "bijection": [], "scalars": [], "deviation": None}


def test_anyon_bridge_above_rank_9(tmp_path, capsys):
    from schemewalk import FusionSystem, cyclic_fusion_system
    from schemewalk.serialize import save

    scheme_path = tmp_path / "z12.json"
    assert run(["scheme", "build", "--family", "group", "--group", "z12",
                "--out", str(scheme_path)]) == 0
    z2, z6 = cyclic_fusion_system(2), cyclic_fusion_system(6)
    rings = {
        "z12": cyclic_fusion_system(12),
        "z2xz6": FusionSystem(
            [f"{a}{b}" for a in range(2) for b in range(6)],
            np.einsum("ace,bdf->abcdef", z2.N, z6.N).reshape(12, 12, 12)),
    }
    for name, ring in rings.items():
        save(tmp_path / f"{name}-fusion.json", "fusion-system", ring)
    capsys.readouterr()
    outs = {}
    for name in rings:
        code = run(["anyon", "bridge", "--scheme", str(scheme_path),
                    "--system", str(tmp_path / f"{name}-fusion.json")])
        outs[name] = capsys.readouterr().out
        assert code == 0
    assert outs["z12"].startswith("match:")
    assert outs["z2xz6"].startswith("no integral match")


REP_S3_JSON = {"labels": ["1", "s", "t"],
               "N": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                     [[0, 0, 1], [0, 0, 1], [1, 1, 1]]]}


def test_anyon_bridge_reports_scalars_d_over_m(tmp_path, capsys):
    scheme_path, ring_path = tmp_path / "s3c.json", tmp_path / "reps3.json"
    assert run(["scheme", "build", "--family", "conjugacy", "--group", "s3",
                "--out", str(scheme_path)]) == 0
    ring_path.write_text(json.dumps(REP_S3_JSON))
    capsys.readouterr()
    argv = ["anyon", "bridge", "--scheme", str(scheme_path), "--system", str(ring_path)]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("match: bijection ['1', 't', 's'], deviation ")
    assert lines[1] == "scalars d/m: [1.00000000, 0.50000000, 1.00000000]"

    assert run(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matched"] and out["bijection"] == [0, 2, 1]
    assert np.max(np.abs(np.subtract(out["scalars"], [1.0, 0.5, 1.0]))) <= 1e-12
    assert 0.0 <= out["deviation"] < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["anyon", "--system", "ising", "--op", "dims", "extra"], "dims does not read labels: extra"),
    (["anyon", "--system", "ising", "--op", "braid", "sigma", "sigma"],
     "braid does not read labels: sigma sigma"),
    (["anyon", "--system", "ising", "--op", "pentagon", "--scheme", "SCHEME"],
     "pentagon does not read --scheme"),
    (["anyon", "--system", "ising", "--op", "fuse", "sigma", "sigma", "--scheme", "SCHEME"],
     "fuse does not read --scheme"),
    (["anyon", "bridge", "--scheme", "SCHEME", "--system", "ising", "sigma"],
     "bridge does not read labels: sigma"),
    (["scheme", "build", "--family", "johnson", "--v", "4", "--k", "2", "--q", "3"],
     "johnson does not read --q"),
    (["scheme", "build", "--family", "grassmann", "--q", "2", "--v", "3", "--d", "1",
      "--k", "1", "--group", "z3"], "grassmann does not read --group, --k"),
    (["scheme", "build", "--family", "group", "--group", "z3", "--n", "3"],
     "group does not read --n"),
    (["scheme", "build", "--family", "conjugacy", "--group", "s3", "--generators", "[]"],
     "conjugacy does not read --generators"),
    (["scheme", "build", "--family", "orbit", "--n", "4", "--generators", "[[1,0,2,3]]",
      "--d", "2"], "orbit does not read --d"),
    (["scheme", "build", "--family", "johnson", "--v", "4"], "johnson needs --v, --k"),
    (["scheme", "build", "--family", "grassmann", "--q", "2", "--d", "1"],
     "grassmann needs --q, --v, --d"),
    (["scheme", "build", "--family", "conjugacy"], "conjugacy needs --group"),
    (["scheme", "build", "--family", "orbit", "--n", "4"], "orbit needs --generators, --n"),
])
def test_input_a_command_would_ignore_is_refused(argv, message, j42_file, capsys):
    code = run([str(j42_file) if a == "SCHEME" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["walk", "hypergroup", "SCHEME", "--coin", "abc", "--start", "0", "--steps", "1"],
     "--coin must be an index or a JSON list"),
    (["walk", "hypergroup", "SCHEME", "--coin", '{"a": 1}', "--start", "0", "--steps", "1"],
     "--coin must be an index or a JSON list"),
    (["scheme", "build", "--family", "orbit", "--generators", "[[1,0]", "--n", "2"],
     "--generators is not valid JSON: Expecting ',' delimiter"),
    (["anyon", "--system", "ising", "--op", "fuse", "sigma"],
     "fuse needs two labels, e.g. --op fuse sigma sigma"),
    (["anyon", "--system", "ising", "--op", "bridge"], "bridge needs --scheme"),
    (["qmc", "entangled", "--transition", "[[0.5,0.5],[0.5,0.5]]", "--M", "[1, 2]",
      "--N", "[[1,0],[0,1]]"],
     "matrix must be a non-empty list of equal-length rows of numbers or [re, im] pairs"),
], ids=["coin-not-json", "coin-not-a-list", "generators-not-json", "fuse-one-label",
        "bridge-without-scheme", "matrix-one-axis"])
def test_malformed_input_is_refused_with_its_message(argv, message, j42_file, capsys):
    code = run([str(j42_file) if a == "SCHEME" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_f_or_r_data_on_a_ring_with_multiplicities_exits_1(tmp_path, capsys):
    # the near-group ring: t x t = 1 + s + 2t
    n = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
         [[0, 0, 1], [0, 0, 1], [1, 1, 2]]]
    path = tmp_path / "near_group.json"
    path.write_text(json.dumps({"labels": ["1", "s", "t"], "N": n, "R": {"1,1,0": 1.0}}))
    code = run(["anyon", "--system", str(path), "--op", "dims"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: F and R data need a multiplicity-free system; "
                            "N at (t t -> t) is 2\n")


def test_scheme_build_without_out_prints_a_scheme_that_verifies(tmp_path, capsys):
    assert run(["scheme", "build", "--family", "johnson", "--v", "4", "--k", "2"]) == 0
    path = tmp_path / "printed.json"
    path.write_text(capsys.readouterr().out)
    assert load(path, "scheme").n == 6
    assert run(["scheme", "verify", str(path)]) == 0
    assert capsys.readouterr().out == "passed, commutative\n"


def test_a_certification_failure_exits_2_with_its_message(monkeypatch, capsys):
    import schemewalk.cli as cli

    def failing(args, fs):
        raise CertificationError("planted failure")

    monkeypatch.setitem(cli._ANYON_OPS, "dims", failing)
    code = run(["anyon", "--system", "ising", "--op", "dims"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "certification failure: planted failure\n"


def test_exit_codes(tmp_path, capsys):
    # validation problems exit 1
    assert run(["scheme", "verify", str(tmp_path / "missing.json")]) == 1
    assert run(["scheme", "build", "--family", "johnson", "--v", "4", "--k", "3",
                "--out", str(tmp_path / "x.json")]) == 1
    assert run(["qmc", "dilate", "--dist", "[0.5,0.6]"]) == 1
    # argparse-level misuse also exits 1
    assert run(["scheme", "verify"]) == 1
    assert run(["bogus"]) == 1
    capsys.readouterr()


def test_version_notice(capsys):
    code = run(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m_k/(m_i m_j)" in out
    assert "q_ij^k" in out


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["scheme", "--help"]) == 0
    capsys.readouterr()


def test_qmc_schur_on_a_scheme_beyond_the_pair_space_cap(tmp_path, capsys):
    # J(10,3) has n = 120: its dense Choi matrix would take 3.3 GB
    scheme_path = tmp_path / "j103.json"
    assert run(["scheme", "build", "--family", "johnson", "--v", "10", "--k", "3",
                "--out", str(scheme_path)]) == 0
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps((np.eye(120) / 120).tolist()))
    code = run(["qmc", "schur", "--scheme", str(scheme_path), "--coin", "1",
                "--rho", str(rho_path), "--steps", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace factors" in out


@pytest.mark.parametrize("argv", [
    ["scheme", "verify", "SCHEME"],
    ["scheme", "spectrum", "SCHEME"],
    ["scheme", "params", "SCHEME", "--kind", "intersection"],
    ["scheme", "params", "SCHEME", "--kind", "krein"],
    ["walk", "hypergroup", "SCHEME", "--coin", "1", "--start", "0", "--steps", "1"],
    ["qmc", "schur", "--scheme", "SCHEME", "--coin", "1",
     "--rho", json.dumps((np.eye(6) / 6).tolist()), "--steps", "1"],
    ["anyon", "bridge", "--scheme", "SCHEME", "--system", "ising"],
])
def test_each_verb_runs_one_axiom_pass(argv, j42_file, monkeypatch, capsys):
    import schemewalk.schemes as schemes

    calls = []
    original = schemes._packed_product_pass

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schemes, "_packed_product_pass", counted)
    code = run([str(j42_file) if a == "SCHEME" else a for a in argv])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("coin, start", [
    ('["a", "b", "c"]', "0"),
    ("[[1, 0], [0]]", "0"),
    ("1", "[0, true, 0]"),
])
def test_walk_refuses_a_list_that_is_not_all_numbers(coin, start, j42_file, capsys):
    code = run(["walk", "hypergroup", str(j42_file), "--coin", coin, "--start", start,
                "--steps", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["walk", "hypergroup", "SCHEME", "--coin", "1", "--start", "0", "--steps", "STEPS"],
    ["qmc", "schur", "--scheme", "SCHEME", "--coin", "1",
     "--rho", json.dumps(np.diag([1.0, 0, 0, 0, 0, 0]).tolist()), "--steps", "STEPS"],
])
@pytest.mark.parametrize("steps", [10 ** 12, 10 ** 20])
def test_a_trajectory_above_the_byte_cap_exits_1(argv, steps, j42_file, capsys):
    code = run([{"SCHEME": str(j42_file), "STEPS": str(steps)}.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: a ") and "above the cap of 200000000" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["scheme", "spectrum", "SCHEME"],
    ["walk", "hypergroup", "SCHEME", "--coin", "1", "--start", "0", "--steps", "1"],
    ["qmc", "schur", "--scheme", "SCHEME", "--coin", "1",
     "--rho", json.dumps((np.eye(6) / 6).tolist()), "--steps", "1"],
    ["anyon", "bridge", "--scheme", "SCHEME", "--system", "ising"],
])
def test_verbs_that_decompose_refuse_a_non_commutative_scheme(argv, tmp_path, capsys):
    path = tmp_path / "s3.json"
    assert run(["scheme", "build", "--family", "group", "--group", "s3",
                "--out", str(path)]) == 0
    capsys.readouterr()
    code = run([str(path) if a == "SCHEME" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "not commutative" in err


@pytest.mark.parametrize("argv", [
    ["scheme", "build", "--family", "johnson", "--v", "4", "--k", "2", "--out", "DIR"],
    ["scheme", "verify", "DIR"],
    ["walk", "hypergroup", "SCHEME", "--coin", "1", "--start", "0", "--steps", "1",
     "--csv", "DIR"],
    ["scheme", "verify", "UTF16"],
    ["anyon", "--system", "UTF16", "--op", "dims"],
], ids=["build-out-dir", "verify-dir", "csv-dir", "verify-utf16", "anyon-utf16"])
def test_os_and_encoding_errors_exit_1_without_a_traceback(argv, tmp_path, j42_file, capsys):
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    names = {"DIR": str(tmp_path), "SCHEME": str(j42_file), "UTF16": str(utf16)}
    code = run([names.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.45 GiB for an array"),
     "error: Unable to allocate 7.45 GiB for an array"),
    (MemoryError(), "error: out of memory"),
])
def test_memory_error_exits_1_without_a_traceback(exc, message, j42_file, monkeypatch, capsys):
    import schemewalk.schemes as schemes

    def exhausted(*args):
        raise exc

    monkeypatch.setattr(schemes, "_packed_product_pass", exhausted)
    code = run(["scheme", "verify", str(j42_file)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == message + "\n"


def test_main_exit_codes_through_the_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "schemewalk.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)

    built = cli("scheme", "build", "--family", "johnson", "--v", "4", "--k", "2",
                "--out", "j42.json")
    assert built.returncode == 0, built.stderr
    verified = cli("scheme", "verify", "j42.json")
    assert (verified.returncode, verified.stdout) == (0, "passed, commutative\n")
    bogus = cli("bogus")
    assert bogus.returncode == 1
    assert bogus.stderr.startswith("error: ")
    data = json.loads((tmp_path / "j42.json").read_text())
    assert data["relation"]["dtype"] == "b2"
    own = load(tmp_path / "j42.json", "scheme").relation
    # a u1 file of the scheme's own bytes, as written before bit packing
    (tmp_path / "u1.json").write_text(json.dumps(
        {**data, "relation": {"dtype": "u1", "base64": base64.b64encode(own).decode()}}))
    assert (cli("scheme", "verify", "u1.json").returncode, own.dtype) == (0, np.uint8)
    relation = own.tolist()
    relation[0][0] = 1
    (tmp_path / "bad.json").write_text(json.dumps({**data, "relation": relation}))
    corrupted = cli("scheme", "verify", "bad.json")
    assert corrupted.returncode == 2
    assert "axiom (1)" in corrupted.stdout


@pytest.mark.parametrize("argv", [
    ["scheme", "verify", "SCHEME"],
    ["scheme", "spectrum", "SCHEME"],
    ["scheme", "params", "SCHEME", "--kind", "intersection"],
    ["scheme", "params", "SCHEME", "--kind", "krein"],
    ["walk", "hypergroup", "SCHEME", "--coin", "1", "--start", "0", "--steps", "2"],
    ["qmc", "dilate", "--dist", "[0.5,0.25,0.25]"],
    ["qmc", "entangled", "--transition", "[[0.5,0.5],[0.5,0.5]]",
     "--M", "[[1,0],[0,1]]", "--N", "[[1,0],[0,0]]"],
    ["qmc", "schur", "--scheme", "SCHEME", "--coin", "1",
     "--rho", json.dumps((np.eye(6) / 6).tolist()), "--steps", "2"],
    ["szegedy", "--transition", "[[0.5,0.5],[0.5,0.5]]"],
    ["anyon", "--system", "ising", "--op", "fuse", "sigma", "sigma"],
    ["anyon", "--system", "fibonacci", "--op", "dims"],
    ["anyon", "--system", "ising", "--op", "braid"],
    ["anyon", "--system", "ising", "--op", "pentagon"],
    ["anyon", "--system", "fibonacci", "--op", "hexagon"],
    ["anyon", "--system", "ising", "--op", "bridge", "--scheme", "SCHEME"],
], ids=lambda argv: "-".join(a for a in argv if a.isalpha() and a.islower()))
def test_every_json_verb_prints_one_strict_json_document(argv, j42_file, capsys):
    code = run([str(j42_file) if a == "SCHEME" else a for a in argv] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    json.loads(out, parse_constant=_refuse_constant)  # exactly one document, no NaN/Infinity
