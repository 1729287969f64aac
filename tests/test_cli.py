import argparse
import ast
import functools
import json
from dataclasses import fields
from importlib import resources

import jsonschema
import pytest

from spechtkit import cli, combinatorics
from spechtkit.cli import build_parser, main
from spechtkit.coefficients import kronecker_matrix
from spechtkit.combinatorics import Partition, Permutation
from spechtkit.config import Limits
from spechtkit.conjectures import Conjecture2Report, FunnySumReport, OrbitStructure
from spechtkit.matroid import LinearMatroid
from spechtkit.oracles import kronecker_oracle, plethysm_oracle
from test_conjectures import _pair_loop_report, corrupt_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def schema(name):
    text = resources.files("spechtkit.schemas").joinpath(name).read_text()
    return json.loads(text)


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_specht_matrix_text_and_csv(capsys):
    code, out, _ = run(capsys, "specht-matrix", "--lambda", "2")
    assert code == 0
    assert out.splitlines()[0] == "# columns: 12 21"
    assert "11:  1 -1" in out
    code, out, _ = run(capsys, "specht-matrix", "--lambda", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].strip() == ",12,21"


def test_specht_matrix_json_validates(capsys):
    code, out, _ = run(capsys, "specht-matrix", "--lambda", "2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("matrix.schema.json"))
    assert data["partition"] == [2, 2]
    assert data["row_labels"][0] == "1122"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--w1", "TENNESSEE", "--w2", "SASSAFRAS")
    assert code == 0
    assert "partition 4,2,2,1" in out
    assert "complementary: False" in out
    code, out, _ = run(
        capsys, "classify", "--w1", "112", "--w2", "123", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"rearrangeable": False}


def test_matroid_tutte_and_charpoly(capsys):
    code, out, _ = run(capsys, "matroid", "tutte", "--lambda", "2,1,1,1")
    assert code == 0
    assert out.strip() == "x^4 + x^3 + x^2 + x + y"
    code, out, _ = run(capsys, "matroid", "charpoly", "--lambda", "2,1,1,1")
    assert code == 0
    assert out.strip() == "t^4 - 5*t^3 + 10*t^2 - 10*t + 4"


def test_matroid_from_matrix_file(capsys, x_matrix_file):
    code, out, _ = run(capsys, "matroid", "charpoly", "--matrix", x_matrix_file)
    assert code == 0
    assert out.strip() == "t^3 - 6*t^2 + 12*t - 7"
    code, out, _ = run(
        capsys, "matroid", "tutte", "--matrix", x_matrix_file, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("polynomial.schema.json"))
    assert data["x^3"] == 1


def test_matroid_bases_and_circuits(capsys):
    code, out, _ = run(capsys, "matroid", "bases", "--lambda", "2,2")
    assert code == 0
    assert out.strip() == "12"
    code, out, _ = run(
        capsys, "matroid", "circuits", "--lambda", "2,2", "--max-size", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        ["1122", "2211"],
        ["1212", "2121"],
        ["1221", "2112"],
    ]


def test_chow_dims_and_presentation(capsys, x_matrix_file):
    code, out, _ = run(capsys, "chow", "dims", "--matrix", x_matrix_file)
    assert code == 0
    assert out.strip() == "1+11T+T^2"
    code, out, _ = run(
        capsys, "chow", "presentation", "--lambda", "2,2", "--format", "macaulay2-text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("R = QQ[")
    assert out.splitlines()[2] == "A = R/I;"


def test_chow_presentation_with_a_zero_column(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"entries": [[0, 1, 0], [0, 0, 1]]}))
    code, out, _ = run(capsys, "chow", "presentation", "--matrix", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [["0", "1"], ["0", "2"]]
    assert data["quadratic"] == [[["0", "1"], ["0", "2"]]]
    code, out, _ = run(capsys, "chow", "dims", "--matrix", str(path))
    assert code == 0
    assert out.strip() == "1+T"


def test_polytope_fvector_and_dim(capsys):
    code, out, _ = run(capsys, "polytope", "fvector", "--lambda", "2,1,1")
    assert code == 0
    assert out.strip() == "(1, 4, 6, 4, 1)"
    code, out, _ = run(capsys, "polytope", "dim", "--lambda", "2,2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dim": 2}


def test_polytope_faces_list_vertices_only(capsys, tmp_path):
    # the triangle (0,0), (2,0), (0,2) with (1,0) and (1,1) on two of its edges;
    # null labels take the default, the column indices
    target = tmp_path / "triangle.json"
    target.write_text(
        json.dumps({"entries": [[0, 2, 0, 1, 1], [0, 0, 2, 0, 1]], "col_labels": None})
    )
    code, out, _ = run(capsys, "polytope", "faces", "--matrix", str(target), "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        [], ["0"], ["1"], ["2"], ["0", "1"], ["0", "2"], ["1", "2"], ["0", "1", "2"]
    ]


def test_polytope_root_check(capsys):
    code, out, _ = run(capsys, "polytope", "root-check", "--k", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("report.schema.json"))
    assert data["vertices"] == 12
    assert data["matches_pair_matrix_columns"] is True


def test_root_check_lattice_guard_refuses(capsys):
    # at k = 7 the scan's box of pivot coordinates holds 3^6 points
    code, out, err = run(capsys, "polytope", "root-check", "--k", "7", "--max-box-volume", "100")
    assert code == 3 and out == ""
    assert err == "error: resource: max_box_volume: requested 729 exceeds limit 100\n"
    code, out, err = run(capsys, "polytope", "root-check", "--k", "9")
    assert code == 3 and out == ""
    assert err.startswith("error: resource: max_polytope_points:")


def test_root_check_passes_at_default_guards(capsys):
    code, out, _ = run(capsys, "polytope", "root-check", "--k", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "lattice_points: 43 (expected 43) pass"
    assert all(line.endswith(("pass", "True")) for line in lines)


def test_coeff_fast_path_and_matrix_emission(capsys, tmp_path):
    code, out, _ = run(
        capsys, "coeff", "lr", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1"
    )
    assert code == 0
    assert out.strip() == "2"
    target = str(tmp_path / "mat.json")
    code, out, _ = run(
        capsys,
        "coeff",
        "kronecker",
        "--lambda",
        "2",
        "--mu",
        "2",
        "--nu",
        "2",
        "--emit-matrix",
        target,
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == 1
    assert payload["shape"] == [1, 8]
    with open(target, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    jsonschema.validate(data, schema("coefficient-matrix.schema.json"))


def test_check_commands(capsys):
    code, out, _ = run(capsys, "check", "conjecture1", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("report.schema.json"))
    assert data["passed"] is True
    code, out, _ = run(capsys, "check", "conjecture2", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("report.schema.json"))
    assert data["chow_dims"] == [1, 7, 1]
    code, out, _ = run(
        capsys, "check", "orbits", "--n", "5", "--k", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("report.schema.json"))
    assert data["match"] is True


FAILED_CHECKS = {
    "conjecture1": (
        "check_conjecture1",
        lambda *a, **k: FunnySumReport(
            3, "full", 1, False, None, (Permutation((1, 2, 3)),) * 2 + (0, 36)
        ),
        "FAIL",
    ),
    "conjecture2": (
        "check_conjecture2",
        lambda *a, **k: Conjecture2Report(3, (1, 1), (1, 2), False),
        "FAIL",
    ),
    "orbits": (
        "cyclic_orbit_structures",
        lambda *a, **k: (OrbitStructure({1: 1, 3: 1}), OrbitStructure({1: 4})),
        "MISMATCH",
    ),
}


@pytest.mark.parametrize("what", sorted(FAILED_CHECKS))
def test_a_failed_check_prints_its_report_and_exits_1(capsys, monkeypatch, what):
    name, report, verdict = FAILED_CHECKS[what]
    monkeypatch.setattr(cli, name, report)
    code, out, err = run(capsys, "check", what, "--n", "3", "--k", "1")
    assert code == 1
    assert out.rstrip().endswith(verdict) and not err


def test_a_corrupted_matrix_fails_conjecture1_in_both_formats(capsys, monkeypatch):
    # a sign flip in the (3,1) matrix breaks the funny sum off the diagonal
    corrupt_matrix(monkeypatch, (3, 1), 0, 3, "flip")
    want = _pair_loop_report(4)
    code, out, err = run(capsys, "check", "conjecture1", "--n", "4", "--format", "json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    jsonschema.validate(data, schema("report.schema.json"))
    assert data == want.to_json_dict()
    assert data["counterexample"] == {
        "sigma": [1, 2, 3, 4],
        "tau": [2, 3, 4, 1],
        "value": 18,
        "expected": 0,
    }
    code, out, err = run(capsys, "check", "conjecture1", "--n", "4")
    assert (code, out, err) == (1, "conjecture1 n=4 mode=full pairs=10: FAIL\n", "")


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "specht-matrix", "--lambda", "0")
    assert code == 2
    assert err.startswith("error: usage:")
    code, _, err = run(capsys, "matroid", "flats")
    assert code == 2
    code, _, err = run(capsys, "matroid", "charpoly", "--matrix", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error: io:")
    bad = tmp_path / "invalid.json"
    bad.write_text("{")
    code, out, err = run(capsys, "matroid", "charpoly", "--matrix", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: io: invalid JSON in {bad}")
    # max_set_partition_n guarded only an oracle; it is no guard and has no flag
    code, _, err = run(capsys, "check", "conjecture1", "--n", "3", "--max-set-partition-n", "4")
    assert code == 2
    assert "unrecognized arguments: --max-set-partition-n 4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "orbits", "--n", "0", "--k", "1"],
        ["check", "orbits", "--n", "4", "--k", "-1"],
        ["check", "orbits", "--n", "4", "--k", "3"],
        ["check", "conjecture1", "--n", "3", "--mode", "sampled", "--samples", "-5"],
        ["check", "conjecture1", "--n", "3", "--mode", "sampled", "--samples", "0"],
        ["matroid", "circuits", "--lambda", "2,2", "--max-size", "-1"],
        ["classify", "--w1", "1,x", "--w2", "12"],
        ["classify", "--w1", ",", "--w2", "1"],
        ["polytope", "root-check"],
        ["check", "orbits", "--n", "4"],
    ],
    ids=" ".join,
)
def test_vacuous_or_invalid_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: usage:")


# one CLI input per guard that the guard refuses at 1
GUARDED_ARGV = {
    "max_matrix_cells": "specht-matrix --lambda 2,1",
    "max_ground": "matroid flats --lambda 2,1",
    "max_circuit_ground": "matroid circuits --lambda 2,1",
    "tutte_subset_limit": "matroid tutte --lambda 2,1 --strategy subsets",
    "max_flats": "matroid flats --lambda 2,1",
    "max_polytope_points": "polytope fvector --lambda 2,1",
    "max_polytope_dim": "polytope fvector --lambda 2,1,1",
    "max_box_volume": "polytope lattice-points --lambda 2,1",
    "max_group_order": "coeff kronecker --lambda 2 --mu 2 --nu 2",
    "max_coefficient_n": "coeff kronecker --lambda 2 --mu 2 --nu 2",
    "max_funny_sum_n": "check conjecture1 --n 2",
    "max_derangement_n": "check conjecture2 --n 2",
}


@functools.cache
def modules_importing_oracles():
    found = []
    for path in resources.files("spechtkit").iterdir():
        if path.name.endswith(".py") and path.name != "oracles.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n.split(".")[-1] == "oracles" for n in names):
                    found.append(path.name)
    return found


@pytest.mark.parametrize("field", [f.name for f in fields(Limits)])
def test_every_guard_refuses_some_cli_input(capsys, field):
    assert set(GUARDED_ARGV) == {f.name for f in fields(Limits)}
    argv = GUARDED_ARGV[field].split() + ["--" + field.replace("_", "-"), "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: resource: {field}:")
    # a guard on an oracle would guard no CLI input: no module reads them
    assert modules_importing_oracles() == []


def test_resource_errors_exit_3(capsys):
    code, _, err = run(
        capsys,
        "coeff",
        "kronecker",
        "--lambda",
        "3,2,1",
        "--mu",
        "3,2,1",
        "--nu",
        "3,2,1",
    )
    assert code == 3
    assert err.startswith("error: resource:")


def test_guard_refusal_of_a_huge_request_exits_3(capsys):
    # 2^20000 cells: its decimal string would pass Python's 4,300-digit limit
    code, out, err = run(
        capsys, "coeff", "plethysm", "--lambda", "2", "--mu", "20000", "--nu", "40000"
    )
    assert (code, out) == (3, "")
    assert "max_matrix_cells: requested a 20001-bit number" in err


def test_action_table_guard_exits_3(capsys):
    # S_n acts on the n! columns of (n): an n! x n! action table, checked
    # before it is built; (n)^3 walks (1^n),(1^n),(n)
    big = ("coeff", "kronecker", "--lambda", "7", "--mu", "7", "--nu", "7")
    code, _, err = run(capsys, *big, "--max-coefficient-n", "7", "--max-group-order", "5040")
    assert code == 3
    assert "max_matrix_cells: requested 25401600" in err
    small = ("coeff", "kronecker", "--lambda", "5", "--mu", "5", "--nu", "5")
    code, _, err = run(capsys, *small, "--max-matrix-cells", "14399")
    assert code == 3
    assert "max_matrix_cells: requested 14400" in err
    code, out, _ = run(capsys, *small, "--max-matrix-cells", "14400", "--format", "json")
    assert code == 0
    five = Partition((5,))
    assert json.loads(out)["coefficient"] == kronecker_oracle(five, five, five) == 1
    # s_(1^7)[s_1] = s_(1^7): the support rule answers before the walk,
    # whose action table on (7) the guard refuses
    ones = ("coeff", "plethysm", "--lambda", "1", "--mu", "1,1,1,1,1,1,1", "--nu", "7")
    code, out, _ = run(capsys, *ones, "--format", "json")
    assert code == 0
    triple = (Partition((1,)), Partition((1,) * 7), Partition((7,)))
    assert json.loads(out)["coefficient"] == plethysm_oracle(*triple) == 0
    # the hook of size 2 is (2), a 1 x 2 matrix; c and c^2 act on its two
    # column labels through a 2 x 2 table over 2^2 codes
    orbits = ("check", "orbits", "--n", "2", "--k", "0")
    for cells in ("2", "3"):
        code, out, err = run(capsys, *orbits, "--max-matrix-cells", cells)
        assert (code, out) == (3, "")
        assert f"max_matrix_cells: requested 4 exceeds limit {cells}" in err
    code, out, _ = run(capsys, *orbits, "--max-matrix-cells", "4")
    assert code == 0 and out.endswith(": match\n")


def test_limit_flag_overrides(capsys):
    # use a shape no other test builds: the in-process matrix cache is
    # consulted before the guard
    code, _, err = run(
        capsys,
        "specht-matrix",
        "--lambda",
        "4,3",
        "--max-matrix-cells",
        "2",
    )
    assert code == 3
    code, _, err = run(capsys, "specht-matrix", "--lambda", "2,1", "--max-matrix-cells", "-1")
    assert code == 2


def test_limit_flags_reach_lambda_matroids(capsys):
    # (4,2) has 180 columns: past max_ground = 128 unless the flag raises it
    for command in (("matroid", "bases"), ("chow", "dims")):
        code, _, err = run(capsys, *command, "--lambda", "4,2")
        assert code == 3
        assert "max_ground" in err
    code, _, err = run(
        capsys, "matroid", "circuits", "--lambda", "4,2", "--max-ground", "500"
    )
    assert code == 3
    assert "max_circuit_ground: requested 180" in err


def test_flat_guard_exits_3(capsys, monkeypatch):
    # (3,1,1) has 314 flats
    for command in (("matroid", "flats"), ("matroid", "charpoly"), ("chow", "dims")):
        code, out, err = run(capsys, *command, "--lambda", "3,1,1", "--max-flats", "100")
        assert (code, out) == (3, "")
        assert "max_flats: requested 101 exceeds limit 100" in err
    monkeypatch.setenv("SPECHTKIT_MAX_FLATS", "100")
    code, _, err = run(capsys, "matroid", "flats", "--lambda", "3,1,1")
    assert code == 3 and "max_flats" in err
    code, _, _ = run(capsys, "matroid", "flats", "--lambda", "3,1,1", "--max-flats", "314")
    assert code == 0


BAD_MATRICES = {
    "not-an-object": [[1, 0], [0, 1]],
    "ragged-rows": {"entries": [[1, 0, 1], [0, 1]]},
    "floats": {"entries": [[1.7, 0], [0, 0.5]]},
    "booleans": {"entries": [[True, 0], [0, 1]]},
    "strings": {"entries": [["1", 0], [0, 1]]},
    "short-labels": {"entries": [[1, 0], [0, 1]], "col_labels": ["a"]},
    "empty-word-list-label": {"entries": [[1, 0], [0, 1]], "col_labels": [[], "b"]},
    "mixed-word-list-label": {"entries": [[1, 0], [0, 1]], "col_labels": [["12", 3], "b"]},
    "empty-labels": {"entries": [[1, 0], [0, 1]], "col_labels": []},
    "zero-labels": {"entries": [[1, 0], [0, 1]], "col_labels": 0},
    "empty-string-labels": {"entries": [[1, 0], [0, 1]], "col_labels": ""},
    "false-labels": {"entries": [[1, 0], [0, 1]], "col_labels": False},
    "mixed-labels": {"entries": [[1, 0, 1], [0, 1, 1]], "col_labels": ["a", 1, 2]},
    "no-rows": {"entries": []},
    "flat-rows": {"entries": [1, 2]},
}


@pytest.mark.parametrize(
    "command", [("matroid", "charpoly"), ("matroid", "flats"), ("polytope", "fvector")], ids=str
)
@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
def test_bad_matrix_file_is_usage_error(capsys, tmp_path, command, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(BAD_MATRICES[case]))
    code, out, err = run(capsys, *command, "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage:")
    assert str(path) in err


def test_limit_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("SPECHTKIT_MAX_MATRIX_CELLS", "2")
    code, _, err = run(capsys, "specht-matrix", "--lambda", "4,3")
    assert code == 3
    assert err.startswith("error: resource:")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_limit_env_value_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SPECHTKIT_MAX_GROUND", value)
    code, _, err = run(capsys, "matroid", "flats", "--lambda", "2,1")
    assert code == 2
    assert err.startswith("error: usage:")
    assert "SPECHTKIT_MAX_GROUND" in err


@pytest.mark.parametrize("var", ["SPECHTKIT_MAX_GROUD", "SPECHTKIT_MAX_SET_PARTITION_N"])
def test_unknown_limit_env_variable_is_usage_error(capsys, monkeypatch, var):
    # a misspelt or removed guard variable is refused, as its flag is
    monkeypatch.setenv(var, "1")
    code, out, err = run(capsys, "check", "conjecture1", "--n", "3")
    assert (code, out) == (2, "")
    assert err == f"error: usage: {var} names no guard\n"
    flag = "--" + var.removeprefix("SPECHTKIT_").lower().replace("_", "-")
    monkeypatch.delenv(var)
    code, _, err = run(capsys, "check", "conjecture1", "--n", "3", flag, "1")
    assert code == 2
    assert f"unrecognized arguments: {flag} 1" in err


def test_seed_is_a_check_flag_only(capsys):
    code, out, err = run(capsys, "matroid", "flats", "--lambda", "2,1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "--seed" in err
    code, out, _ = run(
        capsys, "check", "conjecture1", "--n", "5", "--mode", "sampled", "--seed", "3"
    )
    assert code == 0
    assert out.startswith("conjecture1 n=5 mode=sampled")


def test_cache_dir_flag_is_gone(capsys, tmp_path):
    code, _, err = run(capsys, "specht-matrix", "--lambda", "2,2", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "--cache-dir" in err
    assert not any(tmp_path.iterdir())


def test_emitted_coefficient_matrix_loads_as_matroid_and_polytope(capsys, tmp_path):
    target = str(tmp_path / "k.json")
    triple = ["--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"]
    code, out, _ = run(capsys, "coeff", "kronecker", *triple, "--emit-matrix", target)
    assert (code, out.strip()) == (0, "1")
    with open(target, "r", encoding="utf-8") as fh:
        emitted = json.load(fh)
    labels = ["|".join(words) for words in emitted["col_labels"]]
    code, out, _ = run(capsys, "matroid", "flats", "--matrix", target, "--format", "json")
    assert code == 0
    # the flats of the dense columns, labelled by their factor words
    dense = kronecker_matrix(*map(Partition.parse, triple[1::2]))
    expected = LinearMatroid(labels, dense.entries.T.tolist()).flats()
    assert json.loads(out) == [sorted(f) for f in expected]
    assert "112|121|211" in expected[-1]
    code, out, _ = run(capsys, "polytope", "fvector", "--matrix", target)
    assert (code, out.strip()) == (0, "(1, 2, 1)")


def test_guard_errors_name_the_variable_or_the_flag(capsys, monkeypatch):
    code, _, err = run(capsys, "matroid", "bases", "--lambda", "2,1", "--max-ground", "0")
    assert (code, err) == (2, "error: usage: guard max_ground must be positive\n")
    monkeypatch.setenv("SPECHTKIT_MAX_GROUND", "0")
    code, _, err = run(capsys, "matroid", "bases", "--lambda", "2,1")
    assert (code, err) == (2, "error: usage: SPECHTKIT_MAX_GROUND must be positive\n")
    # a flag overrides the environment: (2,1) has three columns
    monkeypatch.setenv("SPECHTKIT_MAX_GROUND", "2")
    assert run(capsys, "matroid", "bases", "--lambda", "2,1")[0] == 3
    code, out, _ = run(capsys, "matroid", "bases", "--lambda", "2,1", "--max-ground", "3")
    assert (code, out) == (0, "3\n")


FORMATS = ("text", "json", "csv", "macaulay2-text")
PRINTS = {"text", "json"}

# one small command line per subcommand and action, with the formats it prints
FORMAT_TABLE = [
    (["specht-matrix", "--lambda", "2,1"], PRINTS | {"csv"}),
    (["classify", "--w1", "112", "--w2", "121"], PRINTS),
    *[
        (["matroid", action, "--lambda", "2,1"], PRINTS)
        for action in ("flats", "circuits", "bases", "tutte", "charpoly")
    ],
    (["chow", "dims", "--lambda", "2,1"], PRINTS),
    (["chow", "presentation", "--lambda", "2,1"], PRINTS | {"macaulay2-text"}),
    *[
        (["polytope", action, "--lambda", "2,1"], PRINTS)
        for action in ("fvector", "dim", "faces", "lattice-points")
    ],
    (["polytope", "root-check", "--k", "3"], PRINTS),
    (["coeff", "kronecker", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"], PRINTS),
    (["coeff", "lr", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1"], PRINTS),
    (["coeff", "plethysm", "--lambda", "1", "--mu", "2", "--nu", "2"], PRINTS),
    (["check", "conjecture1", "--n", "3"], PRINTS),
    (["check", "conjecture2", "--n", "3"], PRINTS),
    (["check", "orbits", "--n", "4", "--k", "1"], PRINTS),
]


def _command(argv):
    return tuple(x for x in argv[:2] if not x.startswith("-"))


def test_format_table_covers_every_command_and_format():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands, formats = set(), set()
    for name, p in sub.choices.items():
        positional = [a for a in p._actions if not a.option_strings and a.choices]
        commands |= {(name, c) for a in positional for c in a.choices} or {(name,)}
        formats |= {c for a in p._actions if "--format" in a.option_strings for c in a.choices}
    assert {_command(argv) for argv, _ in FORMAT_TABLE} == commands
    assert formats == set(FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv, prints", FORMAT_TABLE, ids=[" ".join(_command(a)) for a, _ in FORMAT_TABLE]
)
def test_each_format_prints_or_is_a_usage_error(capsys, argv, prints, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    if fmt in prints:
        assert code == 0 and out.strip() and err == ""
    else:
        assert (code, out) == (2, "")
        assert err == f"error: usage: {fmt} format not available for this command\n"


@pytest.mark.parametrize("command", [("chow", "dims"), ("matroid", "flats")])
def test_an_unwritten_format_is_refused_before_any_work(capsys, monkeypatch, command):
    def refuse(self):
        raise AssertionError("the flats were computed")

    monkeypatch.setattr(LinearMatroid, "_flat_masks", refuse)
    code, out, err = run(capsys, *command, "--lambda", "4,1,1", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: usage: csv format not available for this command\n"


def test_chow_presentation_text_is_its_macaulay2_text(capsys):
    command = ("chow", "presentation", "--lambda", "2,2")
    code, text, _ = run(capsys, *command)
    assert code == 0
    assert run(capsys, *command, "--format", "macaulay2-text") == (0, text, "")


def test_flats_render_each_label_once(capsys, monkeypatch):
    calls = []
    real = combinatorics.format_word

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(combinatorics, "format_word", counting)
    monkeypatch.setattr(cli, "format_word", counting)
    code, out, _ = run(capsys, "matroid", "flats", "--lambda", "3,1,1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 314
    assert 0 < len(calls) <= 20  # |E| = 20 columns
