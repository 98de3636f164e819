import hashlib
import json
import warnings

import numpy as np
import pytest

from misdpkit import cli, formulations, problems
from misdpkit.cbf import export_cbf, import_cbf
from misdpkit.model import export_json, import_json


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.dimacs"
    path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    return str(path)


def run(argv):
    return cli.main(argv)


class TestBuild:
    def test_stable_set_cbf(self, c5, tmp_path, capsys):
        out = tmp_path / "m.cbf"
        assert run(["build", "stable-set", "--graph", c5, "--out", str(out)]) == 0
        m = import_cbf(out.read_text())
        assert len(m.pencils) == 1 and m.pencils[0].order == 6
        assert "pencils=1 (orders 6)" in capsys.readouterr().err

    def test_truncated_dimacs_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cut.dimacs"
        path.write_text("p edge 3 2\ne 1 2\ne 2\n")
        assert run(["build", "stable-set", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: line 3: bad edge line 'e 2'"]

    @pytest.mark.parametrize("argv, text, message", [
        (["build", "qbpp", "--instance"], '{"weights": [1, 2]}', "error: missing field 'capacity'"),
        (["build", "sils", "--instance"], "M = [[1]]\n", "error: line 1: Expecting value"),
        (["scheme", "--mats"], '{"mats": []}', "error: missing field 'matrices'"),
        (["build", "sils", "--instance"], '{"M": [[1, "a"], [0, 1]], "b": [1, 0], "K": 1}',
         "error: field 'M' holds 'a', not a finite number"),
        (["build", "sils", "--instance"], '{"M": [[1, 0], [0, 1]], "b": [1, 0], "K": 1.5}',
         "error: field 'K' holds 1.5, not an integer"),
        (["build", "completion", "--instance"],
         '{"shape": [2, 2], "observed": [[0, 0, "x"]], "domain": {"values": [0, 1]}}',
         "error: field 'observed' holds 'x', not a finite number"),
        (["build", "completion", "--instance"],
         '{"shape": [2.0, 2], "domain": {"lo": 0, "hi": 1}}',
         "error: field 'shape' holds 2.0, not an integer"),
        (["build", "completion", "--instance"],
         '{"shape": [2, 2], "observed": [[0.5, 1, 1]], "domain": {"values": [0, 1]}}',
         "error: field 'observed' holds an index that is not an integer"),
        (["build", "qcqp", "--instance"], '{"n": 2, "Q0": [[0, "1"], [1, 0]]}',
         "error: field 'Q0' holds '1', not a finite number"),
        (["build", "qmp1", "--instance"], '{"n": 2, "k": 2, "partition": "no"}',
         "error: field 'partition' holds 'no', not a boolean"),
        (["build", "qmp2", "--instance"], '{"n": 2.9, "k": 2}',
         "error: field 'n' holds 2.9, not an integer"),
        # the builders' reader refuses what the file readers let through
        (["build", "sils", "--instance"], '{"M": [[1, 0], [1]], "b": [1, 0], "K": 1}', "error: M is ragged"),
        (["build", "qbpp", "--instance"],
         '{"weights": [1, 1], "capacity": 2, "bin_cost": 1, "dissimilarity": [[0, 1], [2, 0]]}',
         "error: dissimilarity must be symmetric"),
        (["build", "qmkp", "--instance"],
         '{"weights": [1, 1], "capacities": [2], "profits": [1, 1], "revenue": [[0, 1], [2, 0]]}',
         "error: revenue must be symmetric"),
        (["build", "qcqp", "--instance"], '{"n": 2, "Q0": [[0, 1], [2, 0]]}',
         "error: malformed data: Q0 must be symmetric"),
        (["build", "qmp2", "--instance"], '{"n": 2, "k": 1, "constraints": [{"Q": [[0, 1], [2, 0]], "d": 0}]}',
         "error: malformed data: Q_i must be symmetric"),
        (["build", "qap", "--qaplib"], "2\n0 1\n2 0\n0 1\n1 0\n", "error: A must be symmetric"),
    ])
    def test_bad_instance_file_exit_code(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert run(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize("problem, text", [
        ("qcqp", '{"n": 2, "Q0": [[0, 1e308], [1e308, 0]]}'),
        ("qbpp", '{"weights": [1, 1], "capacity": 2, "bin_cost": 1, "dissimilarity": [[0, 1e308], [1e308, 0]]}'),
    ])
    def test_unexportable_model_exit_code(self, tmp_path, capsys, problem, text):
        # the build doubles 1e308 into an infinite objective coefficient
        path = tmp_path / "inst.json"
        path.write_text(text)
        out = tmp_path / "m.cbf"
        assert run(["build", problem, "--instance", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: model has defects: [\"objective: infinite coefficient of 'X[0,1]'\"]"]

    @pytest.mark.parametrize("argv, message", [
        (["stable-set"], "error: build stable-set needs --graph"),
        (["qap"], "error: build qap needs --qaplib"),
        (["tsp-lee"], "error: build tsp-lee needs --dist"),
        (["qcqp"], "error: build qcqp needs --instance"),
        (["completion"], "error: build completion needs --instance"),
        (["gpp"], "error: build gpp needs --graph and --sizes"),
        (["gpp", "--graph", "C5"], "error: build gpp needs --sizes"),
        (["gpp", "--graph", "C5", "--sizes", "2,x"], "error: --sizes must be comma-separated integers, got '2,x'"),
        (["kep-assoc", "--graph", "C5", "--k", "0"], "error: need k >= 1, got k=0"),
    ])
    def test_argument_error_exit_code(self, c5, capsys, argv, message):
        assert run(["build", *(c5 if a == "C5" else a for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run(["build", "qbpp", "--instance", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: [Errno 2] No such file or directory: '{missing}'"]

    def test_mistyped_instance_field_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"weights": "ab", "capacity": 1, "bin_cost": 1, "dissimilarity": [[0]]}')
        assert run(["build", "qbpp", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: field 'weights' must be a list, got 'ab'"]

    def test_negative_bin_cost_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"weights": [1, 1], "capacity": 2, "bin_cost": -1, "dissimilarity": [[0, 1], [1, 0]]}')
        assert run(["build", "qbpp", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: bin_cost must be nonnegative, got -1: z is unbounded"]

    def test_sils_past_int64_is_exact(self, tmp_path, capsys):
        # M^T M and ||b||^2 in Python ints: X[0,0] weighs (2^80 + 1) / 2, not a wrapped 1/2
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"M": [[2**40, 1], [1, 2**40]], "b": [2**40, 3], "K": 1}))
        out = tmp_path / "m.json"
        assert run(["build", "sils", "--instance", str(path), "--out", str(out), "--format", "json"]) == 0
        objective = json.loads(out.read_text())["objective"]
        assert dict(objective["coeffs"])["X[0,0]"] == f"{2**80 + 1}/2"
        assert objective["constant"] == f"{2**80 + 9}/2"

    def test_tsp_lee_counts(self, tmp_path, capsys):
        dist = tmp_path / "d.txt"
        dist.write_text("5\n" + "\n".join(" ".join("0" if i == j else "1" for j in range(5)) for i in range(5)) + "\n")
        out = tmp_path / "lee.json"
        assert run(["build", "tsp-lee", "--dist", str(dist), "--out", str(out), "--format", "json"]) == 0
        m = import_json(out.read_text())
        assert len(m.pencils) == 2 and all(p.order == 5 for p in m.pencils)
        assert len(m.rows) == 10  # one cover row per vertex pair

    def test_qap_pencil_order(self, tmp_path, capsys):
        inst = tmp_path / "qap.dat"
        inst.write_text("3\n0 1 2\n1 0 1\n2 1 0\n\n0 1 1\n1 0 1\n1 1 0\n")
        out = tmp_path / "qap.json"
        assert run(["build", "qap", "--qaplib", str(inst), "--out", str(out), "--format", "json"]) == 0
        m = import_json(out.read_text())
        assert m.pencils[0].order == 9  # 3n

    def test_qcqp_instance_json(self, tmp_path):
        inst = tmp_path / "q.json"
        inst.write_text(json.dumps({
            "n": 2,
            "c0": [-1, -1],
            "quads": [{"Q": [[0, 1], [1, 0]], "d": 0}],
        }))
        out = tmp_path / "q.cbf"
        assert run(["build", "qcqp", "--instance", str(inst), "--out", str(out)]) == 0
        assert "INT" in out.read_text()

    def test_qcqp_instance_with_a_401_digit_integer(self, tmp_path):
        big = 10**400
        inst = tmp_path / "q.json"
        inst.write_text('{"n": 2, "c0": [-1, -1], "Q0": [[%d, 0], [0, 1]],'
                        ' "quads": [{"Q": [[0, 1], [1, 0]], "d": 0}]}' % big)
        out = tmp_path / "q.cbf"
        assert run(["build", "qcqp", "--instance", str(inst), "--out", str(out)]) == 0
        assert import_cbf(out.read_text()).objective.coeffs["x[0]"] == big - 1

    def test_qcqp_instance_with_a_5001_digit_integer_exit_code(self, tmp_path, capsys):
        # past the interpreter's 4,300-digit limit on int conversion
        inst = tmp_path / "q.json"
        inst.write_text('{"n": 2, "c0": [-1, -1],\n "Q0": [[%s, 0], [0, 1]]}' % ("1" * 5001))
        out = tmp_path / "q.cbf"
        assert run(["build", "qcqp", "--instance", str(inst), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == ["error: line 2: integer of 5001 digits is too long"]

    def test_non_finite_instance_number_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "q.json"
        inst.write_text('{"n": 2, "c0": [-1, -1], "Q0": [[Infinity, 0], [0, 1]],'
                        ' "quads": [{"Q": [[0, 1], [1, 0]], "d": 0}]}')
        out = tmp_path / "q.cbf"
        assert run(["build", "qcqp", "--instance", str(inst), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == ["error: line 1: Infinity is not a finite number"]


_W4 = [[0, 3, 0, 1], [3, 0, 2, 0], [0, 2, 0, 5], [1, 0, 5, 0]]
_REVENUE = [[1, 2, 0], [2, 0, 1], [0, 1, 3]]
_QMKP = {"weights": [1, 2, 1], "capacities": [2, 3], "profits": [1, 0, 2], "revenue": _REVENUE}
_QMP2 = {"n": 3, "k": 2, "Q0": _REVENUE, "B0": [[1, 0], [0, -1], [2, 1]], "d0": 1,
         "constraints": [{"Q": [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "d": -1}], "partition": True}


def _w4_gpp():
    return problems.GppInstance.make(problems.Graph.make(4, [(0, 1), (0, 3), (1, 2), (2, 3)],
                                                         np.array(_W4)), 2, (2, 2))


# argv after `build`, the input file each reads, and the library model it must write
_BUILDS = [
    (["qmkp", "--instance"], json.dumps(_QMKP),
     lambda: problems.build_qmkp([1, 2, 1], [2, 3], [1, 0, 2], np.array(_REVENUE))),
    (["qmp2", "--instance"], json.dumps(_QMP2),
     lambda: formulations.build_bsdp_qmp2(formulations.Qmp2Instance(
         3, 2, np.array(_REVENUE), np.array([[1, 0], [0, -1], [2, 1]]), 1,
         constraints=[(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), None, -1)], partition=True))),
    (["tsp-qap", "--dist"], "4\n0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0\n",
     lambda: problems.build_tsp_qap(np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]))),
    (["kep-assoc", "--k", "2", "--graph"], "p edge 4 4\ne 1 2 3\ne 1 4 1\ne 2 3 2\ne 3 4 5\n",
     lambda: problems.build_kep_assoc(_w4_gpp())),
] + [
    (["gpp", "--variant", v, "--k", "2", "--sizes", "2,2", "--graph"],
     "p edge 4 4\ne 1 2 3\ne 1 4 1\ne 2 3 2\ne 3 4 5\n",
     lambda v=v: problems.build_gpp(_w4_gpp(), v))
    for v in problems.GPP_VARIANTS
]


class TestBuildBytes:
    @pytest.mark.parametrize("fmt", ["cbf", "json"])
    @pytest.mark.parametrize("argv, text, build", _BUILDS, ids=[
        "qmkp", "qmp2", "tsp-qap", "kep-assoc", *(f"gpp-{v}" for v in problems.GPP_VARIANTS)])
    def test_writes_the_library_model(self, tmp_path, capsys, argv, text, build, fmt):
        inp = tmp_path / "input"
        inp.write_text(text)
        out = tmp_path / f"m.{fmt}"
        assert run(["build", argv[0], *argv[1:], str(inp), "--out", str(out), "--format", fmt]) == 0
        writer = export_cbf if fmt == "cbf" else export_json
        assert out.read_text() == writer(build())
        assert capsys.readouterr().err.startswith("variables=")


class TestCheck:
    def test_j3(self, tmp_path, capsys):
        mat = tmp_path / "j3.txt"
        mat.write_text("3\n1 1 1\n1 1 1\n1 1 1\n")
        assert run(["check", "--matrix", str(mat), "--props", "psd,rank,decompose,triangle"]) == 0
        out = capsys.readouterr().out
        assert "psd: True" in out and "rank: 1" in out and "{0,1,2}" in out

    def test_counterexample_matrix(self, tmp_path, capsys):
        mat = tmp_path / "y.txt"
        mat.write_text("3\n2 0.5 0.5\n0.5 0.5 0.5\n0.5 0.5 0.5\n")
        assert run(["check", "--matrix", str(mat), "--props", "psd,rank,decompose"]) == 0
        out = capsys.readouterr().out
        assert "psd: True" in out and "rank: 2" in out and "binary: False" in out

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_entry_exit_code(self, tmp_path, capsys, entry):
        mat = tmp_path / "bad.txt"
        mat.write_text(f"2\n1 {entry}\n{entry} 1\n")
        assert run(["check", "--matrix", str(mat)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: line 2: entry '{entry}' is not a finite number"]

    def test_overflowing_norm_prints_one_line(self, tmp_path, capsys):
        mat = tmp_path / "huge.txt"
        mat.write_text("2\n1 1e200\n1e200 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check", "--matrix", str(mat)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_integer_matrix_is_decided_exactly(self, tmp_path, capsys):
        # det -1: indefinite and of rank 2, though lambda_min = -1e-8 is
        # inside the float test's tolerance
        mat = tmp_path / "tight.txt"
        mat.write_text("2\n1 10000\n10000 99999999\n")
        assert run(["check", "--matrix", str(mat), "--props", "psd,rank"]) == 0
        out = capsys.readouterr().out
        assert "psd: False" in out and "rank: 2" in out

    def test_order_zero_sign_vector(self, tmp_path, capsys):
        # the empty matrix is s s^T of the empty sign vector, as it is the
        # empty packing and has no ternary block
        mat = tmp_path / "zero.txt"
        mat.write_text("0\n")
        assert run(["check", "--matrix", str(mat), "--props", "pm1,decompose,ternary"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sign_vector: []" in out and "binary: True" in out and "ternary_blocks: []" in out

    def test_not_psd(self, tmp_path, capsys):
        mat = tmp_path / "bad.txt"
        mat.write_text("2\n1 1\n1 0\n")
        assert run(["check", "--matrix", str(mat), "--props", "psd"]) == 0
        assert "psd: False" in capsys.readouterr().out


class TestEnumerateCount:
    def test_count(self, capsys):
        assert run(["count", "--n", "3", "--r", "3"]) == 0
        assert capsys.readouterr().out.strip() == "15"
        assert run(["count", "--n", "10", "--r", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1024"

    def test_enumerate(self, capsys):
        assert run(["enumerate", "--n", "2", "--r", "2", "--format", "packings"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 5
        assert "count: 5" in captured.err

    def test_size_limit_exit_code(self, capsys):
        assert run(["enumerate", "--n", "9", "--r", "2"]) == 2

    def test_rank_zero_agrees_with_count(self, capsys):
        assert run(["count", "--n", "3", "--r", "0"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert run(["enumerate", "--n", "3", "--r", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "3\n0 0 0\n0 0 0\n0 0 0\n\n" and "count: 1" in captured.err
        assert run(["enumerate", "--n", "3", "--r", "0", "--format", "packings"]) == 0
        assert capsys.readouterr().out == "3; \n"
        for r in ("-1", "4"):
            assert run(["enumerate", "--n", "3", "--r", r]) == 2
            assert "need 0 <= r <= n" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, digest", [
        ("matrices", "8a4e8e402880d3496d2efb3e3445790fe3e4a7e2f406bb44f7a1dc53a79a4964"),
        ("packings", "482f40c85d6b65ca0fb253a8c6b901f5134d48671e7f9bb26fc39deece4051f6"),
    ])
    def test_enumerate_bytes(self, fmt, digest, capsys):
        # every 1 <= r <= n <= 5 in one digest, as printed when each packing was
        # read back from its matrix by decompose01; r = 0 prints the zero matrix
        h = hashlib.sha256()
        for n in range(1, 6):
            assert run(["enumerate", "--n", str(n), "--r", "0", "--format", fmt]) == 0
            zero = f"{n}\n" + f"{' '.join(['0'] * n)}\n" * n + "\n" if fmt == "matrices" else f"{n}; \n"
            assert capsys.readouterr().out == zero
            for r in range(1, n + 1):
                assert run(["enumerate", "--n", str(n), "--r", str(r), "--format", fmt]) == 0
                h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest


class TestVerify:
    def test_suite_pass_and_report(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        assert run(["verify", "--suite", "kep-gep-vs-assoc", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(ln)["match"] for ln in lines)
        assert "PASS" in capsys.readouterr().out

    def test_all_suites_at_seed_1_report_bytes(self, tmp_path):
        # seed 0 is pinned suite by suite in test_verify
        out = tmp_path / "reports.jsonl"
        assert run(["verify", "--suite", "all", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f2a9951ce12d1afec25e0fcd7b61cb9820d5f9dcbab2ac4a12d1a743608ad9ca"
        )


class TestScheme:
    def test_cycle(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["scheme", "--cycle", "5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["r"] == 2

    def test_bad_mats_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrices": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        ]}))
        assert run(["scheme", "--mats", str(bad)]) == 2
        assert "axiom" in capsys.readouterr().err

    def test_deep_mats_exit_code(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"matrices": ' + "[" * 100000 + "]" * 100000 + "}")
        assert run(["scheme", "--mats", str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: JSON nesting is too deep"]


    @pytest.mark.parametrize("argv, message", [
        (["--cycle", "0"], "error: the cycle distance scheme is built here for odd n only"),
        (["--kep", "-1", "2"], "error: need m >= 1 and k >= 1, got m=-1, k=2"),
        (["--kep", "2", "0"], "error: need m >= 1 and k >= 1, got m=2, k=0"),
    ])
    def test_bad_source_exit_code(self, capsys, argv, message):
        # --cycle 0 was read as no source and ended in a TypeError traceback
        assert run(["scheme", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize("argv, message", [
        ([], "one of the arguments --cycle --kep --mats is required"),
        (["--cycle", "5", "--kep", "2", "2"], "argument --kep: not allowed with argument --cycle"),
    ])
    def test_source_is_one_option_exit_code(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(["scheme", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err


class TestConvert:
    def test_cbf_json_cycle(self, c5, tmp_path):
        cbf_path = tmp_path / "m.cbf"
        run(["build", "stable-set", "--graph", c5, "--out", str(cbf_path)])
        json_path = tmp_path / "m.json"
        assert run(["convert", str(cbf_path), str(json_path)]) == 0
        back = tmp_path / "m2.cbf"
        assert run(["convert", str(json_path), str(back)]) == 0
        assert back.read_text() == cbf_path.read_text()

    def test_cbf_with_leading_comments(self, c5, tmp_path):
        # the format is read off the first line that is neither blank nor a comment
        cbf_path = tmp_path / "m.cbf"
        run(["build", "stable-set", "--graph", c5, "--out", str(cbf_path)])
        commented = tmp_path / "commented.cbf"
        commented.write_text("# stable set of C5\n\n  # second comment\n" + cbf_path.read_text())
        plain, with_comments = tmp_path / "plain.json", tmp_path / "commented.json"
        assert run(["convert", str(cbf_path), str(plain)]) == 0
        assert run(["convert", str(commented), str(with_comments)]) == 0
        assert with_comments.read_text() == plain.read_text()

    def test_malformed_json_model_exit_code(self, c5, tmp_path, capsys):
        json_path = tmp_path / "m.json"
        run(["build", "stable-set", "--graph", c5, "--out", str(json_path), "--format", "json"])
        json_path.write_text(json_path.read_text().replace('"rel":"=="', '"rel":"<"', 1))
        capsys.readouterr()
        assert run(["convert", str(json_path), str(tmp_path / "m.cbf")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: malformed data: bad relation '<'"]

    @pytest.mark.parametrize("old, new, token", [
        ('"const":[[0,0,1]]', '"const":[[0,0,Infinity]]', "Infinity"),
        ('"constant":0,', '"constant":NaN,', "NaN"),
    ], ids=["pencil-constant", "objective-constant"])
    def test_non_finite_model_number_exit_code(self, c5, tmp_path, capsys, old, new, token):
        json_path = tmp_path / "m.json"
        run(["build", "stable-set", "--graph", c5, "--out", str(json_path), "--format", "json"])
        text = json_path.read_text()
        assert old in text
        json_path.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        out = tmp_path / "m.cbf"
        assert run(["convert", str(json_path), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [f"error: line 1: {token} is not a finite number"]

    def test_deep_json_exit_code(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "m.cbf"
        assert run(["convert", str(deep), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == ["error: JSON nesting is too deep"]

    def test_finite_set_with_gaps_to_cbf_exit_code(self, tmp_path, capsys):
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps({
            "format": "misdpkit-model",
            "version": 2,
            "variables": [["u", {"kind": "finite_set", "values": [-1, 0, 2]}]],
            "objective": {"sense": "min", "coeffs": [["u", 1]], "constant": 0},
            "rows": [],
            "pencils": [],
        }))
        out = tmp_path / "m.cbf"
        assert run(["convert", str(json_path), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: finite_set domain of 'u' has gaps, which CBF bound rows cannot express"
        ]

    def test_bad_cbf_exit_code(self, c5, tmp_path, capsys):
        cbf_path = tmp_path / "m.cbf"
        run(["build", "stable-set", "--graph", c5, "--out", str(cbf_path)])
        cbf_path.write_text(cbf_path.read_text().replace("INT\n5\n0\n", "INT\n5\nx\n", 1))
        capsys.readouterr()
        assert run(["convert", str(cbf_path), str(tmp_path / "m.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: line ") and "INT index" in captured.err


class TestCliConfig:
    def test_budget_must_be_positive(self, capsys):
        assert run(["verify", "--suite", "gpp-cross", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_reaches_the_suite(self, capsys):
        assert run(["verify", "--suite", "qap-random", "--budget", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: integer space exceeds budget 1"]

    def test_negative_seed_is_refused(self, capsys):
        # numpy refuses a negative generator seed; the CLI refuses it first
        assert run(["verify", "--suite", "qap-random", "--seed", "-5000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: suite seed must be non-negative"]

    def test_unknown_suite_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "invalid choice: 'nope'" in errors[0]
        assert "Traceback" not in err

    def test_seed_offset_changes_instances(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run(["verify", "--suite", "qbpp-random", "--out", str(a)]) == 0
        assert run(["verify", "--suite", "qbpp-random", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()
        # default seed reproduces byte-identical reports
        c = tmp_path / "c.jsonl"
        assert run(["verify", "--suite", "qbpp-random", "--out", str(c)]) == 0
        assert a.read_text() == c.read_text()
