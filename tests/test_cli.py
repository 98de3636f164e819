import json

import pytest

from misdpkit import cli
from misdpkit.cbf import import_cbf
from misdpkit.model import import_json


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


class TestVerify:
    def test_suite_pass_and_report(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        assert run(["verify", "--suite", "kep-gep-vs-assoc", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(ln)["match"] for ln in lines)
        assert "PASS" in capsys.readouterr().out


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


class TestConvert:
    def test_cbf_json_cycle(self, c5, tmp_path):
        cbf_path = tmp_path / "m.cbf"
        run(["build", "stable-set", "--graph", c5, "--out", str(cbf_path)])
        json_path = tmp_path / "m.json"
        assert run(["convert", str(cbf_path), str(json_path)]) == 0
        back = tmp_path / "m2.cbf"
        assert run(["convert", str(json_path), str(back)]) == 0
        assert back.read_text() == cbf_path.read_text()


class TestCliConfig:
    def test_budget_must_be_positive(self, capsys):
        assert run(["verify", "--suite", "gpp-cross", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err

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
