"""Command-line surface: records, round-trips, sweeps, exit codes."""

import csv
import io
import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from conic_walks.cli import CSV_HEADER, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, QUERY_COLUMNS, main
from conic_walks.formulas import FUNCTIONALS


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExact:
    def test_wendel(self):
        code, text = run_cli("exact", "--functional", "wendel", "--n", "4", "--d", "3")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"] == {"num": "7", "den": "8", "approx": 0.875}
        assert rec["status"] == "ok"

    def test_face_count_example(self):
        code, text = run_cli("exact", "--model", "A", "--functional", "fk",
                             "--n", "4", "--d", "2", "--k", "1")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"]["num"] == "11" and rec["exact"]["den"] == "6"

    def test_intrinsic_volume_sweep(self):
        code, text = run_cli("exact", "--model", "B", "--functional", "vk",
                             "--n", "2", "--d", "2", "--k", "0..2")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in text.strip().splitlines()]
        got = [(r["exact"]["num"], r["exact"]["den"]) for r in rows]
        assert got == [("3", "8"), ("1", "2"), ("1", "8")]

    def test_sweep_with_symbolic_bound(self):
        code, text = run_cli("exact", "--model", "B", "--functional", "vk",
                             "--n", "3", "--d", "2", "--k", "0..d")
        assert code == EXIT_OK
        assert len(text.strip().splitlines()) == 3

    def test_shorthand_functional(self):
        code, text = run_cli("exact", "--model", "A", "--functional", "f1",
                             "--n", "4", "--d", "2")
        assert code == EXIT_OK
        assert json.loads(text.strip())["exact"]["num"] == "11"

    @pytest.mark.parametrize("canonical, spellings", [
        ("fk --k 1", ["FK --k 1", "Fk --k 1", "f1", "F1"]),
        ("vk --k 0", ["VK --k 0", "v0", "V0"]),
        ("Uk --k 2", ["U2", "u2"]),
    ])
    def test_names_match_in_any_case(self, canonical, spellings):
        base = ("exact", "--model", "B", "--n", "5", "--d", "3", "--functional")
        expected = run_cli(*base, *canonical.split())
        assert expected[0] == EXIT_OK
        for spelling in spellings:
            assert run_cli(*base, *spelling.split()) == expected

    def test_csv_format_and_round_trip(self):
        code, text = run_cli("exact", "--model", "B", "--functional", "vk",
                             "--n", "2", "--d", "2", "--k", "0..2", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_HEADER
        rec = dict(zip(CSV_HEADER, rows[1]))
        assert rec["exact_num"] == "3" and rec["exact_den"] == "8"
        assert rec["functional"] == "vk" and rec["k"] == "0"
        assert rec["indices"] == rec["mean"] == "" and rec["status"] == "ok"

    def test_json_round_trip(self):
        code, text = run_cli("exact", "--model", "B", "--functional", "face_prob",
                             "--n", "3", "--d", "2", "--indices", "1")
        rec = json.loads(text)
        assert json.dumps(rec, sort_keys=True) == text.strip()
        assert rec["query"]["indices"] == [1]

    def test_csv_query_columns_are_the_json_query_keys(self):
        args = ("--functional", "joint_absorption", "--walks", "1,2", "--bridges", "2", "--d", "2")
        _, text = run_cli("exact", *args)
        _, table = run_cli("exact", *args, "--format", "csv")
        query = json.loads(text)["query"]
        header, row = list(csv.reader(io.StringIO(table)))
        assert tuple(header[:len(QUERY_COLUMNS)]) == QUERY_COLUMNS
        assert set(QUERY_COLUMNS) == set(query)
        cells = dict(zip(header, row))
        assert cells["walks"] == "1 2" and query["walks"] == [1, 2]

    def test_joint_absorption(self):
        code, text = run_cli("exact", "--functional", "joint_absorption",
                             "--walks", "1", "--bridges", "2", "--d", "1")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"]["num"] == "1" and rec["exact"]["den"] == "2"

    def test_joint_absorption_in_huge_dimension(self):
        code, text = run_cli("exact", "--functional", "joint_absorption",
                             "--walks", "1", "--bridges", "2", "--d", "1000000000")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"]["num"] == "0" and rec["exact"]["den"] == "1"

    def test_sweep_fails_at_the_first_bad_index(self, capsys):
        # the queries are built one at a time, not all before the first runs
        start = time.perf_counter()
        code, text = run_cli("exact", "--model", "A", "--functional", "vk",
                             "--n", "4", "--d", "2", "--k", "0..1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert text == ""
        assert "k=3" in capsys.readouterr().err

    def test_dual_flag(self):
        code, text = run_cli("exact", "--model", "A", "--functional", "Y",
                             "--n", "3", "--d", "2", "--m", "2", "--l", "0", "--dual")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["query"]["functional"] == "Y_dual" and "dual" not in rec["query"]
        assert rec["exact"]["num"] == "1" and rec["exact"]["den"] == "2"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_dual_spellings_print_one_record(self, fmt):
        base = ("exact", "--model", "A", "--n", "3", "--d", "2", "--m", "2", "--l", "0",
                "--format", fmt)
        outputs = {run_cli(*base, "--functional", name, *flag)
                   for name, flag in [("Y", ["--dual"]), ("Y_dual", []), ("Y_dual", ["--dual"])]}
        assert len(outputs) == 1
        code, text = outputs.pop()
        assert code == EXIT_OK and "Y_dual" in text

    def test_dual_flag_rejected_elsewhere(self, capsys):
        code, text = run_cli("exact", "--model", "A", "--functional", "fk",
                             "--n", "4", "--d", "2", "--k", "1", "--dual")
        assert code == EXIT_USAGE
        assert text == ""
        assert "--dual" in capsys.readouterr().err

    def test_shorthand_with_k_exits_usage(self, capsys):
        code, text = run_cli("exact", "--model", "A", "--functional", "f1",
                             "--n", "4", "--d", "2", "--k", "0")
        assert code == EXIT_USAGE
        assert text == ""
        assert "--k" in capsys.readouterr().err

    def test_unknown_functional_lists_the_registry(self, capsys):
        code, _ = run_cli("exact", "--functional", "xyz")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown functional 'xyz'" in err
        assert all(repr(name) in err for name in FUNCTIONALS)

    def test_violated_hypothesis_exits_usage(self):
        code, _ = run_cli("exact", "--model", "A", "--functional", "Y",
                          "--n", "4", "--d", "2", "--m", "2", "--l", "0")
        assert code == EXIT_USAGE

    def test_missing_model_exits_usage(self):
        code, _ = run_cli("exact", "--functional", "fk", "--k", "1")
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_usage(self):
        code, _ = run_cli("exact", "--functional", "wendel", "--n", "4", "--d", "3",
                          "--frobnicate")
        assert code == EXIT_USAGE

    def test_undeclared_index_exits_usage(self, capsys):
        code, text = run_cli("exact", "--model", "A", "--functional", "absorption",
                             "--n", "4", "--d", "2", "--k", "0..2")
        assert code == EXIT_USAGE
        assert text == ""
        assert "takes no 'k'" in capsys.readouterr().err

    def test_large_n_absorption_split_is_exact(self):
        # row n = 10^4 from the first d+2 coefficients of its root product;
        # a full triangle of that size would take minutes and gigabytes
        # and its numbers have more digits than str/int convert by default
        args = ("--model", "B", "--n", "10000", "--d", "10")
        records = []
        for name in ("absorption", "nonabsorption"):
            code, text = run_cli("exact", "--functional", name, *args)
            assert code == EXIT_OK
            records.append(json.loads(text)["exact"])
        assert len(records[0]["den"]) > 4300
        values = [Fraction(Decimal(e["num"])) / Fraction(Decimal(e["den"])) for e in records]
        assert values[0] + values[1] == 1
        assert 0 < values[1] < 1

    @pytest.mark.parametrize("flags, named", [
        (("--model", "B", "--functional", "fk", "--n", "3", "--d", "2", "--k", "x"), "--k"),
        (("--model", "B", "--functional", "fk", "--n", "3", "--d", "2", "--k", "0..x"), "--k"),
        (("--model", "B", "--functional", "face_prob", "--n", "3", "--d", "3",
          "--indices", "1,a"), "--indices"),
        (("--functional", "joint_absorption", "--d", "1", "--walks", "2,b"), "--walks"),
        (("--functional", "joint_absorption", "--d", "1", "--bridges", "3,"), "--bridges"),
    ])
    def test_malformed_integer_exits_usage(self, flags, named, capsys):
        code, _ = run_cli("exact", *flags)
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err


class TestSimulate:
    def test_seeded_runs_are_byte_identical(self):
        args = ("simulate", "--model", "B", "--functional", "f1", "--n", "3",
                "--d", "2", "--samples", "4000", "--seed", "7")
        code_a, text_a = run_cli(*args)
        code_b, text_b = run_cli(*args)
        assert code_a == code_b == EXIT_OK
        assert text_a == text_b
        rec = json.loads(text_a.strip())
        assert abs(rec["estimate"]["z"]) <= 4

    def test_estimate_includes_exact_reference(self):
        code, text = run_cli("simulate", "--model", "A", "--functional", "absorption",
                             "--n", "4", "--d", "2", "--samples", "4000", "--seed", "1")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"]["num"] == "1" and rec["exact"]["den"] == "12"
        assert rec["estimate"]["samples"] == 4000

    def test_env_var_seed(self, monkeypatch):
        monkeypatch.setenv("CONIC_WALKS_SEED", "123")
        args = ("simulate", "--model", "B", "--functional", "nonabsorption",
                "--n", "2", "--d", "1", "--samples", "2000")
        _, text_env = run_cli(*args)
        _, text_explicit = run_cli(*args, "--seed", "123")
        assert text_env == text_explicit

    def test_malformed_env_var_seed_exits_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("CONIC_WALKS_SEED", "abc")
        code, _ = run_cli("simulate", "--model", "B", "--functional", "nonabsorption",
                          "--n", "2", "--d", "1", "--samples", "100")
        assert code == EXIT_USAGE
        assert "CONIC_WALKS_SEED" in capsys.readouterr().err

    def test_face_intrinsic_at_m_equal_d_is_zero(self):
        code, text = run_cli("simulate", "--model", "A", "--n", "4", "--d", "2",
                             "--functional", "face_intrinsic", "--m", "2", "--l", "1",
                             "--samples", "200", "--seed", "1")
        assert code == EXIT_OK
        rec = json.loads(text.strip())
        assert rec["exact"]["num"] == "0"
        assert rec["estimate"]["mean"] == rec["estimate"]["stderr"] == 0.0

    def test_worker_flag_does_not_change_bytes(self):
        args = ("simulate", "--model", "B", "--functional", "nonabsorption",
                "--n", "2", "--d", "1", "--samples", "6000", "--seed", "5")
        _, serial = run_cli(*args, "--workers", "1")
        _, parallel = run_cli(*args, "--workers", "2")
        assert serial == parallel


class TestVerify:
    def test_small_budget_skips_gates_but_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code, text = run_cli("verify", "--budget", "100", "--seed", "3",
                             "--out", str(out))
        assert code == EXIT_OK
        assert "mc gates: skipped" in text
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["summary"]["overall"] == "pass"

    def test_corruption_flag_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run_cli("verify", "--budget", "100", "--seed", "3",
                          "--out", str(out), "--inject-table-corruption")
        assert code == EXIT_VERIFY
        report = json.loads(out.read_text())
        assert report["summary"]["identities_failed"] >= 1

    def test_report_bytes_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--budget", "100", "--seed", "11", "--out", str(out_a))
        run_cli("verify", "--budget", "100", "--seed", "11", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
