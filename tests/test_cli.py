import collections
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import re
import sys
import tempfile
import time
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspidal import cli, cusps
from cuspidal.cli import run


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestCuspZero:
    def test_double_epw(self, capsys):
        code, out = invoke(
            capsys, ["cusp", "zero", "--d", "2", "--case", "split", "--mode", "both"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["zero_dim"]["formula"] == 1
        assert obj["zero_dim"]["enumerated"] == 1

    def test_usage_error_nonsplit_five(self, capsys):
        code, _ = invoke(capsys, ["cusp", "zero", "--d", "5", "--case", "nonsplit"])
        assert code == 2

    def test_unknown_flag_is_error(self, capsys):
        code, _ = invoke(capsys, ["cusp", "zero", "--d", "3", "--frobnicate"])
        assert code == 2

    def test_markdown_format(self, capsys):
        code, out = invoke(capsys, ["cusp", "zero", "--d", "3", "--format", "md"])
        assert code == 0 and out.startswith("|")

    @pytest.mark.parametrize("mode, cells", [
        ("formula", "| 3 |  |"), ("enumerate", "|  | 3 |"), ("both", "| 3 | 3 |"),
    ], ids=["formula", "enumerate", "both"])
    def test_markdown_leaves_a_count_not_run_empty(self, capsys, mode, cells):
        code, out = invoke(capsys, ["cusp", "zero", "--d", "12", "--mode", mode,
                                    "--format", "md"])
        assert code == 0 and "None" not in out
        assert out.splitlines()[2] == f"| 12 | split {cells} (1,0) (2,1) (4,1) |"
        # JSON keeps null
        code, out = invoke(capsys, ["cusp", "zero", "--d", "12", "--mode", mode])
        z = json.loads(out)["zero_dim"]
        assert (z["formula"], z["enumerated"]) == {
            "formula": (3, None), "enumerate": (None, 3), "both": (3, 3)}[mode]

    @pytest.mark.parametrize("mode, code, shown", [
        ("formula", 0, (4, None)), ("enumerate", 0, (None, 3)), ("both", 1, (4, 3)),
    ], ids=["formula", "enumerate", "both"])
    def test_mismatch_exits_one_only_under_both(self, capsys, monkeypatch, mode, code,
                                                shown):
        # a formula off by one at d = 12: only a printed pair can disagree
        formula = cusps.nu_formula
        monkeypatch.setattr(cusps, "nu_formula", lambda case: formula(case) + 1)
        got, out = invoke(capsys, ["cusp", "zero", "--d", "12", "--mode", mode])
        z = json.loads(out)["zero_dim"]
        assert got == code and (z["formula"], z["enumerated"]) == shown
        assert z["reps"] == [[1, 0], [2, 1], [4, 1]]

    @pytest.mark.parametrize("mode", ["both", "formula"])
    def test_group_beyond_bound_counted_prime_by_prime(self, capsys, mode):
        # |A_N| = 1,200,000 exceeds the bound; its p-parts have 128, 3 and 3125 elements
        code, out = invoke(capsys, ["cusp", "zero", "--d", "300000", "--mode", mode])
        assert code == 0
        z = json.loads(out)["zero_dim"]
        assert z["formula"] == len(z["reps"]) == 51
        assert z["enumerated"] == (51 if mode == "both" else None)

    @pytest.mark.parametrize("mode", ["both", "formula", "enumerate"])
    def test_prime_beyond_trial_division_names_the_bound(self, capsys, mode):
        # d = 2^61 - 1 is prime; trial division alone ran for minutes on it,
        # and its cyclic part of order d is counted without a scan
        d = 2**61 - 1
        code = run(["cusp", "zero", "--d", str(d), "--mode", mode])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        z = json.loads(captured.out)["zero_dim"]
        assert z["reps"] == [[1, 0], [2, 1]]
        assert z["formula"] == (2 if mode != "enumerate" else None)
        assert z["enumerated"] == (2 if mode != "formula" else None)

    @pytest.mark.parametrize("mode", ["both", "formula", "enumerate"])
    def test_prime_beyond_miller_rabin_names_the_bound(self, capsys, mode):
        # d = 2^89 - 1 is prime, above the bound where Miller-Rabin proves it
        d = 2**89 - 1
        code = run(["cusp", "zero", "--d", str(d), "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: factor {d} passes Miller-Rabin but exceeds its "
                                "proof bound 3317044064679887385961981\n")

    def test_rho_beyond_its_step_bound_names_the_bound(self, capsys):
        # two primes near 10^15: rho would need some 3 * 10^7 steps to split d
        d = 1000000000000037 * 2000000000000021
        code = run(["cusp", "zero", "--d", str(d)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: Pollard rho finds no factor of {d} within its "
                                "step bound 1048576\n")

    def test_primary_part_beyond_bound_names_the_bound(self, capsys):
        # d = 2^19: the 2-part Z/2 + Z/2^20 of A_N has 2^21 elements, but
        # only its cofactor Z/2 is scanned
        code = run(["cusp", "zero", "--d", "524288"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        z = json.loads(captured.out)["zero_dim"]
        # d = 2 * 512^2: d' = 2, so nu = (k + 2) // 2 = 257
        assert z["formula"] == z["enumerated"] == len(z["reps"]) == 257

    def test_more_classes_than_the_bound_names_the_bound(self, capsys):
        # d = 2^36 = 1 * (2^18)^2: nu = (k + 2) // 2 = 131,073 classes, which
        # the default bound lists and --bound 100000 refuses before listing
        code = run(["cusp", "zero", "--d", "68719476736", "--bound", "100000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: 131073 isotropic classes modulo +-1 exceed "
                                "enumeration bound 100000\n")


class TestSweep:
    def test_split_range(self, capsys):
        code, out = invoke(
            capsys, ["cusp", "sweep", "--d", "1..50", "--case", "split"]
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 50
        assert obj["mismatches"] == 0
        assert all(r["agree"] for r in obj["rows"])

    def test_nonsplit_single(self, capsys):
        code, out = invoke(
            capsys, ["cusp", "sweep", "--d", "3..3", "--case", "nonsplit"]
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 1 and obj["rows"][0]["formula"] == 1

    def test_empty_interval(self, capsys):
        code, _ = invoke(capsys, ["cusp", "sweep", "--d", "5..1"])
        assert code == 2

    def test_nonsplit_range_without_three_mod_four(self, capsys):
        # 4, 5 and 6 admit no non-split embedding: nothing would be checked
        code = run(["cusp", "sweep", "--d", "4..6", "--case", "nonsplit"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: sweep range '4..6' holds no d = 3 mod 4, "
                                "which the nonsplit embedding needs\n")

    def test_nonsplit_bound_counts_the_d_computed(self, capsys):
        # 3..50 holds 48 d but only the 12 with d = 3 mod 4 are computed
        code, out = invoke(capsys, ["cusp", "sweep", "--d", "3..50", "--case", "nonsplit",
                                    "--bound", "12"])
        assert code == 0
        assert [r["d"] for r in json.loads(out)["rows"]] == list(range(3, 51, 4))

    def test_rows_are_the_d_of_the_range(self, capsys):
        code, out = invoke(capsys, ["cusp", "sweep", "--d", "1..12"])
        assert code == 0
        obj = json.loads(out)
        assert [r["d"] for r in obj["rows"]] == list(range(1, 13))

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_out_file_holds_the_bytes_of_stdout(self, capsys, tmp_path, fmt):
        argv = ["cusp", "sweep", "--d", "1..60", "--format", fmt]
        code, out = invoke(capsys, argv)
        path = tmp_path / f"sweep.{fmt}"
        assert invoke(capsys, argv + ["--out", str(path)]) == (code, "")
        assert code == 0 and path.read_bytes() == out.encode("utf-8")

    def test_mismatches_are_counted_and_marked(self, capsys, monkeypatch):
        # a formula off by one at d = 3 and d = 6: exit 1, two rows marked
        formula = cusps.nu_formula
        monkeypatch.setattr(cusps, "nu_formula", lambda case: formula(case) + (case.d % 3 == 0))
        rows = []
        for d in range(1, 8):
            right = formula(cusps.PolarizationCase(d, "split"))
            rows.append({"agree": d % 3 != 0, "d": d, "embedding": "split",
                         "enumerated": right, "formula": right + (d % 3 == 0)})
        code, out = invoke(capsys, ["cusp", "sweep", "--d", "1..7"])
        assert code == 1
        assert out == json.dumps({"mismatches": 2, "rows": rows}, indent=2, sort_keys=True) + "\n"
        code, out = invoke(capsys, ["cusp", "sweep", "--d", "1..7", "--format", "md"])
        assert code == 1
        assert [line.endswith("| MISMATCH |") for line in out.splitlines()[2:]] == [
            not r["agree"] for r in rows]


class TestLat:
    def test_info(self, capsys):
        code, out = invoke(capsys, ["lat", "info", "U+U+E8+E8+<-2>+<-6>"])
        assert code == 0
        obj = json.loads(out)
        assert obj["rank"] == 22 and obj["det"] == 12
        assert obj["signature"] == [2, 20] and obj["even"]

    def test_disc(self, capsys):
        code, out = invoke(capsys, ["lat", "disc", "B3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["orders"] == [3] and obj["q"] == ["-2/3"]

    def test_bad_name(self, capsys):
        code, _ = invoke(capsys, ["lat", "info", "Z99"])
        assert code == 2


class TestJsonLabels:
    """A lattice JSON may carry a "labels" list, one per basis vector; it is
    validated and changes nothing that is printed."""

    def test_labels_change_no_output(self, capsys):
        golden = (GOLDEN / "lat_info_gram_U+A2.json").read_text(encoding="utf-8")
        code, out = invoke(capsys, ["lat", "info", str(GOLDEN / "gram_U+A2_labels.json")])
        assert code == 0 and out == golden
        gram = '"gram":[[0,1,0,0],[1,0,0,0],[0,0,-2,1],[0,0,1,-2]]'
        code, out = invoke(capsys, ["lat", "info", "{" + gram + ',"labels":[1,"v",null,[]]}'])
        assert code == 0 and out == golden

    @pytest.mark.parametrize("text, message", [
        ('{"gram":[[2,1],[1,2]],"labels":"ab"}', 'lattice JSON "labels" must be a list'),
        ('{"gram":[[2,1],[1,2]],"labels":["a"]}', "one label per basis vector required"),
        ('{"gram":[[2,1],[1,2]],"labels":["a","b","c"]}', "one label per basis vector required"),
        # the Gram is checked before the label count
        ('{"gram":[[2,1],[0,2]],"labels":["a"]}', "gram matrix must be symmetric"),
        ('{"gram":[[2,2],[2,2]],"labels":["a"]}', "gram matrix is degenerate"),
    ])
    def test_bad_labels_exit_two(self, capsys, text, message):
        code = run(["lat", "info", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestGlue:
    def test_roots(self, capsys):
        code, out = invoke(capsys, ["glue", "roots", "E8+E8+A1+A1"])
        assert code == 0
        obj = json.loads(out)
        assert obj["roots"] == "2E8+2A1" and obj["total_roots"] == 484

    def test_enum(self, capsys):
        code, out = invoke(
            capsys, ["glue", "enum", "--roots", "A3+A15", "--order", "4"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["base_det"] == 64
        assert all(g["order"] == 4 for g in obj["glues"])
        assert any(g["overlattice_det"] == 4 for g in obj["glues"])


class TestVerify:
    def test_example_c12(self, capsys):
        code, out = invoke(capsys, ["verify", "example-c12", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["all_ok"] is True

    def test_example_c12_markdown(self, capsys):
        code, out = invoke(capsys, ["verify", "example-c12"])
        assert code == 0 and "all_ok" in out

    def test_example_c12_isometry_search_takes_the_bound(self, capsys):
        # the complement's discriminant form has order 12
        code = run(["verify", "example-c12", "--bound", "11"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: group of order 12 exceeds enumeration bound 11\n"
        golden = (GOLDEN / "verify_example-c12.json").read_text(encoding="utf-8")
        assert invoke(capsys, ["verify", "example-c12", "--bound", "12",
                               "--format", "json"]) == (0, golden)


class TestDeterminism:
    def test_json_round_trip_byte_identical(self, capsys):
        code, out = invoke(capsys, ["cusp", "zero", "--d", "9"])
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_repeat_runs_identical(self, capsys):
        _, out1 = invoke(capsys, ["cusp", "zero", "--d", "12"])
        _, out2 = invoke(capsys, ["cusp", "zero", "--d", "12"])
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = invoke(capsys, ["cusp", "zero", "--d", "2", "--out", str(path)])
        assert code == 0 and out == ""
        obj = json.loads(path.read_text())
        assert obj["case"]["d"] == 2


class TestCandidatesFile:
    def test_cusp_one_with_explicit_candidates(self, capsys, tmp_path):
        cands = [{"roots": "2E8+2A1", "niemeier": "3E8"}, {"roots": "D18"}]
        path = tmp_path / "cands.json"
        path.write_text(json.dumps(cands))
        code, out = invoke(
            capsys,
            ["cusp", "one", "--d", "1", "--case", "split",
             "--candidates", str(path)],
        )
        assert code == 0
        obj = json.loads(out)
        rows = obj["one_dim"]["candidates"]
        assert len(rows) == 2
        assert all(r["genus_ok"] for r in rows)
        assert all(r["conditional"] for r in rows)
        assert obj["one_dim"]["total"] == sum(r["classes"] for r in rows)

    def test_rejected_candidate_exit_code(self, capsys, tmp_path):
        path = tmp_path / "cands.json"
        path.write_text(json.dumps([{"roots": "2A2+2D7"}]))
        code, out = invoke(
            capsys,
            ["cusp", "one", "--d", "1", "--candidates", str(path)],
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["one_dim"]["candidates"][0]["genus_ok"] is False


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, candidates, message",
        [
            (["lat", "info", "{bad"], None, "does not parse"),
            (["lat", "info", '{"rank":2}'], None, '"gram"'),
            (["lat", "info", '{"gram":[[2,1],[1]]}'], None, '"gram"'),
            (["lat", "info", '{"gram":[[1,2],[2,"x"]]}'], None, '"gram"'),
            (["lat", "info", "E9"], None, "cannot parse lattice term 'E9'"),
            (["lat", "disc", "<-3>"], None, "rank1(n) requires a nonzero even integer"),
            (["cusp", "one", "--d", "1"], [{}], "candidates file"),
            (["cusp", "one", "--d", "1"], {"roots": "D18"}, "candidates file"),
            (["cusp", "one", "--d", "1"], [{"roots": "E7+D10+A1", "glue": [[1]]}],
             "need 4 coordinates"),
            (["lat", "info", '{"gram":[[2]],"rank":true}'], None, "rank does not match"),
            (["glue", "enum", "--roots", "2A1+2D8", "--order", "0"], None,
             "--order must be a positive integer, got 0"),
            (["glue", "enum", "--roots", "2A1+2D8", "--order", "-2"], None,
             "--order must be a positive integer, got -2"),
            # the walk needs 64,944 attempts on 8A1
            (["glue", "enum", "--roots", "8A1", "--bound", "60000"], None,
             "isotropic subgroup search exceeds enumeration bound 60000"),
            # a negative value is no exact form: argparse parses it
            (["cusp", "zero", "--d", "-4"], None, "d must be a positive integer"),
            (["lat", "info", '{"gram":[[2,2],[2,2]]}'], None, "gram matrix is degenerate"),
            (["lat", "info", '{"gram":[[2,1],[0,2]]}'], None, "must be symmetric"),
            # refused before the list of every d is built
            (["cusp", "sweep", "--d", "1..50", "--bound", "10"], None,
             "sweep range '1..50' of 50 values exceeds enumeration bound 10"),
            # the search for the roots of E8 visits 729 nodes
            (["glue", "roots", "E8", "--bound", "100"], None,
             "short vector search exceeds enumeration bound 100"),
            (["lat", "info", "E8+A1(0)"], None, "lattice term 'A1(0)' has twist 0"),
            # a non-split sweep counts only the d = 3 mod 4 it computes
            (["cusp", "sweep", "--d", "3..50", "--case", "nonsplit", "--bound", "11"], None,
             "sweep range '3..50' of 12 values exceeds enumeration bound 11"),
            (["cusp", "sweep", "--d", f"1..{10**40}", "--case", "nonsplit"], None,
             f"of {10**40 // 4} values exceeds enumeration bound 1000000"),
            (["cusp", "sweep", "--d", "4..6", "--case", "nonsplit", "--bound", "1"], None,
             "sweep range '4..6' holds no d = 3 mod 4"),
        ],
    )
    def test_outside_input_exits_two(self, capsys, tmp_path, argv, candidates, message):
        if candidates is not None:
            path = tmp_path / "cands.json"
            path.write_text(json.dumps(candidates))
            argv = argv + ["--candidates", str(path)]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["lat", "info", "100000A1"],
        ["lat", "info", "A100000"],
        ["glue", "enum", "--roots", "999999999A1"],
    ])
    def test_name_rank_is_capped_before_any_gram(self, capsys, argv):
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: lattice name {argv[-1]!r} has rank above the cap 1000\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("mode", ["formula", "enumerate", "both"])
    def test_broken_invariant_exits_three(self, capsys, monkeypatch, mode):
        # every orbit representative becomes the non-isotropic class of t/2d;
        # the representatives are certified under every mode
        monkeypatch.setattr(cusps, "_rep_coefficients", lambda n, *order: (1, 0))
        code = run(["cusp", "zero", "--d", "4", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert captured.err.count("\n") == 1

    def test_broken_quotient_invariant_exits_three(self, capsys, monkeypatch):
        from cuspidal import fqf

        # no row has coordinates in the Hermite basis of H^perp any more
        monkeypatch.setattr(fqf, "hnf_coords", lambda basis, row: None)
        code = run(["glue", "enum", "--roots", "4A3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("internal error: sublattice is not contained "
                                "in the ambient lattice\n")

    def test_broken_glue_lift_exits_three(self, capsys, monkeypatch):
        from cuspidal import fqf

        # every glue lift gains e_0 over the level 2 of A_R, a root of A1 of
        # norm -2: the overlattice Gram is no longer integral, which no
        # accepted glue can cause
        lift = fqf.LatticeSource.scaled_lift

        def corrupt(self, x, level):
            v = lift(self, x, level)
            return (v[0] + 1,) + v[1:]

        monkeypatch.setattr(fqf.LatticeSource, "scaled_lift", corrupt)
        code = run(["glue", "enum", "--roots", "2A1+2D8", "--order", "4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "internal error: glue produces non-integral pairings\n"

    def test_induced_map_that_breaks_q_exits_three(self, capsys, monkeypatch):
        from cuspidal import glue

        # every class projects to 0, so Im tau is generated by the zero map
        # of A_E, which has no nonzero isotropic class
        monkeypatch.setattr(glue, "project_to_quotient", lambda source, x: (0, 0))
        code = run(["verify", "table1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "internal error: induced map does not preserve q\n"

    @pytest.mark.parametrize("d", [68719476736, 1125899906842624])
    def test_cusp_one_refuses_a_d_that_is_not_square_free_first(self, capsys,
                                                                 monkeypatch, d):
        # before any zero-dimensional representative is listed: 2^36 would
        # certify 131,073 of them, and 2^50 has more classes than the bound
        def refuse(*args):
            raise AssertionError("zero-dimensional report built")

        monkeypatch.setattr(cusps, "zero_dim_report", refuse)
        code = run(["cusp", "one", "--d", str(d)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: d = {d} is not square-free\n"


class TestCuspOneFlags:
    def test_genus_and_roots_reported_separately(self, capsys, tmp_path):
        # E7+D10+A1 glued by (1,0,0,1) is E8+D10: right genus, wrong roots
        path = tmp_path / "cands.json"
        path.write_text(json.dumps([{"roots": "E7+D10+A1", "glue": [[1, 0, 0, 1]]}]))
        code, out = invoke(capsys, ["cusp", "one", "--d", "1", "--candidates", str(path)])
        assert code == 1
        row = json.loads(out)["one_dim"]["candidates"][0]
        assert row["roots"] == "E8+D10"
        assert row["genus_ok"] is True and row["roots_ok"] is False


    def test_declared_unit_root_is_not_certified(self, capsys, tmp_path):
        # a <-2> summand is a root outside the declared system, so no glue
        # certifies the row: 2E8+A1+<-2> is named by its enumerated roots
        path = tmp_path / "cands.json"
        path.write_text(json.dumps([{"roots": "2E8+A1+<-2>"}]))
        code, out = invoke(capsys, ["cusp", "one", "--d", "1", "--candidates", str(path)])
        assert code == 1
        row = json.loads(out)["one_dim"]["candidates"][0]
        assert row["roots"] == "2E8+2A1"
        assert row["genus_ok"] is True and row["roots_ok"] is False

    def test_markdown_leaves_the_counts_of_an_unrealized_row_empty(self, capsys, tmp_path):
        # E8+E8+A2 realizes no genus: JSON prints null counts, Markdown empty cells
        path = tmp_path / "cands.json"
        path.write_text(json.dumps([{"roots": "2E8+2A1"}, {"roots": "E8+E8+A2"}]))
        argv = ["cusp", "one", "--d", "1", "--candidates", str(path)]
        code, out = invoke(capsys, argv + ["--format", "md"])
        assert code == 1 and "None" not in out
        assert out.splitlines()[2:4] == ["| 2E8+2A1 | True | True | 2 | 2 | 1 |",
                                         "| E8+E8+A2 | False | False |  |  |  |"]
        code, out = invoke(capsys, argv)
        row = json.loads(out)["one_dim"]["candidates"][1]
        assert (row["o_ae"], row["im_tau"], row["classes"]) == (None, None, None)


# valid positionals and required options of each leaf
_LEAF_ARGS = {
    ("lat", "info"): ["A2"],
    ("lat", "disc"): ["A2"],
    ("cusp", "zero"): ["--d", "3"],
    ("cusp", "one"): ["--d", "1"],
    ("cusp", "sweep"): ["--d", "1..3"],
    ("glue", "enum"): ["--roots", "A2"],
    ("glue", "roots"): ["E8"],
    ("verify", "table1"): [],
    ("verify", "example-c12"): [],
}


@pytest.mark.parametrize("bound", [["--bound", "0"], ["--bound=-1"]])
@pytest.mark.parametrize("leaf", sorted(_LEAF_ARGS))
def test_bound_below_one_is_a_usage_error(capsys, leaf, bound):
    assert set(_LEAF_ARGS) == {(c.group, c.verb) for c in cli.COMMANDS}
    code = run([*leaf, *_LEAF_ARGS[leaf], *bound])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage: cuspidal ")
    assert "error: argument --bound: invalid positive_int value: " in captured.err


def _count_calls(monkeypatch, fn, modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_table1_builds_no_overlattice_and_enumerates_no_roots(capsys, monkeypatch):
    from cuspidal import glue

    over = _count_calls(monkeypatch, glue.overlattice, [glue])
    short = _count_calls(monkeypatch, glue.short_vectors, [glue])
    certified = _count_calls(monkeypatch, glue.glue_adds_roots, [glue])
    orbits = _count_calls(monkeypatch, glue._glue_orbit, [glue])
    code, out = invoke(capsys, ["verify", "table1", "--format", "json"])
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert len(over) == 0 and len(short) == 0
    # one certificate and one orbit search per tau-orbit that the ascending
    # pass meets up to each row's first match; Im tau reads the last of them
    assert len(certified) == 20 and len(orbits) == 20


def test_table1_builds_the_coset_minima_once_per_base(capsys, monkeypatch):
    from cuspidal import glue

    builds = _count_calls(monkeypatch, glue._coset_minima, [glue])
    certified = _count_calls(monkeypatch, glue.glue_adds_roots, [glue])
    code, out = invoke(capsys, ["verify", "table1", "--format", "json"])
    assert code == 0 and json.loads(out)["all_ok"] is True
    # 13 bases, and the 20 glue orbits certified among them share their
    # base's minima
    assert len(builds) == 13 and len(certified) == 20


def test_table1_tries_one_glue_per_orbit(capsys, monkeypatch):
    from cuspidal import fqf, glue

    # 28 quotients and 424 compositions when every glue was tried and Im tau
    # closed the generators in O(A_R)
    quotients = _count_calls(monkeypatch, fqf.perp_quotient, [fqf])
    compositions = _count_calls(monkeypatch, fqf.compose_maps, [fqf, glue])
    code, out = invoke(capsys, ["verify", "table1", "--format", "json"])
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert len(quotients) <= 20 and len(compositions) <= 40


def test_cusp_one_tests_the_genus_once_per_glue_orbit(capsys, monkeypatch, tmp_path):
    from cuspidal import fqf, glue

    # the 9 glues of A2+D8+D8 form 3 orbits, one of which passes the root
    # certificate and fails the genus test; D4+D4+D4+E6 matches the genus
    # with neither orbit of its 45 glues; the 21 glues of A2+A3+A3+D5+D5
    # form 4 orbits, all adding roots, and the last match is the third
    # tested; testing every glue took 9 + 45 + 12 quotients
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps([{"roots": r} for r in
                                ("A2+D8+D8", "D4+D4+D4+E6", "A2+A3+A3+D5+D5")]))
    quotients = _count_calls(monkeypatch, fqf.perp_quotient, [fqf])
    orbits = _count_calls(monkeypatch, glue._glue_orbit, [glue])
    certified = _count_calls(monkeypatch, glue.glue_adds_roots, [glue])
    code, out = invoke(capsys, ["cusp", "one", "--d", "3", "--candidates", str(path)])
    rows = json.loads(out)["one_dim"]["candidates"]
    assert code == 1 and [r["genus_ok"] for r in rows] == [False, False, True]
    assert rows[2]["roots"] == "D10+D6+A2" and rows[2]["im_tau"] == 2
    # one orbit search and one certificate per orbit, Im tau included, and
    # one quotient per orbit whose genus is tested
    assert len(quotients) == 3 + 2 + 3
    assert len(orbits) == len(certified) == 3 + 2 + 4


def test_cusp_one_certifies_each_glue_orbit_once(capsys, monkeypatch):
    from cuspidal import glue

    # the 135 glues of 3D4+D6 form 3 orbits, each matching the genus and
    # adding roots; certifying every glue took 135 certificates
    certified = _count_calls(monkeypatch, glue.glue_adds_roots, [glue])
    code, out = invoke(capsys, ["cusp", "one", "--d", "1", "--candidates",
                                str(GOLDEN / "cusp_one_d1_3D4+D6_candidates.json")])
    assert code == 1 and json.loads(out)["one_dim"]["candidates"][0]["roots"] == "D12+D6"
    assert len(certified) == 3


def test_table1_takes_sum_invariants_from_the_summands(capsys, monkeypatch):
    from cuspidal import exact, glue, lattice

    # no elimination at all: the summands of the 13 bases take their
    # invariants in closed form, and sums add signatures and multiply
    # determinants
    eliminations = _count_calls(monkeypatch, exact.det_and_signature, [lattice, glue])
    code, out = invoke(capsys, ["verify", "table1", "--format", "json"])
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert eliminations == []


def test_json_gram_is_eliminated_once_and_overlattices_never(capsys, monkeypatch):
    from cuspidal import exact, glue, lattice

    eliminations = _count_calls(monkeypatch, exact.det_and_signature, [lattice, glue])
    code, out = invoke(capsys, ["lat", "info", str(GOLDEN / "gram_U+A2.json")])
    assert code == 0 and json.loads(out)["det"] == -3
    assert len(eliminations) == 1
    # 16 overlattices, each with the signature of its base and the
    # determinant of its Hermite basis
    code, out = invoke(capsys, ["glue", "enum", "--roots", "4A3"])
    assert code == 0 and len(json.loads(out)["glues"]) == 16
    assert len(eliminations) == 1


def test_cusp_zero_factors_d_once(capsys, monkeypatch):
    from cuspidal import cusps, exact, fqf

    calls = _count_calls(monkeypatch, exact.factorize, [exact, cusps, fqf])
    code = run(["cusp", "zero", "--d", "1000000000039"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    z = json.loads(captured.out)["zero_dim"]
    assert z["formula"] == z["enumerated"] == len(z["reps"]) == 2
    assert calls == [(1000000000039,)]


def _fresh_process(probe: str):
    """The JSON that ``probe`` prints, run in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import cuspidal

    src = os.path.dirname(os.path.dirname(cuspidal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_cli_import_is_stdlib_only():
    import sys

    # the set-up of every CLI invocation: import and build the parser; json,
    # which prints the result, is imported only after the snapshot
    added = _fresh_process(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cuspidal.cli\n"
        "cuspidal.cli.build_parser()\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(added))\n"
    )
    assert "concurrent.futures" not in added
    allowed = sys.stdlib_module_names | {"cuspidal"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []
    # compiled from source, dataclasses (with the inspect, ast, dis and
    # tokenize it pulls in) takes longer to import than the package itself,
    # and typing about half as long; argparse with gettext and locale takes
    # about 60 ms, fractions (with decimal and numbers) 13-16 ms, json
    # about 12 ms and __future__ about 1 ms; the paper's group-theoretic
    # checks load only for ``verify example-c12``
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
             "argparse", "gettext", "locale", "fractions", "json", "__future__",
             "cuspidal.claims"}
    assert sorted(heavy.intersection(added)) == []


def test_cusp_zero_and_table1_import_neither_fractions_nor_argparse():
    # each compares and prints form values as integers and parses as exact
    # forms, so neither import moves from set-up into the timed command;
    # glue enum and lat disc print q and b from reduced integer pairs.  The
    # commands print through the CLI's own JSON writer, so cusp zero, verify
    # table1 and glue enum load no json, and none loads the group-theoretic
    # checks; lat disc prints its compact one-line form with json
    codes, loaded = _fresh_process(
        "import contextlib, io, sys\n"
        "import cuspidal.cli\n"
        "watched = {'fractions', 'argparse', 'json', 'cuspidal.claims'}\n"
        "codes, loaded = [], []\n"
        "for argv in (['cusp', 'zero', '--d', '30000'], ['verify', 'table1'],\n"
        "             ['glue', 'enum', '--roots', '2A1+2D8', '--roots-of-overlattice'],\n"
        "             ['lat', 'disc', 'A1+A2+A3+D4+E6+E7']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cuspidal.cli.run(argv))\n"
        "    loaded.append(sorted(watched & set(sys.modules)))\n"
        "import json\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    assert codes == [0, 0, 0, 0]
    assert loaded == [[], [], [], ["json"]]


# (argv, exact form): every leaf, option and default, a repeated option, and
# each form that only argparse decides
PARSES = [
    (["lat", "info", "A1"], True),
    (["lat", "info", "--format", "md", "U+<-2>", "--out", "x.md", "--bound", "7"], True),
    (["lat", "info", ""], True),
    (["lat", "disc", "A1+A2"], True),
    (["cusp", "zero", "--d", "30000"], True),
    (["cusp", "zero", "--d", "5", "--case", "nonsplit", "--mode", "formula", "--d", "7"],
     True),
    (["cusp", "zero", "--d", "+5", "--mode", "enumerate", "--format", "md",
      "--format", "json"], True),
    (["cusp", "one", "--d", "1"], True),
    (["cusp", "one", "--candidates", "c.json", "--d", "2", "--case", "nonsplit"], True),
    (["cusp", "sweep", "--d", "1..50"], True),
    (["cusp", "sweep", "--case", "nonsplit", "--d", "3"], True),
    (["glue", "enum", "--roots", "4A3"], True),
    (["glue", "enum", "--roots", "A3+A15", "--order", "4", "--roots-of-overlattice",
      "--roots-of-overlattice"], True),
    (["glue", "roots", "E8", "--bound", "1"], True),
    (["verify", "table1"], True),
    (["verify", "table1", "--format", "json", "--out", "t.json"], True),
    (["verify", "example-c12", "--bound", "10"], True),
    # fewer than two words, or no such group or verb
    ([], False),
    (["lat"], False),
    (["cusp", "two"], False),
    (["foo", "bar"], False),
    # help
    (["-h"], False),
    (["--help"], False),
    (["glue", "-h"], False),
    (["glue", "enum", "-h"], False),
    (["cusp", "zero", "--d", "5", "--help"], False),
    # forms argparse accepts
    (["cusp", "zero", "--d=7"], False),
    (["cusp", "zero", "--d", "7", "--mod", "formula"], False),
    (["lat", "info", "--", "A1"], False),
    (["cusp", "zero", "--d", "-4"], False),
    (["lat", "info", "-4"], False),
    # usage errors
    (["cusp", "zero", "--d", "3", "--frobnicate"], False),
    (["cusp", "zero", "--d", "3", "-x"], False),
    (["cusp", "zero", "--d", "7", "--roots", "A1"], False),
    (["cusp", "zero", "--d", "x"], False),
    (["glue", "enum", "--roots", "A1", "--order", "1.5"], False),
    (["cusp", "zero", "--d", "7", "--format", "xml"], False),
    (["cusp", "zero"], False),
    (["glue", "enum", "--order", "4"], False),
    (["glue", "enum", "--roots", "A1", "--order"], False),
    (["lat", "info", "A1", "--out", "-x"], False),
    (["lat", "info"], False),
    (["lat", "info", "A1", "A2"], False),
    (["verify", "table1", "extra"], False),
    (["glue", "roots", "E8", "--bound", "0"], False),
    (["glue", "roots", "E8", "--bound", "-1"], False),
    (["glue", "roots", "E8", "--bound=-1"], False),
    (["cusp", "zero", "--d", "3", "--mode", "guess"], False),
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = ("args", vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv, exact", PARSES)
def test_table_parser_agrees_with_argparse(capsys, monkeypatch, argv, exact):
    expected = _parse_outcome(cli._argparse_parser().parse_args, argv, capsys)
    fallbacks = []
    argparse_parser = cli._argparse_parser

    def counted():
        fallbacks.append(argv)
        return argparse_parser()

    monkeypatch.setattr(cli, "_argparse_parser", counted)
    assert _parse_outcome(cli.build_parser().parse_args, argv, capsys) == expected
    assert len(fallbacks) == (0 if exact else 1)
    (kind, value), captured = expected
    if kind == "exit":
        assert run(argv) == (0 if value in (0, None) else 2)
        assert capsys.readouterr() == captured


GOLDEN = Path(__file__).parent / "data"

# (argv, golden file) of each output the CI compares byte for byte
GOLDENS = [
    (["cusp", "zero", "--d", "30000"], "cusp_zero_d30000.json"),
    (["glue", "enum", "--roots", "2A1+2D8", "--order", "4"],
     "glue_enum_2A1+2D8_order4.json"),
    (["lat", "disc", "A1+A2+A3+D4+E6+E7"], "lat_disc_A1+A2+A3+D4+E6+E7.json"),
    (["verify", "example-c12", "--format", "json"], "verify_example-c12.json"),
    (["verify", "example-c12", "--format", "md"], "verify_example-c12.md"),
    (["lat", "info", "U+U+U+E8+E8+<-2>"], "lat_info_U+U+U+E8+E8+minus2.json"),
    (["glue", "enum", "--roots", "4A3"], "glue_enum_4A3.json"),
    # no glue certifies a <-2> summand, so each row prints its last match
    (["cusp", "one", "--d", "1", "--candidates",
      str(GOLDEN / "cusp_one_d1_minus2_pairs_candidates.json")],
     "cusp_one_d1_minus2_pairs.json"),
    # odd-rank atoms: the determinant sign of each summand shows
    (["lat", "info", "A1+A2+A3+D5+E7+<-4>"], "lat_info_A1+A2+A3+D5+E7+minus4.json"),
    # every ADE letter, each typed by its rank and Cartan determinant
    (["glue", "roots", "E8+E7+E6+D5+D4+A3+A1"], "glue_roots_E8+E7+E6+D5+D4+A3+A1.json"),
    (["glue", "enum", "--roots", "2A1+2D8", "--roots-of-overlattice"],
     "glue_enum_2A1+2D8_roots.json"),
    # Markdown q strings, the Markdown zero-dimensional table and the
    # trivial form of a unimodular base
    (["lat", "disc", "A1+A2+A3+D4+E6+E7", "--format", "md"],
     "lat_disc_A1+A2+A3+D4+E6+E7.md"),
    (["cusp", "zero", "--d", "12", "--format", "md"], "cusp_zero_d12.md"),
    (["glue", "enum", "--roots", "E8"], "glue_enum_E8.json"),
    # a JSON Gram, whose invariants come from elimination; U+A2 written out
    # takes both zero-pivot branches, a swap and an add
    (["lat", "info", str(GOLDEN / "gram_U+A2.json")], "lat_info_gram_U+A2.json"),
    # 31 glues through the walk, perp quotients, overlattices, LLL and
    # Fincke-Pohst
    (["glue", "enum", "--roots", "3D6", "--roots-of-overlattice"],
     "glue_enum_3D6_roots.json"),
    # the non-split certificate over the orders 1, 3, 7 and 21 (11
    # representatives), and sweeps in both embeddings
    (["cusp", "zero", "--d", "4851", "--case", "nonsplit"], "cusp_zero_d4851_nonsplit.json"),
    (["cusp", "sweep", "--d", "1..400", "--format", "md"], "cusp_sweep_d1-400.md"),
    (["cusp", "sweep", "--d", "3..399", "--case", "nonsplit", "--format", "md"],
     "cusp_sweep_d3-399_nonsplit.md"),
    # the 30 E8 overlattices of 8A1, each glue passed beside the one base
    (["glue", "enum", "--roots", "8A1", "--order", "16", "--roots-of-overlattice"],
     "glue_enum_8A1_order16_roots.json"),
    # twists scale a Gram, block sums place it and Smith transforms read it
    (["lat", "disc", "U(2)+B7+E8(2)+<-6>"], "lat_disc_U(2)+B7+E8(2)+minus6.json"),
    # a skewed basis of D4+A2: elimination, an LLL transform with negation
    # and Fincke-Pohst
    (["glue", "roots", str(GOLDEN / "gram_D4+A2_skewed.json")],
     "glue_roots_gram_D4+A2_skewed.json"),
    # the JSON sweep, whose rows are written one by one after the mismatches
    (["cusp", "sweep", "--d", "1..400"], "cusp_sweep_d1-400.json"),
    # a certifiable base whose two genus-matching glue orbits both add roots,
    # so the last match names 2E8+2A1
    (["cusp", "one", "--d", "1", "--candidates",
      str(GOLDEN / "cusp_one_d1_E8+D8+2A1_candidates.json")],
     "cusp_one_d1_E8+D8+2A1.json"),
    # at d = 3: two bases with no genus match and one last match
    (["cusp", "one", "--d", "3", "--candidates", str(GOLDEN / "cusp_one_d3_candidates.json")],
     "cusp_one_d3.json"),
    # every glue orbit of 3D4+D6 matches the genus and adds roots, so the
    # last match names D12+D6
    (["cusp", "one", "--d", "1", "--candidates",
      str(GOLDEN / "cusp_one_d1_3D4+D6_candidates.json")],
     "cusp_one_d1_3D4+D6.json"),
]


@pytest.mark.parametrize("argv, golden", GOLDENS)
def test_form_values_are_byte_identical_to_golden(capsys, argv, golden):
    # the cusp one rows have the wrong roots, which is a verification failure
    assert run(argv) == (1 if golden.startswith("cusp_one") else 0)
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


# every Markdown argv of the goldens and of the CI, and a Markdown table of
# each other command that prints one
_MARKDOWN_ARGVS = [argv for argv, _ in GOLDENS if "md" in argv] + [
    ["verify", "table1", "--format", "md"],
    ["cusp", "one", "--d", "1", "--format", "md"],
    ["cusp", "zero", "--d", "12", "--mode", "formula", "--format", "md"],
    ["glue", "enum", "--roots", "4A3", "--format", "md"],
    ["lat", "info", "U+<-2>", "--format", "md"],
]
_UNESCAPED_PIPE = re.compile(r"(?<!\\)\|")


def _markdown_tables(text) -> list:
    """The tables of ``text``: each run of lines that start with a pipe."""
    tables, current = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            current.append(line)
        elif current:
            tables.append(current)
            current = []
    return tables


@pytest.mark.parametrize("argv", _MARKDOWN_ARGVS, ids=" ".join)
def test_markdown_table_lines_have_the_cells_of_their_delimiter_row(capsys, argv):
    # a GitHub-flavoured Markdown table shows only when each line splits on
    # its unescaped pipes into the cells of the delimiter row
    assert run(argv) == 0
    tables = _markdown_tables(capsys.readouterr().out)
    assert tables
    for header, delimiter, *body in tables:
        assert re.fullmatch(r"\|(---\|)+", delimiter)
        for line in (header, *body):
            assert len(_UNESCAPED_PIPE.split(line)) - 2 == delimiter.count("---"), line


def test_zero_dimensional_commands_build_no_lattice_form(capsys, monkeypatch):
    """``cusp zero`` and ``cusp sweep`` take A_N in closed form: with the
    discriminant form of a lattice and the Smith form failing at every
    binding in the package, each still prints its golden output."""
    from cuspidal import exact, fqf

    def fail(*args, **kwargs):
        raise AssertionError("a zero-dimensional command built a lattice's discriminant form")

    patched = collections.Counter()
    for original in (fqf.discriminant_form, exact.smith_normal_form):
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "cuspidal":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, fail)
                    patched[original.__name__] += 1
    assert patched["discriminant_form"] >= 2 and patched["smith_normal_form"] >= 3
    sweep = (GOLDEN / "cusp_sweep_d1-400.md").read_text(encoding="utf-8").splitlines(True)
    for argv, expected in [
        (["cusp", "zero", "--d", "30000"],
         (GOLDEN / "cusp_zero_d30000.json").read_text(encoding="utf-8")),
        (["cusp", "zero", "--d", "4851", "--case", "nonsplit"],
         (GOLDEN / "cusp_zero_d4851_nonsplit.json").read_text(encoding="utf-8")),
        # the header, the delimiter row and d = 1..50 of the sweep to 400
        (["cusp", "sweep", "--d", "1..50", "--format", "md"], "".join(sweep[:52])),
    ]:
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")


def test_type_hints_resolve_for_every_class():
    import cuspidal

    for info in pkgutil.iter_modules(cuspidal.__path__):
        module = importlib.import_module(f"cuspidal.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                typing.get_type_hints(cls)


_Pair = collections.namedtuple("_Pair", "left right")

# every kind of character the writer must escape as json does, or pass as is
_JSON_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f \x7f\x80\xe9\u2028\ufffe\U0001f600\U0010ffff'),
    st.characters(min_codepoint=0x20, max_codepoint=0x7e),
    st.characters(),
)
_JSON_TEXT = st.text(_JSON_CHARS, max_size=8)
_JSON_INTS = st.integers(-(2**200), 2**200)
# lists of int lists and tuples of one width, as the zero-dimensional
# representatives are printed
_JSON_INT_ROWS = st.integers(0, 3).flatmap(lambda k: st.lists(
    st.lists(_JSON_INTS, min_size=k, max_size=k) | st.tuples(*[_JSON_INTS] * k), max_size=5))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | _JSON_TEXT | _JSON_INT_ROWS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.builds(_Pair, inner, inner)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({"a\\b": ['say "hi"', "tab\t", "\x7f", "\xe9", "\U0001f600", True, None, -(2**200)]})
@example([[1, True], [2, 3]])
@example([[1, 2], (3, -4), _Pair(5, 2**70)])
@example([[1], [2, 3]])
@example([[], []])
def test_json_writer_matches_the_standard_encoder(obj):
    assert cli._dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_writer_refuses_other_types():
    from fractions import Fraction

    for obj in (1.5, Fraction(1, 2), {1: "a"}, [{"a": 0.0}], {"a": {2: 0}}):
        with pytest.raises(TypeError):
            cli._dump_json(obj)


# The exit-code contract on drawn argvs: lattice names, root specs, JSON
# Grams, candidate files and --d values and ranges, each command run in
# process with --bound 10000.  Names and specs mix valid atoms with refused
# ones (A0, D3, B5, <0>, <-3>, a multiplicity or twist of 0) and stay at
# rank 24.


def _atom_rank(atom: str) -> int:
    return 2 if atom[0] in "UB" else 1 if atom[0] == "<" else int(atom[1:])


def _sum_text(atoms, twists, max_terms):
    """A "+"-joined sum of up to ``max_terms`` terms of rank 24 at most."""
    term = st.tuples(st.sampled_from(("", "", "", "2", "3", "0")), st.sampled_from(atoms),
                     st.sampled_from(twists))
    return st.lists(term, min_size=1, max_size=max_terms).filter(
        lambda terms: sum(int(c or 1) * _atom_rank(a) for c, a, _ in terms) <= 24
    ).map(lambda terms: "+".join(c + a + t for c, a, t in terms))


# each valid atom is drawn three times as often as each refused one
_ROOT_ATOMS = ("A1", "A2", "A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8", "<-2>", "<-4>",
               "<2>") * 3 + ("A0", "D3", "<0>", "<-3>")
_LATTICE_NAMES = _sum_text(_ROOT_ATOMS + ("U", "B3", "B7") * 3 + ("B5",),
                           ("", "", "", "(2)", "(3)", "(0)"), 4)
_ROOT_SPECS = _sum_text(_ROOT_ATOMS, ("", "", "", "", "(2)"), 3)


@st.composite
def _json_grams(draw):
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    obj = {"gram": rows}
    if draw(st.booleans()):
        obj["rank"] = draw(st.sampled_from((n, n + 1, True)))
    if draw(st.booleans()):
        obj["labels"] = draw(st.sampled_from((["x"] * n, [], "x")))
    return json.dumps(obj, separators=(",", ":"))


_LATTICES = _LATTICE_NAMES | _json_grams()
# candidate lists for cusp one: rank-18 sums of Table 1 and others, with
# glue rows of any width, and files of the wrong shape
_CANDIDATES = st.lists(st.fixed_dictionaries(
    {"roots": st.sampled_from(("D18", "2E8+2A1", "E7+D10+A1", "A17+A1", "3D6", "2A1+2D8"))
     | _ROOT_SPECS},
    optional={"glue": st.lists(st.lists(st.integers(-2, 4), max_size=4), max_size=2),
              "niemeier": st.sampled_from(("D24", "3E8"))},
), min_size=1, max_size=3) | st.sampled_from(({}, [{}], [{"roots": 3}], "x"))
_FORMAT = st.sampled_from(("json", "md"))
_D = st.integers(-3, 10**6)
_RANGES = st.one_of(
    st.tuples(st.integers(-3, 10**6), st.integers(0, 49)).map(
        lambda t: f"{t[0]}..{t[0] + t[1]}"),
    _D.map(str),
    st.sampled_from(("5..3", "a..b", "..", "1..", "3..x")),
)


@st.composite
def _argvs(draw):
    """(argv, candidates): the JSON value of a --candidates file to write, or None."""
    candidates = None
    kind = draw(st.sampled_from(("lat", "glue enum", "glue roots", "cusp zero", "cusp one",
                                 "cusp sweep")))
    case = ["--case", draw(st.sampled_from(("split", "nonsplit")))]
    if kind == "lat":
        argv = ["lat", draw(st.sampled_from(("info", "disc"))), draw(_LATTICES)]
    elif kind == "glue enum":
        argv = ["glue", "enum", "--roots", draw(_ROOT_SPECS)]
        order = draw(st.sampled_from((None, 1, 2, 4, 8, 0, -2)))
        argv += [] if order is None else ["--order", str(order)]
        argv += ["--roots-of-overlattice"] if draw(st.booleans()) else []
    elif kind == "glue roots":
        argv = ["glue", "roots", draw(_LATTICES)]
    elif kind == "cusp zero":
        argv = ["cusp", "zero", "--d", str(draw(_D)), *case,
                "--mode", draw(st.sampled_from(("formula", "enumerate", "both")))]
    elif kind == "cusp one":
        argv = ["cusp", "one", "--d", str(draw(_D | st.just(1))), *case]
        candidates = draw(st.none() | _CANDIDATES)
    else:
        argv = ["cusp", "sweep", "--d", draw(_RANGES), *case]
    return argv + ["--format", draw(_FORMAT), "--bound", "10000"], candidates


@settings(max_examples=200, deadline=None)
@given(_argvs())
@example((["cusp", "one", "--d", "1125899906842624", "--bound", "10000"], None))
@example((["cusp", "sweep", "--d", "-3..4", "--bound", "10000"], None))
def test_drawn_argvs_keep_the_exit_code_contract(drawn):
    argv, candidates = drawn
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if candidates is not None:
            path = Path(tmp) / "cands.json"
            path.write_text(json.dumps(candidates))
            argv = argv + ["--candidates", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        # argparse's usage message, or one line of the command's refusal
        assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1
                                             and err.endswith("\n")), err
    else:
        assert err == ""


# Public functions, methods and properties of the layers, and the special
# methods their classes write themselves, that no command needs to run,
# each with its reason; every other one must run under some command below.
# The kernel's records are namedtuples: the methods namedtuple generates
# are not the layers' code and are not listed.
_UNRUN_ALLOWED = {
    "cusps.PolarizationCase.__getnewargs__":
        "copy and pickle rebuild a case from (d, embedding), not from its six fields",
}


def _layer_members(module):
    """(name, code) of each public function of ``module``, and of each public
    method, property and special method of its public classes."""
    short = module.__name__.split(".")[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not attr.endswith("__"):
                    continue
                fn = member.fget if isinstance(member, property) else \
                    getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield f"{short}.{name}.{attr}", fn.__code__


def test_every_public_layer_function_runs_under_a_command(tmp_path):
    # the CI goldens, a candidate with glue rows, a short sweep, a twisted
    # lattice name and both Table 1 formats, traced in process; the
    # Fincke-Pohst of --roots-of-overlattice takes seconds under the
    # profiler and reaches no function that glue roots does not
    from cuspidal import claims, cusps, exact, fqf, glue, lattice

    candidates = tmp_path / "cands.json"
    candidates.write_text(json.dumps([{"roots": "E7+D10+A1", "glue": [[1, 0, 0, 1]]}]))
    argvs = [argv for argv, _ in GOLDENS if "--roots-of-overlattice" not in argv] + [
        ["verify", "table1", "--format", "json"],
        ["verify", "table1", "--format", "md"],
        ["cusp", "one", "--d", "1", "--candidates", str(candidates)],
        ["cusp", "sweep", "--d", "1..12"],
        ["lat", "info", "U(2)+A2"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(run(argv))
    finally:
        sys.setprofile(None)
    # each cusp one candidate list holds rows with the wrong roots
    assert codes == [1 if argv[:2] == ["cusp", "one"] else 0 for argv in argvs]
    unrun = sorted(
        name
        for module in (exact, lattice, fqf, glue, cusps, claims)
        for name, code in _layer_members(module)
        if code not in called
    )
    assert [name for name in unrun if name not in _UNRUN_ALLOWED] == []
