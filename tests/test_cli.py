"""End-to-end runs of the command-line interface against the sample corpus."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainlab.cli import _jsonable, main, parse_element, report_json
from chainlab.coset import DEFAULT_BUDGET
from chainlab.errors import InputError
from chainlab.qnormal import BALL_LETTER_CAP, chain_to_dict, witness_set_to_dict
from chainlab.raag import artin_central_chain

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def blowup_job(outer_group: dict, outer_subgroup: list, inner_rank: int) -> dict:
    """A blow-up job whose inner graph is a ball on F(inner_rank) / <h1>."""
    return {
        "outer": {"group": outer_group, "subgroup": outer_subgroup, "generating_set": [[1], [2]]},
        "inner": {
            "group": {"generators": [f"h{i}" for i in range(1, inner_rank + 1)], "relators": []},
            "subgroup": [[1]],
            "generating_set": [[i] for i in range(1, inner_rank + 1)],
            "budget": 2,
            "radius": 1,
        },
        "subgroup_words": [[1]],
        "connectors": [
            {"outer_label": k, "g_f": [k + 1], "witness": [1],
             "witness_in_subgroup": [1], "witness_in_conjugate": [1]}
            for k in range(2)
        ],
    }


class TestHomologyCommand:
    def test_dense_d2_above_the_cell_cap_exits_3_and_writes_nothing(self, tmp_path):
        # index 99,856 builds within the default budget, but its dense d2
        # would hold 2e10 cells.  The child's address space is capped at
        # 1 GB, so a missing guard fails this test instead of exhausting memory.
        out = tmp_path / "run"
        argv = ["homology", str(DATA / "Z2.json"), "--chain", "abelian:n=316", "--out", str(out)]
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from chainlab.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "budget exceeded" in proc.stderr and "cells" in proc.stderr
        assert "--budget" not in proc.stderr
        assert not out.exists()

    def test_integer_chain_ratios(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..5",
            "--primes", "2,3", "--out", str(out),
        ])
        assert rc == 0
        csv = (out / "betti_q.csv").read_text().splitlines()
        assert csv[0] == "level,index,value,ratio"
        assert [row.split(",")[3] for row in csv[1:]] == ["1", "1/2", "1/3", "1/4", "1/5"]
        torsion = read_json(out / "log_torsion.json")
        assert all(p["value"] == 0.0 for p in torsion["points"])
        assert (out / "betti_fp_2.csv").exists() and (out / "betti_fp_3.csv").exists()

    def test_product_chain_ratios(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "homology", str(DATA / "ZxF2.json"), "--chain", "abelian:n=2,3,4",
            "--out", str(out),
        ])
        assert rc == 0
        points = read_json(out / "betti_q.json")["points"]
        assert [(p["index"], p["ratio"]) for p in points] == [
            (8, "3/4"), (27, "11/27"), (64, "9/32"),
        ]

    def test_csv_rows_recomputable_from_json(self, tmp_path):
        out = tmp_path / "run"
        main(["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..4", "--out", str(out)])
        csv_rows = (out / "betti_q.csv").read_text().splitlines()[1:]
        points = read_json(out / "betti_q.json")["points"]
        assert len(csv_rows) == len(points)
        for row, p in zip(csv_rows, points):
            level, index, value, ratio = row.split(",")
            assert level == p["level"]
            assert int(index) == p["index"]
            assert int(value) == p["value"]
            assert Fraction(ratio) == Fraction(p["ratio"])

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["homology", str(bad), "--chain", "abelian:n=1..2", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("primes", ["4", "1", "x", "2,2"])
    def test_bad_primes_are_input_errors(self, primes, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..2",
                   "--primes", primes, "--out", str(out)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_exhaustion_exit_code(self, tmp_path):
        rc = main([
            "homology", str(DATA / "ZxF2.json"), "--chain", "abelian:n=4",
            "--budget", "3", "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget, code", [(49, 3), (50, 0)])
    def test_budget_caps_the_cover_index(self, budget, code, tmp_path):
        rc = main([
            "homology", str(DATA / "F2.json"), "--chain", "cyclic:n=50",
            "--budget", str(budget), "--out", str(tmp_path / "o"),
        ])
        assert rc == code

    @pytest.mark.parametrize("chain, key", [
        ("abelian:n=1..3,gen=5", "'gen'"),
        ("cyclic:n=2..4,foo=3", "'foo'"),
        ("abelian:n=1..3,n=7", "'n'"),
        ("abelian:n=", "'n'"),
    ])
    def test_chain_spec_with_a_bad_key_is_an_input_error(self, chain, key, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["homology", str(DATA / "Z.json"), "--chain", chain, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and key in err
        assert not out.exists()

    def test_non_positive_budget_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "homology", str(DATA / "Z2.json"), "--chain", "abelian:n=1",
            "--budget", "0", "--out", str(out),
        ])
        assert rc == 2
        assert "budget must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestQnormalCommands:
    def test_verify_golden_chain(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "verify", str(DATA / "golden_chain.json"), "--out", str(out)])
        assert rc == 0
        report = read_json(out / "verify_report.json")
        assert report["status"] == "proven"
        assert report["kind"] == "chain"
        assert report["failure_reasons"] == []

    def test_verify_emitted_graph_group_chain(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "verify", str(DATA / "c4_chain.json"), "--out", str(out)])
        assert rc == 0
        assert read_json(out / "verify_report.json")["status"] == "proven"

    def test_verify_keeps_relators_as_written(self, tmp_path):
        # Z^2 with its commutator written [y, x]: the exact context must compare
        # equal to this presentation, not to the rebuilt [x, y] one.
        ws = {
            "ambient": {"generators": ["x", "y"], "relators": [[2, 1, -2, -1]]},
            "subgroup_words": [[1]],
            "generating_set": [[1], [2]],
            "witnesses": [{"w": [1], "expr_in_subgroup": [1], "expr_in_conjugate": [1]}] * 2,
        }
        out = tmp_path / "run"
        rc = main(["qnormal", "verify", str(write_json(tmp_path / "ws.json", ws)), "--out", str(out)])
        assert rc == 0
        assert read_json(out / "verify_report.json")["status"] == "proven"

    def test_verify_broken_witness_fails(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "verify", str(DATA / "broken_chain.json"), "--out", str(out)])
        assert rc == 4
        report = read_json(out / "verify_report.json")
        assert report["status"] == "failed"
        assert read_json(out / "manifest.json")["outputs"] == ["verify_report.json"]

    @pytest.mark.parametrize("names", ["acd", [1, 2, 3]], ids=["string", "integers"])
    def test_certificate_ambient_names_must_be_a_list_of_strings(self, names, tmp_path, capsys):
        cert = read_json(DATA / "golden_chain.json")
        cert["steps"][0]["ambient"]["generators"] = names
        out = tmp_path / "run"
        assert main(["qnormal", "verify", str(write_json(tmp_path / "cert.json", cert)), "--out", str(out)]) == 2
        assert "field 'steps': field 'ambient': field 'generators'" in capsys.readouterr().err
        assert not out.exists()

    def test_certificate_ambient_without_relators_is_free(self, tmp_path):
        ws = {
            "ambient": {"generators": ["a"]},
            "subgroup_words": [[1]],
            "generating_set": [[1]],
            "witnesses": [{"w": [1], "expr_in_subgroup": [1], "expr_in_conjugate": [1]}],
        }
        out = tmp_path / "run"
        assert main(["qnormal", "verify", str(write_json(tmp_path / "ws.json", ws)), "--out", str(out)]) == 0
        assert read_json(out / "verify_report.json")["status"] == "proven"

    def test_witness_word_that_is_an_object_is_an_input_error(self, tmp_path, capsys):
        cert = read_json(DATA / "golden_chain.json")
        for witness in cert["steps"][0]["witnesses"]:
            witness["w"] = {}
        out = tmp_path / "run"
        assert main(["qnormal", "verify", str(write_json(tmp_path / "cert.json", cert)), "--out", str(out)]) == 2
        assert "field 'witnesses': field 'w': expected a JSON list, got {}" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_letter_is_an_input_error(self, tmp_path, capsys):
        cert = read_json(DATA / "golden_chain.json")
        cert["base"] = [True]
        out = tmp_path / "run"
        assert main(["qnormal", "verify", str(write_json(tmp_path / "cert.json", cert)), "--out", str(out)]) == 2
        assert "field 'base': expected an integer, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_refuses_a_file_that_is_no_certificate(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["qnormal", "verify", str(DATA / "Z.json"), "--out", str(out)]) == 2
        assert "neither 'steps' nor 'witnesses'" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_job(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "graph", str(DATA / "plane_graph_job.json"), "--out", str(out)])
        assert rc == 0
        graph = read_json(out / "graph.json")
        assert graph["completeness"] == "ball(3)"
        assert len(graph["vertices"]) == 7
        assert graph["is_connected"] is True
        assert graph["stabilizer_witnesses_verified"] == [True] * len(graph["edges"])

    def test_ball_past_the_coset_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        import chainlab.coset as coset

        job = read_json(DATA / "plane_graph_job.json")
        job["radius"] = 10**6  # Z^2 / <x>: a line, so 2 * radius + 1 vertices
        path = write_json(tmp_path / "job.json", job)
        monkeypatch.setattr(coset, "DEFAULT_BUDGET", 50)
        assert main(["qnormal", "graph", str(path), "--out", str(tmp_path / "a")]) == 3
        assert "more than 50 vertices" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        job["radius"] = 24
        path = write_json(tmp_path / "job.json", job)
        assert main(["qnormal", "graph", str(path), "--out", str(tmp_path / "b")]) == 0
        assert len(read_json(tmp_path / "b" / "graph.json")["vertices"]) == 49

    def test_ball_past_the_letter_cap_exits_3(self, tmp_path, capsys):
        job = read_json(DATA / "plane_graph_job.json")
        del job["radius"]  # a line whose representatives y^k grow with the radius
        path = write_json(tmp_path / "job.json", job)
        argv = ["qnormal", "graph", str(path), "--radius", str(10**30), "--out", str(tmp_path / "a")]
        assert main(argv) == 3  # at the default budget, far below its 100,000 vertices
        assert f"more than {BALL_LETTER_CAP} letters" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_negative_radius_is_an_input_error(self, tmp_path, capsys):
        job = read_json(DATA / "plane_graph_job.json")
        job["radius"] = -1
        path = write_json(tmp_path / "job.json", job)
        assert main(["qnormal", "graph", str(path), "--out", str(tmp_path / "a")]) == 2
        del job["radius"]
        path = write_json(tmp_path / "job.json", job)
        assert main(["qnormal", "graph", str(path), "--radius", "-1", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err.count("radius must be at least 0") == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_blowup_job_matches_direct_graph(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "blowup", str(DATA / "plane_blowup_job.json"), "--out", str(out)])
        assert rc == 0
        blowup = read_json(out / "blowup.json")
        assert len(blowup["vertices"]) == 14
        assert blowup["vertex_count_identity"] is True
        assert blowup["dropped_edges"] >= 1
        assert blowup["comparison"]["matches"] is True
        assert blowup["comparison"]["common_vertices"] == 13

    def test_blowup_refuses_non_graph_group_outer_ambient(self, tmp_path, capsys):
        # <x, y | x^2, [x, y]> is not a graph group: no rewriter for <x, y^2>.
        group = {"generators": ["x", "y"], "relators": [[1, 1], [1, 2, -1, -2]]}
        job = write_json(tmp_path / "job.json", blowup_job(group, [[1], [2, 2]], 2))
        assert main(["qnormal", "blowup", str(job), "--out", str(tmp_path / "o")]) == 2
        assert "rewriter" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_blowup_refuses_non_parabolic_outer_subgroup(self, tmp_path, capsys):
        # <a^2, b, a b a^-1> has index 2 in F2 but is not generated by letters.
        group = {"generators": ["a", "b"], "relators": []}
        job = write_json(tmp_path / "job.json", blowup_job(group, [[1, 1], [2], [1, 2, -1]], 3))
        assert main(["qnormal", "blowup", str(job), "--out", str(tmp_path / "o")]) == 2
        assert "rewriter" in capsys.readouterr().err

    def test_verify_on_non_graph_group_ambient_is_consistent(self, tmp_path):
        # The braid group <s, t | sts = tst> gets a finite-quotient battery.
        cert, _ = artin_central_chain(3)
        for kind, payload in (
            ("witness-set", witness_set_to_dict(cert.steps[0])),
            ("chain", chain_to_dict(cert)),
        ):
            out = tmp_path / kind
            path = write_json(tmp_path / f"{kind}.json", payload)
            assert main(["qnormal", "verify", str(path), "--out", str(out)]) == 0
            report = read_json(out / "verify_report.json")
            assert (report["kind"], report["status"]) == (kind, "consistent")

    def test_trim_job(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "trim", str(DATA / "trim_job.json"), "--out", str(out)])
        assert rc == 0
        trim = read_json(out / "trim.json")
        assert trim["kept_orbits"] == [0, 1]
        assert trim["dropped_orbits"] == [2]

    def test_negative_search_bound_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["qnormal", "trim", str(DATA / "trim_job.json"), "--bound", "-1", "--out", str(out)]) == 2
        assert "search bound must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_trim_without_generators_is_an_input_error(self, tmp_path, capsys):
        job = read_json(DATA / "trim_job.json")
        del job["generators"]
        out = tmp_path / "run"
        assert main(["qnormal", "trim", str(write_json(tmp_path / "job.json", job)), "--out", str(out)]) == 2
        assert "missing field 'generators'" in capsys.readouterr().err
        assert not out.exists()


class TestRaagCommand:
    def test_cycle_not_inner_amenable_but_chain_commuting(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["raag", "analyze", str(DATA / "c4.json"), "--out", str(out)])
        assert rc == 0
        report = read_json(out / "raag_report.json")
        assert report["inner_amenable"] is False
        assert report["chain_commuting"] is True
        assert report["chain_status"] == "proven"
        assert report["sequence"] == ["a", "b", "c", "d"]
        assert (out / report["chain_certificate_path"]).exists()

    def test_path_inner_amenable_cone(self, tmp_path):
        out = tmp_path / "run"
        main(["raag", "analyze", str(DATA / "p3.json"), "--out", str(out)])
        report = read_json(out / "raag_report.json")
        assert report["inner_amenable"] is True
        assert report["cone_vertex"] == "b"

    def test_isolated_pair_neither(self, tmp_path):
        out = tmp_path / "run"
        main(["raag", "analyze", str(DATA / "two_isolated.json"), "--out", str(out)])
        report = read_json(out / "raag_report.json")
        assert report["inner_amenable"] is False
        assert report["chain_commuting"] is False
        assert report["chain_certificate_path"] is None
        assert read_json(out / "manifest.json")["outputs"] == ["raag_report.json"]

    def test_boolean_vertex_count_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["raag", "analyze", str(write_json(tmp_path / "g.json", {"vertices": True})),
                     "--out", str(out)]) == 2
        assert "field 'vertices': expected an integer, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_without_vertices_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["raag", "analyze", str(DATA / "Z.json"), "--out", str(out)]) == 2
        assert "missing field 'vertices'" in capsys.readouterr().err
        assert not out.exists()


class TestFarberCommand:
    def test_integer_chain_passes_from_level_two(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "farber", str(DATA / "Z.json"), "--chain", "abelian:n=1..10",
            "--gammas", "a", "--eps", "0", "--out", str(out),
        ])
        assert rc == 0
        report = read_json(out / "farber.json")
        assert report["passed"] is True
        assert report["values"][0][0] == "1"
        assert all(v == "0" for v in report["values"][0][1:])

    def test_identity_element_rejected(self, tmp_path):
        rc = main([
            "farber", str(DATA / "Z.json"), "--chain", "abelian:n=1..3",
            "--gammas", "e", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_freely_trivial_element_rejected_outside_graph_groups(self, tmp_path):
        group = write_json(tmp_path / "g.json", {"generators": ["a", "b"], "relators": [[2, 2]]})
        argv = ["farber", str(group), "--chain", "abelian:n=1..3", "--out", str(tmp_path / "o")]
        assert main(argv + ["--gammas", "a'a"]) == 2
        assert main(argv + ["--gammas", "a"]) == 0

    def test_negative_budget_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "farber", str(DATA / "Z2.json"), "--chain", "abelian:n=1",
            "--gammas", "a", "--budget", "-1", "--out", str(out),
        ])
        assert rc == 2
        assert "budget must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_free_group_table(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "farber", str(DATA / "F2.json"), "--chain", "cyclic:n=2..6",
            "--gammas", "a,b,ab", "--eps", "1/2", "--out", str(out),
        ])
        assert rc == 0
        report = read_json(out / "farber.json")
        assert report["gammas"] == ["a", "b", "a b"]
        assert len(report["values"]) == 3
        csv = (out / "farber.csv").read_text().splitlines()
        assert csv[0] == "gamma,level,index,fx"
        assert len(csv) == 1 + 3 * len(report["indices"])

    def test_element_parsing(self):
        assert parse_element("ab", ("a", "b")) == (1, 2)
        assert parse_element("a'b", ("a", "b")) == (-1, 2)
        assert parse_element("1.-2.1", ("a", "b")) == (1, -2, 1)
        with pytest.raises(InputError):
            parse_element("zz", ("a", "b"))
        with pytest.raises(InputError):
            parse_element("e", ("a", "b"))


class TestRebuildCommand:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--T", "--kappa"])
    def test_non_finite_scale_and_kappa_are_refused(self, option, value, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["rebuild", "check", str(DATA / "identity.json"), "--out", str(out)]
        argv += [f"--T={value}"] if option == "--T" else ["--T", "1", f"--kappa={value}"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_identity_minimal_kappa(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["rebuild", "check", str(DATA / "identity.json"), "--T", "1", "--out", str(out)])
        assert rc == 0
        report = read_json(out / "rebuild_report.json")
        assert report["validation"]["all_pass"] is True
        assert report["minimal_kappa"] == 1.0

    def test_empty_big_complex_writes_an_infinite_minimal_kappa(self, tmp_path):
        # one 0-cell on the small side against none on the big side: no kappa
        # meets the cells bound, and the infinity is written as the string "inf"
        data = {
            "big": {"alpha": 0, "cell_counts": [0], "boundaries": []},
            "small": {"alpha": 0, "cell_counts": [1], "boundaries": []},
            "g": [{"rows": 1, "cols": 0, "entries": [[]]}],
            "h": [{"rows": 0, "cols": 1, "entries": []}],
            "rho": [],
        }
        out = tmp_path / "run"
        rc = main(["rebuild", "check", str(write_json(tmp_path / "empty.json", data)), "--T", "2",
                   "--out", str(out)])
        assert rc == 0
        assert '"minimal_kappa": "inf"' in (out / "rebuild_report.json").read_text()

    def test_subdivided_circle_finite_kappa(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["rebuild", "check", str(DATA / "subdiv_circle_8.json"), "--T", "8", "--out", str(out)])
        assert rc == 0
        report = read_json(out / "rebuild_report.json")
        assert isinstance(report["minimal_kappa"], float)
        assert report["minimal_kappa"] <= 4.0

    def test_explicit_kappa_quality_report(self, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "rebuild", "check", str(DATA / "subdiv_circle_8.json"),
            "--T", "8", "--kappa", "2", "--out", str(out),
        ])
        assert rc == 0
        report = read_json(out / "rebuild_report.json")
        assert report["quality"]["overall"] is True
        assert report["quality"]["log_convention"] == "natural"

    def test_corrupted_homotopy_exit_code(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["rebuild", "check", str(DATA / "corrupt_rho.json"), "--T", "8", "--out", str(out)])
        assert rc == 4
        report = read_json(out / "rebuild_report.json")
        assert report["validation"]["all_pass"] is False
        assert {"name": "homotopy degree 0", "passed": False} in report["validation"]["checks"]

    def test_maps_that_are_no_list_are_an_input_error(self, tmp_path, capsys):
        data = read_json(DATA / "identity.json")
        data["g"] = {}
        out = tmp_path / "run"
        assert main(["rebuild", "check", str(write_json(tmp_path / "g.json", data)), "--T", "1",
                     "--out", str(out)]) == 2
        assert "field 'g'" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_matrix_entry_is_refused_not_truncated(self, tmp_path, capsys):
        data = read_json(DATA / "subdiv_circle_8.json")
        entries = data["big"]["boundaries"][0]["entries"]
        assert entries[0][0] == -1
        entries[0][0] = -1.5  # int() would silently read it as -1
        path = write_json(tmp_path / "frac.json", data)
        rc = main(["rebuild", "check", str(path), "--T", "8", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "field 'big': field 'boundaries': field 'entries'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


json_scalars = (
    st.integers(-(10**30), 10**30)
    | st.booleans()
    | st.none()
    | st.text()
    | st.floats()
    | st.fractions()
)
# json sorts keys before converting them, so one dict holds comparable keys
json_keys = st.text(max_size=5) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()
# lists of int-valued dicts, mostly sharing their keys: the writer's row path
edge_keys = st.sampled_from(["u", "v", "label", "ü", "%d"])
edge_lists = st.sets(edge_keys, max_size=4).flatmap(
    lambda keys: st.lists(
        st.fixed_dictionaries({k: st.integers(-5, 5) for k in keys})
        | st.dictionaries(edge_keys, st.integers(-5, 5) | st.booleans(), max_size=4),
        max_size=4,
    )
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=1)
    | st.dictionaries(st.integers(-3, 3) | st.floats(allow_nan=False) | st.booleans(), inner, max_size=4)
    | edge_lists,
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_report_writer_matches_json_dumps(value):
    want = json.dumps(value, indent=2, sort_keys=True, default=_jsonable)
    assert report_json(value) == want


def test_report_writer_keeps_the_bare_infinity_of_nested_floats():
    # json never hands a float to default=, so a nested -inf is written as
    # the bare -Infinity (not valid JSON); digests pin these bytes
    body = {"log_norm": float("-inf"), "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 1}], "e": []}
    assert report_json(body) == json.dumps(body, indent=2, sort_keys=True, default=_jsonable)
    assert '"log_norm": -Infinity' in report_json(body)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, {("k",): 1}, [{"a": 1}, {1: 2}, {"a": 1, 1: 2}]])
def test_report_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(Exception) as want:
        json.dumps(value, indent=2, sort_keys=True, default=_jsonable)
    with pytest.raises(want.type):
        report_json(value)


class TestManifests:
    def test_manifest_records_run_and_reports_reference_it(self, tmp_path):
        out = tmp_path / "run"
        main(["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..3", "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "homology"
        assert manifest["inputs"] == [str(DATA / "Z.json")]
        assert manifest["parameters"] == {"chain": "abelian:n=1..3", "primes": [], "budget": DEFAULT_BUDGET}
        assert manifest["tool_version"]
        assert manifest["timestamp"]
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert "betti_q.csv" in manifest["outputs"]
        for name in manifest["outputs"]:
            if name.endswith(".json"):
                assert read_json(out / name)["manifest"] == "manifest.json"

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..4", "--primes", "2"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        names = [n for n in read_json(a / "manifest.json")["outputs"]]
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["raag", "analyze", "c4.json", "--radius", "3"],
        ["qnormal", "verify", "golden_chain.json", "--budget", "5"],
        ["rebuild", "check", "identity.json", "--T", "1", "--budget", "5"],
        ["homology", "Z.json", "--chain", "abelian:n=1..3", "--radius", "3"],
        ["farber", "Z.json", "--chain", "abelian:n=1..3", "--gammas", "a", "--radius", "3"],
    ], ids=" ".join)
    def test_options_a_command_does_not_read_are_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "run"
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_import_leaves_numpy_out(self):
        code = "import sys, chainlab.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "chainlab", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "chainlab" in proc.stdout


# ------------------------------------------------------- exit-code contract

# (argv before the job file, job file in data/, argv after it)
FUZZ_JOBS = (
    (["qnormal", "verify"], "golden_chain.json", []),
    (["qnormal", "verify"], "c4_chain.json", []),
    (["qnormal", "verify"], "broken_chain.json", []),
    (["qnormal", "graph"], "plane_graph_job.json", []),
    (["qnormal", "blowup"], "plane_blowup_job.json", []),
    (["qnormal", "trim"], "trim_job.json", []),
    (["raag", "analyze"], "c4.json", []),
    (["raag", "analyze"], "p3.json", []),
    (["rebuild", "check"], "subdiv_circle_8.json", ["--T", "8"]),
)
DELETE = "<delete the key>"
# small numbers only, so that no mutated budget or radius starts a large
# enumeration; 9 is beyond the rank of every group in data/
MUTATIONS = (DELETE, None, "x", 0, -1, 1.5, [], {}, [0], 9)


def _field_paths(value, prefix=()):
    """Paths to every field of a JSON value, the first three entries of each list."""
    paths = [prefix] if prefix else []
    if isinstance(value, dict):
        for key, item in value.items():
            paths += _field_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value[:3]):
            paths += _field_paths(item, prefix + (i,))
    return paths


def _mutated(job, path, mutation):
    job = copy.deepcopy(job)
    parent = job
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DELETE:
        if isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    else:
        parent[path[-1]] = mutation
    return job


FUZZ_CASES = [
    (head, read_json(DATA / name), tail, _field_paths(read_json(DATA / name)))
    for head, name, tail in FUZZ_JOBS
]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def mutated_jobs(draw):
    head, job, tail, paths = draw(st.sampled_from(FUZZ_CASES))
    path = draw(st.sampled_from(paths))
    return head, _mutated(job, path, draw(st.sampled_from(MUTATIONS))), tail


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_jobs())
def test_mutated_data_jobs_keep_the_exit_code_contract(tmp_path_factory, case):
    head, job, tail = case
    work = tmp_path_factory.mktemp("fuzz")
    path = write_json(work / "job.json", job)
    err = io.StringIO()
    out = work / "out"
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(head + [str(path)] + tail + ["--out", str(out)])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # exit 2 or 3 writes nothing (nor does a VerificationFailure, exit 4);
    # a run that writes lists in its manifest what it wrote
    assert out.exists() == (code == 0) or code == 4
    if out.exists():
        manifest = read_json(out / "manifest.json")
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["inputs"] == [str(path)]
        for written in out.glob("*.json"):  # strict JSON: no NaN or Infinity
            json.loads(written.read_text(), parse_constant=_refuse_constant)


# (argv before the data file, data file, argv after it, the options to drive);
# the graph and trim jobs lose their own radius field so that --radius decides
OPTION_JOBS = (
    (["homology"], "Z.json", ["--chain", "abelian:n=1..3"], ("--chain", "--primes", "--budget")),
    (["farber"], "Z.json", ["--chain", "abelian:n=1..3", "--gammas", "a"], ("--chain", "--eps", "--budget")),
    (["qnormal", "graph"], "plane_graph_job.json", [], ("--radius", "--budget")),
    (["qnormal", "trim"], "trim_job.json", [], ("--radius", "--budget", "--bound")),
    (["qnormal", "blowup"], "plane_blowup_job.json", [], ("--radius", "--budget")),
)
OPTION_VALUES = ("nan", "inf", "-1", "0", str(10**30), "", "x")
# a chain value also goes in where a chain spec holds a number
CHAIN_FORMS = ("{}", "abelian:n={}", "cyclic:n=1..{}", "cyclic:n=2,gen={}")


@st.composite
def option_runs(draw):
    head, name, tail, options = draw(st.sampled_from(OPTION_JOBS))
    option = draw(st.sampled_from(options))
    value = draw(st.sampled_from(OPTION_VALUES))
    if option == "--chain":
        value = draw(st.sampled_from(CHAIN_FORMS)).format(value)
    return head, name, tail + [option, value]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option_runs())
def test_option_values_keep_the_exit_code_contract(tmp_path_factory, case):
    import chainlab.coset as coset

    head, name, tail = case
    work = tmp_path_factory.mktemp("options")
    job = read_json(DATA / name)
    job.pop("radius", None)
    path = write_json(work / name, job)
    out = work / "out"
    err = io.StringIO()
    # a radius of 10**30 grows a ball until it passes the vertex cap, and its
    # representative words grow with it; a small cap keeps that run short
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(coset, "DEFAULT_BUDGET", 200):
        try:
            code = main(head + [str(path)] + tail + ["--out", str(out)])
        except SystemExit as exc:  # argparse refuses a value its type rejects
            code = exc.code
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert not out.exists()
