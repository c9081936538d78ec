"""End-to-end runs of the command-line interface against the sample corpus."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chainlab.cli import main, parse_element
from chainlab.errors import InputError
from chainlab.qnormal import chain_to_dict, witness_set_to_dict
from chainlab.raag import artin_central_chain

DATA = Path(__file__).resolve().parent.parent / "data"


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

    def test_graph_job(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["qnormal", "graph", str(DATA / "plane_graph_job.json"), "--out", str(out)])
        assert rc == 0
        graph = read_json(out / "graph.json")
        assert graph["completeness"] == "ball(3)"
        assert len(graph["vertices"]) == 7
        assert graph["is_connected"] is True
        assert graph["stabilizer_witnesses_verified"] == [True] * len(graph["edges"])

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

    def test_freely_trivial_element_rejected_outside_graph_groups(self, tmp_path):
        group = write_json(tmp_path / "g.json", {"generators": ["a", "b"], "relators": [[2, 2]]})
        argv = ["farber", str(group), "--chain", "abelian:n=1..3", "--out", str(tmp_path / "o")]
        assert main(argv + ["--gammas", "a'a"]) == 2
        assert main(argv + ["--gammas", "a"]) == 0

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
    def test_identity_minimal_kappa(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["rebuild", "check", str(DATA / "identity.json"), "--T", "1", "--out", str(out)])
        assert rc == 0
        report = read_json(out / "rebuild_report.json")
        assert report["validation"]["all_pass"] is True
        assert report["minimal_kappa"] == 1.0

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


class TestManifests:
    def test_manifest_records_run_and_reports_reference_it(self, tmp_path):
        out = tmp_path / "run"
        main(["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..3", "--out", str(out)])
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "homology"
        assert manifest["inputs"] == [str(DATA / "Z.json")]
        assert manifest["parameters"]["chain"] == "abelian:n=1..3"
        assert manifest["tool_version"]
        assert manifest["timestamp"]
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
