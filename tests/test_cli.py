import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocot import SearchConfig, SolverConfig
from ocot.cli import _search_config, build_parser, main
from ocot.search import COLOR_TAUS

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSolveCommand:
    def test_unconstrained_round_trip(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "p.json", {"a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]]}
        )
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(0.0, abs=1e-3)
        assert doc["termination"] == "tol"
        assert doc["constraints"] == []

    def test_forced_top_objective(self, capsys):
        code, out, _ = run(capsys, "solve", DATA / "analytic_2x2.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == pytest.approx(0.5, abs=1e-3)
        assert doc["constraints"] == [[0, 1]]
        # the certified lower bound never exceeds the LP optimum of 0.5
        assert 0.5 - 1e-3 <= doc["lower_bound"] <= 0.5 + 1e-12

    def test_emit_z(self, capsys):
        code, out, _ = run(capsys, "solve", DATA / "analytic_2x2.json", "--emit-z")
        doc = json.loads(out)
        assert code == 0 and "plan_z" in doc
        assert np.asarray(doc["plan_z"]).min() >= 0.0

    def test_missing_key_is_parse_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", {"a": [0.5, 0.5], "D": [[0, 1], [1, 0]]})
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "missing required key 'b'" in err

    def test_invalid_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", path)
        assert code == 2

    def test_renormalize_file_key(self, capsys, tmp_path):
        doc = {"a": [0.6, 0.3], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], "renormalize": True}
        path = write_json(tmp_path, "renorm.json", doc)
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        plan = np.asarray(json.loads(out)["plan"])
        assert plan.sum(axis=1) == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_unnormalized_without_flag_rejected(self, capsys, tmp_path):
        doc = {"a": [0.6, 0.3], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]]}
        path = write_json(tmp_path, "unnorm.json", doc)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "NotNormalized" in err

    def test_constraint_out_of_range(self, capsys, tmp_path):
        doc = {"a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], "constraints": [[2, 0]]}
        path = write_json(tmp_path, "oob.json", doc)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "ShapeMismatch" in err

    @pytest.mark.parametrize("pairs", [[1, 2], [["a", 0]], [[0.7, 1]]])
    def test_malformed_constraints_are_parse_errors(self, capsys, tmp_path, pairs):
        doc = {"a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], "constraints": pairs}
        path = write_json(tmp_path, "bad.json", doc)
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "ParseError" in err

    def test_labels_echoed(self, capsys, tmp_path):
        doc = {
            "a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]],
            "labels_rows": ["red", "blue"], "labels_cols": ["dark", "light"],
        }
        path = write_json(tmp_path, "lab.json", doc)
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        got = json.loads(out)
        assert got["labels_rows"] == ["red", "blue"]
        assert got["labels_cols"] == ["dark", "light"]

    def test_bad_config_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", DATA / "analytic_2x2.json", "--tol", "0")
        assert code == 3
        assert "InvalidConfig" in err

    def test_output_round_trips_exactly(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = run(
            capsys, "solve", DATA / "analytic_2x2.json", "--output", out_path
        )
        assert code == 0
        first = json.loads(out_path.read_text())
        # serialize the parsed plan again: decimal repr round-trips bit-exactly
        second = json.loads(json.dumps(first))
        assert np.array_equal(np.asarray(first["plan"]), np.asarray(second["plan"]))


class TestSearchCommand:
    def test_prune_flag_equivalence_on_fixture(self, capsys, tmp_path):
        args = [
            "search", DATA / "search_4x4.json",
            "--tau1", "0.6", "--tau2", "1.0", "--k1", "500", "--k2", "3", "--k3", "2",
            "--tol", "1e-6", "--max-iters", "30000",
        ]
        code, out_on, _ = run(capsys, *args)
        assert code == 0
        code, out_off, _ = run(capsys, *args, "--no-prune")
        assert code == 0
        on = json.loads(out_on)["candidates"]
        off = json.loads(out_off)["candidates"]
        assert [c["constraints"] for c in on] == [c["constraints"] for c in off]
        for ca, cb in zip(on, off):
            assert ca["objective"] == pytest.approx(cb["objective"], abs=1e-6)

    def test_dot_export_is_well_formed(self, capsys, tmp_path):
        dot_path = tmp_path / "tree.dot"
        code, out, _ = run(
            capsys, "search", DATA / "search_4x4.json",
            "--tau1", "0.6", "--tau2", "1.0", "--k1", "20", "--k2", "2",
            "--dot", dot_path,
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph search {")
        assert text.rstrip().endswith("}")
        assert text.count("{") == text.count("}")
        nodes = set(re.findall(r"^\s*(n\d+) \[", text, flags=re.M))
        edges = re.findall(r"^\s*(n\d+) -> (n\d+);", text, flags=re.M)
        assert nodes and all(a in nodes and b in nodes for a, b in edges)
        doc = json.loads(out)
        assert doc["dot"] == text

    def test_k2_one_returns_unconstrained_plan(self, capsys):
        code, out, _ = run(
            capsys, "search", DATA / "search_4x4.json",
            "--tau1", "0.6", "--tau2", "1.0", "--k1", "50", "--k2", "1",
        )
        assert code == 0
        candidates = json.loads(out)["candidates"]
        assert len(candidates) == 1
        assert candidates[0]["constraints"] == []

    def test_ranked_candidates_and_tree(self, capsys):
        code, out, _ = run(
            capsys, "search", DATA / "search_4x4.json",
            "--tau1", "0.6", "--tau2", "1.0", "--k1", "40", "--k2", "3",
        )
        doc = json.loads(out)
        ranks = [c["rank"] for c in doc["candidates"]]
        assert ranks == sorted(ranks)
        objs = [c["objective"] for c in doc["candidates"]]
        assert objs == sorted(objs)
        assert doc["tree"][0]["status"] == "root"
        assert set(doc["subtree"]).issuperset({0})
        for node in doc["tree"]:
            solved = node["status"] in ("root", "solved")
            assert (node["termination"] is not None) == solved
            assert (node["lower_bound"] is not None) == solved

    def test_tree_reports_iterations_for_every_node(self, capsys, tmp_path):
        # a 14x8 search whose later solves end dominated: every node carries
        # its solve's iterations (null when not solved), and only solves that
        # ended on tol carry an objective
        rng = np.random.default_rng(1)
        D = rng.random((14, 8))
        path = write_json(
            tmp_path, "p.json", {"a": [1 / 14] * 14, "b": [1 / 8] * 8, "D": D.tolist()}
        )
        code, out, _ = run(
            capsys, "search", path,
            "--tau1", "0.5", "--tau2", "1.0", "--k1", "20", "--k2", "5", "--k3", "2",
        )
        assert code == 0
        tree = json.loads(out)["tree"]
        solved = [node for node in tree if node["status"] in ("root", "solved")]
        assert len(solved) == 21
        assert {node["termination"] for node in solved} == {"tol", "dominated"}
        for node in tree:
            if node["status"] in ("root", "solved"):
                assert isinstance(node["iterations"], int) and node["iterations"] >= 1
            else:
                assert node["iterations"] is None
            assert (node["objective"] is not None) == (node["termination"] == "tol")


class TestBoundCommand:
    def test_analytic_fixture(self, capsys):
        code, out, _ = run(capsys, "bound", DATA / "analytic_2x2.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(0.5)
        assert doc["row_branch"]["min"] == pytest.approx(0.5)
        assert "argmin_x" in doc["row_branch"]

    def test_zero_costs(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "z.json",
            {"a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 0], [0, 0]], "constraints": [[0, 1]]},
        )
        code, out, _ = run(capsys, "bound", path)
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(0.0)

    def test_repeated_row_exit(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "r.json",
            {
                "a": [0.5, 0.5],
                "b": [0.25, 0.25, 0.5],
                "D": [[0, 1, 2], [1, 0, 2]],
                "constraints": [[0, 0], [0, 1]],
            },
        )
        code, _, err = run(capsys, "bound", path)
        assert code == 2
        assert "RepeatedIndices" in err


class TestColorTransfer:
    def test_identity_palettes_keep_colors(self, capsys, tmp_path):
        table = "a,0.5,10,20,30\nb,0.5,200,210,220\n"
        src = tmp_path / "s.csv"
        tgt = tmp_path / "t.csv"
        src.write_text(table)
        tgt.write_text(table)
        code, out, _ = run(capsys, "color-transfer", src, tgt, "--k2", "1", "--tol", "1e-6")
        assert code == 0
        mapping = json.loads(out)["candidates"][0]["mapping"]
        assert mapping[0]["r"] == pytest.approx(10, abs=1e-2)
        assert mapping[1]["b"] == pytest.approx(220, abs=1e-2)

    def test_single_target_forces_color(self, capsys, tmp_path):
        src = tmp_path / "s.csv"
        tgt = tmp_path / "t.csv"
        src.write_text("a,0.4,10,20,30\nb,0.6,200,210,220\n")
        tgt.write_text("t,1.0,90,90,90\n")
        code, out, _ = run(capsys, "color-transfer", src, tgt, "--k2", "1")
        assert code == 0
        for row in json.loads(out)["candidates"][0]["mapping"]:
            for channel in ("r", "g", "b"):
                assert row[channel] == pytest.approx(90.0, abs=1e-6)

    def test_forced_constraint_saturates(self, capsys):
        code, out, _ = run(
            capsys,
            "color-transfer",
            DATA / "color_source_5.csv",
            DATA / "color_target_2.csv",
            "--constraints", DATA / "color_constraints.csv",
        )
        assert code == 0
        doc = json.loads(out)
        cand = doc["candidates"][0]
        assert cand["constraints"] == [["s0", "t1"]]
        s0 = next(r for r in cand["mapping"] if r["segment_id"] == "s0")
        for channel in ("r", "g", "b"):
            assert abs(s0[channel] - 10.0) <= 1.0

    def test_unknown_segment_id(self, capsys, tmp_path):
        cons = tmp_path / "c.csv"
        cons.write_text("nope,t1\n")
        code, _, err = run(
            capsys,
            "color-transfer",
            DATA / "color_source_5.csv",
            DATA / "color_target_2.csv",
            "--constraints", cons,
        )
        assert code == 2

    def test_empty_table(self, capsys, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        code, _, err = run(capsys, "color-transfer", empty, DATA / "color_target_2.csv")
        assert code == 2
        assert "EmptyTable" in err

    def test_zero_weights(self, capsys, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("a,0,10,20,30\n")
        code, _, err = run(capsys, "color-transfer", src, DATA / "color_target_2.csv")
        assert code == 2
        assert "WeightSumZero" in err


class TestOracleCommands:
    def test_lp_subcommand(self, capsys):
        code, out, _ = run(capsys, "oracle", "lp", DATA / "analytic_2x2.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimum"] == pytest.approx(0.5)

    def test_lp_beyond_eight_per_side(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        D = rng.random((9, 9))
        doc = {"a": [1 / 9] * 9, "b": [1 / 9] * 9, "D": D.tolist(), "constraints": [[4, 2], [0, 7]]}
        code, out, _ = run(capsys, "oracle", "lp", write_json(tmp_path, "p.json", doc))
        assert code == 0
        doc = json.loads(out)
        plan = np.asarray(doc["plan"])
        assert plan.shape == (9, 9)
        assert plan[4, 2] >= plan[0, 7] - 1e-12
        assert doc["optimum"] == pytest.approx(float(np.sum(D * plan)), rel=1e-12)

    def test_lp_without_scipy(self, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        code, _, err = run(capsys, "oracle", "lp", DATA / "analytic_2x2.json")
        assert code == 2
        assert "'oracle' extra" in err

    def test_lp_infeasible_exit(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "inf.json",
            {
                "a": [0.9, 0.1],
                "b": [0.9, 0.1],
                "D": [[1, 1], [1, 1]],
                "constraints": [[1, 1]],
            },
        )
        code, _, err = run(capsys, "oracle", "lp", path)
        assert code == 4
        assert "Infeasible" in err

    def test_project_subcommand(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "proj.json", {"X": [[0.2, 0.8]], "constraints": [[0, 0]]}
        )
        code, out, _ = run(capsys, "oracle", "project", path)
        assert code == 0
        proj = np.asarray(json.loads(out)["projection"])
        np.testing.assert_allclose(proj, [[0.5, 0.5]], atol=1e-8)

    @pytest.mark.parametrize("pairs", [[1, 2], [["a", 0]], [[0.7, 1]]])
    def test_project_malformed_constraints(self, capsys, tmp_path, pairs):
        path = write_json(tmp_path, "proj.json", {"X": [[0.2, 0.8]], "constraints": pairs})
        code, _, err = run(capsys, "oracle", "project", path)
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"X": [["a", 0.8]]},
            {"X": [0.2, 0.8]},
            {"X": [[0.2, float("nan")]]},
            {"X": []},
            {"X": [[0.2, 0.8], [0.5]]},
            {"X": [[True, 0.8]]},
            {"X": [[0.2, 0.8]], "tol": "tight"},
            {"X": [[0.2, 0.8]], "tol": True},
            {"X": [[0.2, 0.8]], "tol": 0},
            {"X": [[0.2, 0.8]], "tol": -1e-8},
        ],
        ids=["string-entry", "1-d", "nan-entry", "empty", "ragged", "bool-entry",
             "string-tol", "bool-tol", "zero-tol", "negative-tol"],
    )
    def test_project_malformed_matrix_or_tol(self, capsys, tmp_path, fields):
        path = write_json(tmp_path, "proj.json", {**fields, "constraints": [[0, 0]]})
        code, _, err = run(capsys, "oracle", "project", path)
        assert code == 2
        assert "ParseError" in err

    def test_project_non_object_document(self, capsys, tmp_path):
        path = write_json(tmp_path, "proj.json", 3)
        code, _, err = run(capsys, "oracle", "project", path)
        assert code == 2
        assert "ParseError" in err


@pytest.mark.parametrize(
    "argv",
    [["solve", "p.json"], ["search", "p.json"], ["color-transfer", "s.csv", "t.csv"]],
)
def test_solver_flag_defaults_are_the_library_defaults(argv):
    # every command that solves takes --rho, --max-iters and --tol defaults
    # from ocot.admm, so the CLI and SolverConfig() run the same solver
    args = build_parser().parse_args(argv)
    cfg = SolverConfig()
    assert (args.rho, args.max_iters, args.tol) == (cfg.rho, cfg.max_iters, cfg.tol)


def test_search_flag_defaults_are_the_library_defaults():
    # with no flags, search runs SearchConfig() and color-transfer the same
    # budgets with the colour thresholds
    args = build_parser().parse_args(["search", "p.json"])
    assert _search_config(args) == SearchConfig()
    args = build_parser().parse_args(["color-transfer", "s.csv", "t.csv"])
    tau1, tau2 = COLOR_TAUS
    assert _search_config(args) == SearchConfig(tau1=tau1, tau2=tau2)


def test_search_help_shows_tau_defaults(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "self-saturation threshold (default 0.5)" in out
    assert "neighbourhood-saturation threshold (default 0.5)" in out


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only inside the LP oracle; loading it at startup
    # would add its import time and memory to every command
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import ocot, ocot.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
