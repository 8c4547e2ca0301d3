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


def write_csv(tmp_path, *texts):
    """Write each text to its own CSV file and return their paths in order."""
    paths = [tmp_path / f"table{i}.csv" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


def strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))


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
        # the certified lower bound never exceeds the LP optimum of 0.5, and
        # the polished plan's cost, emitted as the upper bound, is its objective
        assert 0.5 - 1e-3 <= doc["lower_bound"] <= 0.5 + 1e-12
        assert doc["upper_bound"] == doc["objective"]
        assert doc["upper_bound"] - doc["lower_bound"] <= 1e-3 * doc["lower_bound"]

    def test_uncertified_solve_emits_a_null_upper_bound(self, capsys):
        code, out, _ = run(capsys, "solve", DATA / "analytic_2x2.json", "--max-iters", "1")
        doc = json.loads(out)
        assert code == 0 and doc["termination"] == "max_iters"
        assert "upper_bound" in doc and doc["upper_bound"] is None

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

    def test_non_object_document_is_parse_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "list.json", [0.5, 0.5])
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "ParseError" in err and "expected a JSON object at top level" in err

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "ParseError" in err and "cannot read" in err

    @pytest.mark.parametrize("command", [("solve",), ("bound",), ("oracle", "lp")])
    @pytest.mark.parametrize(
        "field",
        [
            {"D": [[0, 1], [1]]},
            {"D": [[0, "x"], [1, 0]]},
            {"a": {"x": 1}},
            {"a": [True, False]},
            {"a": ["0.5", "0.5"]},
            {"D": [[0, True], [1, 0]]},
        ],
    )
    def test_malformed_arrays_are_parse_errors(self, capsys, tmp_path, command, field):
        doc = {"a": [0.5, 0.5], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], **field}
        path = write_json(tmp_path, "malformed.json", doc)
        code, _, err = run(capsys, *command, path)
        assert code == 2
        assert f"{next(iter(field))} is not a numeric array" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", DATA / "analytic_2x2.json", "--output"),
            ("search", DATA / "search_4x4.json", "--k1", "2", "--k2", "1", "--dot"),
        ],
    )
    def test_unwritable_output_is_parse_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, *argv, target)
        assert code == 2
        assert "cannot write" in err
        assert not target.parent.exists()

    def test_renormalize_file_key(self, capsys, tmp_path):
        doc = {"a": [0.6, 0.3], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], "renormalize": True}
        path = write_json(tmp_path, "renorm.json", doc)
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        plan = np.asarray(json.loads(out)["plan"])
        assert plan.sum(axis=1) == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_renormalize_key_must_be_boolean(self, capsys, tmp_path):
        doc = {"a": [1, 1], "b": [0.5, 0.5], "D": [[0, 1], [1, 0]], "renormalize": "no"}
        path = write_json(tmp_path, "renorm_str.json", doc)
        code, out, err = run(capsys, "bound", path)
        assert code == 2
        assert out == ""
        assert "renormalize must be true or false" in err

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

    def test_infinite_rho_exit_code(self, capsys):
        code, out, err = run(capsys, "solve", DATA / "analytic_2x2.json", "--rho", "inf")
        assert code == 3
        assert out == ""
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

    def test_minus_infinite_node_bound_is_null(self, capsys, tmp_path):
        # [(0, 1)] is solved before the top-2 set fills, so it has no bound;
        # [(1, 0)] and [(1, 1)] have empty bound ranges: -inf, written null
        doc = {"a": [0.9, 0.1], "b": [0.4, 0.6], "D": [[0.9, 0.5], [0.4, 0.8]]}
        path = write_json(tmp_path, "p.json", doc)
        with pytest.warns(RuntimeWarning, match="empty ranges"):
            code, out, _ = run(capsys, "search", path, "--k2", "2", "--tau1", "1", "--tau2", "1")
        assert code == 0
        tree = strict_json(out)["tree"]
        bounds = {str(n["constraints"]): n["bound"] for n in tree[1:]}
        expected = {"[[0, 1]]": None, "[[0, 0]]": pytest.approx(0.7), "[[1, 0]]": None}
        assert bounds == {**expected, "[[1, 1]]": None}

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
            if node["upper_bound"] is not None:
                assert node["termination"] == "tol"
                assert node["lower_bound"] <= node["upper_bound"] <= node["objective"]
        assert any(node["upper_bound"] is not None for node in solved)


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

    def test_infeasible_chain_bound_is_null(self, capsys):
        # both branch ranges are empty, so the bound is -inf: JSON has no
        # Infinity, and the document writes null
        with pytest.warns(RuntimeWarning, match="empty ranges"):
            code, out, _ = run(capsys, "bound", DATA / "infeasible_2x2.json")
        assert code == 0
        assert strict_json(out) == {"bound": None, "row_branch": None, "col_branch": None}

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
        src, tgt = write_csv(tmp_path, table, table)
        code, out, _ = run(capsys, "color-transfer", src, tgt, "--k2", "1", "--tol", "1e-6")
        assert code == 0
        candidate = json.loads(out)["candidates"][0]
        assert candidate["termination"] == "tol"
        mapping = candidate["mapping"]
        assert mapping[0]["r"] == pytest.approx(10, abs=1e-2)
        assert mapping[1]["b"] == pytest.approx(220, abs=1e-2)

    def test_single_target_forces_color(self, capsys, tmp_path):
        src, tgt = write_csv(tmp_path, "a,0.4,10,20,30\nb,0.6,200,210,220\n", "t,1.0,90,90,90\n")
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
        assert cand["termination"] == "tol"
        s0 = next(r for r in cand["mapping"] if r["segment_id"] == "s0")
        for channel in ("r", "g", "b"):
            assert abs(s0[channel] - 10.0) <= 1.0

    def test_failed_constrained_solve_reports_its_termination(self, capsys, tmp_path):
        # the chain ranks s0 -> t1 over s1 -> t1 over every other cell; t1 holds
        # 0.1, so s1 -> t1 is at most 0.05 while s0 -> t0 needs 0.6: the LP is
        # infeasible, the solve runs to its cap, and the candidate says so
        src, tgt, cons = write_csv(
            tmp_path, "s0,0.7,200,30,30\ns1,0.3,30,200,30\n",
            "t0,0.9,255,255,255\nt1,0.1,10,10,10\n", "s0,t1\ns1,t1\n",
        )
        code, out, _ = run(capsys, "color-transfer", src, tgt, "--constraints", cons)
        assert code == 0
        (cand,) = json.loads(out)["candidates"]
        assert cand["termination"] == "max_iters"

    def test_unknown_segment_id(self, capsys, tmp_path):
        (cons,) = write_csv(tmp_path, "nope,t1\n")
        code, _, err = run(
            capsys,
            "color-transfer",
            DATA / "color_source_5.csv",
            DATA / "color_target_2.csv",
            "--constraints", cons,
        )
        assert code == 2

    def test_empty_table(self, capsys, tmp_path):
        (empty,) = write_csv(tmp_path, "")
        code, _, err = run(capsys, "color-transfer", empty, DATA / "color_target_2.csv")
        assert code == 2
        assert "EmptyTable" in err

    def test_non_utf8_table_is_parse_error(self, capsys, tmp_path):
        src = tmp_path / "s.csv"
        src.write_bytes(b"s\xff,1,10,20,30\n")
        code, _, err = run(capsys, "color-transfer", src, DATA / "color_target_2.csv")
        assert code == 2
        assert "ParseError" in err and "cannot read" in err

    def test_short_first_row_is_not_a_header(self, capsys, tmp_path):
        (src,) = write_csv(tmp_path, "s0\ns1,0.5,1,2,3\ns2,0.5,4,5,6\n")
        code, _, err = run(capsys, "color-transfer", src, DATA / "color_target_2.csv")
        assert code == 2
        assert "expected 5 columns" in err

    def test_zero_weights(self, capsys, tmp_path):
        (src,) = write_csv(tmp_path, "a,0,10,20,30\n")
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

    def test_project_subcommand_is_gone(self, capsys):
        # ocot.project_c2_epava is the order-cone projection; argparse exits 2
        with pytest.raises(SystemExit) as info:
            main(["oracle", "project", str(DATA / "analytic_2x2.json")])
        assert info.value.code == 2
        assert "invalid choice: 'project'" in capsys.readouterr().err


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
