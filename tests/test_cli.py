"""CLI surface: exit codes, determinism, file round-trips."""

import csv
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from fvsbound.cli import main
from fvsbound.errors import InternalInvariantBroken, InvalidMerger
from fvsbound.fileio import read_graph, write_graph
from fvsbound.graph import Graph
from fvsbound.instances import make_named, random_cubic_2connected, random_planar_girth
from fvsbound.oracle import min_fvs_exact
from fvsbound.planar import embed

from bruteforce import shallow_recursion_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def one_error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


# K4 on 0..3 with vertex 4 hanging off 0, so `--alg auto` goes to the planar
# solver. The first rotation leaves 4 out of the ring at 0; the second lists
# every ring in ascending order, which embeds K4 on the torus.
K4_PENDANT = Graph(range(5), [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(0, 4)])
BAD_ROTATIONS = {
    "not-a-permutation": {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2), 4: (0,)},
    "not-plane": {0: (1, 2, 3, 4), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2), 4: (0,)},
}


FLOAT_JSON = ('{"format": "fvsbound-graph", "version": 1, "vertices": [0.5, 1.5, 2.5, true], '
              '"edges": [[0, 1, 1.5], [1, 2], [2, 0]], "rotation": null, "meta": {}}')

# Keys "1" and "01" both name vertex 1 of the triangle.
TWICE_ROTATED_JSON = ('{"format": "fvsbound-graph", "version": 1, "vertices": [0, 1, 2], '
                      '"edges": [[0, 1], [1, 2], [2, 0]], "meta": {}, '
                      '"rotation": {"0": [1, 2], "1": [0, 2], "01": [2, 0], "2": [0, 1]}}')

# K4 whose ring at vertex 3 is keyed by the Arabic-Indic digit three, written
# as a JSON escape, so the file itself is ASCII.
NON_ASCII_KEY_JSON = ('{"format": "fvsbound-graph", "version": 1, "vertices": [0, 1, 2, 3], '
                      '"edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], "meta": {}, '
                      '"rotation": {"0": [1, 2, 3], "1": [0, 3, 2], "2": [0, 1, 3], '
                      '"\\u0663": [0, 2, 1]}}')

# A triangle whose rotation leaves out vertex 2.
PARTIAL_ROTATION_JSON = ('{"format": "fvsbound-graph", "version": 1, "vertices": [0, 1, 2], '
                         '"edges": [[0, 1], [1, 2], [2, 0]], "meta": {}, '
                         '"rotation": {"0": [1, 2], "1": [2, 0]}}')


# A triangle whose rotation names an undeclared vertex 7, or repeats a neighbor.
TRIANGLE = "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\n"
TRIANGLE_JSON = {"format": "fvsbound-graph", "version": 1, "vertices": [0, 1, 2],
                 "edges": [[0, 1], [1, 2], [2, 0]], "meta": {}}
FOREIGN_ROTATIONS = {
    "undeclared.g": TRIANGLE + "r 0: 1 2\nr 1: 2 0\nr 2: 0 1\nr 7: 0\n",
    "repeated.g": TRIANGLE + "r 0: 1 1\nr 1: 2 0\nr 2: 0 1\n",
    "undeclared.json": json.dumps(TRIANGLE_JSON | {"rotation": {
        "0": [1, 2], "1": [2, 0], "2": [0, 1], "7": [0]}}),
    "repeated.json": json.dumps(TRIANGLE_JSON | {"rotation": {
        "0": [1, 1], "1": [2, 0], "2": [0, 1]}}),
}

ZERO_TRIANGLE = Graph(range(3), [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
# The wheel W4 with hub 4 and every weight 0: its hub sends `auto` to the planar solver.
ZERO_W4 = Graph(range(5), [(4, i, 0) for i in range(4)] + [(i, (i + 1) % 4, 0) for i in range(4)])


def write_pendant_triangle(path):
    """A unit-weight triangle with five weight-0 pendant edges at vertex 0."""
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)] + [(0, k, 0) for k in range(3, 8)]
    write_graph(str(path), Graph(range(8), edges), name="pendant-triangle")


class TestGen:
    def test_cube_round_trips(self, tmp_path, capsys):
        out = tmp_path / "cube.g"
        code, _ = run(capsys, "gen", "cube", str(out))
        assert code == 0
        assert read_graph(str(out)).graph == make_named("cube").graph

    def test_cycles(self, tmp_path, capsys):
        out = tmp_path / "cyc.g"
        code, _ = run(capsys, "gen", "cycles", "--k", "2", "--g", "4", str(out))
        assert code == 0
        g = read_graph(str(out)).graph
        assert g.n == 8 and g.m == 8

    def test_random_cubic_rejects_odd(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "random-cubic", "--n", "3",
                      str(tmp_path / "x.g"))
        assert code == 2

    def test_triangle_replace(self, tmp_path, capsys):
        out = tmp_path / "tr.g"
        code, _ = run(capsys, "gen", "triangle-replace", "--of", "petersen", str(out))
        assert code == 0
        assert read_graph(str(out)).graph.n == 30

    @pytest.mark.parametrize("g", ["0", "2"])
    def test_random_planar_rejects_girth_below_3(self, tmp_path, capsys, g):
        out = tmp_path / "x.g"
        code = main(["gen", "random-planar", "--n", "20", "--g", g, str(out)])
        assert code == 2
        assert one_error_line(capsys)
        assert not out.exists()

    def test_unknown_spec(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "nonsense", str(tmp_path / "x.g"))
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = main(["gen", "k4", str(tmp_path / "missing" / "x.g")])
        assert code == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("argv, message", [
        (["random-cubic"], "random-cubic needs --n"),
        (["random-planar", "--g", "5"], "random-planar needs --n"),
        (["triangle-replace"], "triangle-replace needs --of <name>"),
        (["cycles", "--k", "2"], "cycles needs --k and --g"),
        (["chain0"], "chain needs at least one block"),
    ], ids=["random-cubic", "random-planar", "triangle-replace", "cycles", "chain0"])
    def test_spec_without_what_it_needs_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.g"
        code = main(["gen", *argv, str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestStats:
    def test_dodecahedron(self, tmp_path, capsys):
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code, out = run(capsys, "stats", str(path))
        assert code == 0
        assert "girth = 5" in out
        assert "bound m/g = 6" in out
        assert "bound 4m/3g = 8" in out
        assert "bound 2m/g = 12" in out

    def test_cube(self, tmp_path, capsys):
        path = tmp_path / "c.g"
        run(capsys, "gen", "cube", str(path))
        code, out = run(capsys, "stats", str(path))
        assert "bound m/g = 3" in out
        assert "bound 4m/3g = 4" in out
        assert "bound 2m/g = 6" in out

    def test_k33_suppresses_bounds(self, tmp_path, capsys):
        path = tmp_path / "k.g"
        run(capsys, "gen", "k33", str(path))
        code, out = run(capsys, "stats", str(path))
        assert code == 0
        assert "planar = no" in out
        assert "bound" not in out.replace("bounds suppressed", "")

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("nonsense\n")
        code, _ = run(capsys, "stats", str(bad))
        assert code == 2

    def test_negative_ids_up_to_minus_one(self, tmp_path, capsys):
        # The readers accept any integer id, so no id may serve as a
        # traversal's "no parent" mark.
        path = tmp_path / "c5.g"
        write_graph(str(path), Graph(range(-5, 0), [(v, v + 1) for v in range(-5, -1)] + [(-5, -1)]))
        code, out = run(capsys, "stats", str(path))
        assert code == 0
        assert "girth = 5" in out
        code, out = run(capsys, "solve", str(path), "--alg", "planar")
        assert code == 0
        assert "bound satisfied = yes" in out

    def test_forest_suppresses_bounds(self, tmp_path, capsys):
        path = tmp_path / "p3.g"
        write_graph(str(path), Graph(range(3), [(0, 1), (1, 2)]))
        code, out = run(capsys, "stats", str(path))
        assert code == 0
        assert out.endswith("planar = yes\nfaces = 1\nbounds suppressed: forest\n")

    @pytest.mark.parametrize("command", [["stats"], ["solve", "--alg", "planar"]],
                             ids=["stats", "solve"])
    def test_rotation_that_is_not_plane_reported_unwrapped(self, tmp_path, capsys, command):
        path = tmp_path / "k4-pendant.g"
        rings = BAD_ROTATIONS["not-plane"]
        path.write_text("".join([f"graph 1 {K4_PENDANT.n}\n"]
                                + [f"v {v}\n" for v in K4_PENDANT.vertices]
                                + [f"e {u} {v}\n" for u, v in K4_PENDANT.edges()]
                                + [f"r {v}: {' '.join(map(str, rings[v]))}\n" for v in rings]))
        code = main([command[0], str(path), *command[1:]])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: face count 2 != m - n + 2c = 4; rotation is not a plane embedding\n")

    def test_connectivity_of_a_400_vertex_cubic_graph_is_quick(self, tmp_path, capsys):
        path = tmp_path / "c400.g"
        write_graph(str(path), random_cubic_2connected(400, 1))
        start = time.perf_counter()
        code, out = run(capsys, "stats", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "vertex_connectivity = 3+" in out
        assert "edge_connectivity = 3+" in out


class TestSolve:
    def test_k4_cubic(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        code, out = run(capsys, "solve", str(path), "--alg", "cubic")
        assert code == 0
        assert "|S| = 2" in out
        assert "bound satisfied = yes" in out

    def test_dodecahedron_planar(self, tmp_path, capsys):
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code, out = run(capsys, "solve", str(path), "--alg", "planar")
        assert code == 0
        assert "bound = 8" in out

    def test_k33_planar_rejected(self, tmp_path, capsys):
        path = tmp_path / "k.g"
        run(capsys, "gen", "k33", str(path))
        code, _ = run(capsys, "solve", str(path), "--alg", "planar")
        assert code == 2

    def test_g_override(self, tmp_path, capsys):
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code, _ = run(capsys, "solve", str(path), "--alg", "planar", "--g", "4")
        assert code == 0
        code, _ = run(capsys, "solve", str(path), "--alg", "planar", "--g", "6")
        assert code == 2  # larger than the true girth

    def test_zero_weight_cycle_baseline_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero-triangle.g"
        write_graph(str(path), ZERO_TRIANGLE)
        code = main(["solve", str(path), "--alg", "trivial"])
        assert code == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("alg", ["planar", "auto"])
    def test_light_weighted_cycle_names_the_minimum_cycle_weight(self, tmp_path, capsys, alg):
        path = tmp_path / "w4.g"
        write_graph(str(path), ZERO_W4)
        code = main(["solve", str(path), "--alg", alg])
        assert code == 2
        assert capsys.readouterr().err == "error: minimum cycle weight 0 is below 3\n"

    def test_broken_invariant_exits_3(self, tmp_path, capsys, monkeypatch):
        import fvsbound.cubic as cubic_module

        def sabotaged(graph, rule, match):
            raise InternalInvariantBroken("injected for testing")

        monkeypatch.setattr(cubic_module, "apply_rule", sabotaged)
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code = main(["solve", str(path), "--alg", "cubic"])
        err = capsys.readouterr().err
        assert code == 3
        assert "error: injected for testing" in err
        assert "Traceback" not in err

    def test_stray_fvs_error_exits_2(self, tmp_path, capsys, monkeypatch):
        import fvsbound.cubic as cubic_module

        def stray(graph, rule, match):
            raise InvalidMerger("injected for testing")

        monkeypatch.setattr(cubic_module, "apply_rule", stray)
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code = main(["solve", str(path), "--alg", "cubic"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: injected for testing\n")

    @pytest.mark.parametrize("rotation", sorted(BAD_ROTATIONS))
    @pytest.mark.parametrize("command", [["solve", "--alg", "planar"], ["solve", "--alg", "trivial"],
                                         ["solve", "--alg", "auto"], ["stats"]],
                             ids=["planar", "trivial", "auto", "stats"])
    def test_bad_rotation_exits_2(self, tmp_path, capsys, command, rotation):
        # Written as text by hand: the writer refuses a ring that is not a
        # permutation of its neighbors.
        path = tmp_path / "k4-pendant.g"
        rings = BAD_ROTATIONS[rotation]
        path.write_text("".join([f"graph 1 {K4_PENDANT.n}\n"]
                                + [f"v {v}\n" for v in K4_PENDANT.vertices]
                                + [f"e {u} {v}\n" for u, v in K4_PENDANT.edges()]
                                + [f"r {v}: {' '.join(map(str, rings[v]))}\n" for v in rings]))
        code = main([command[0], str(path), *command[1:]])
        assert code == 2
        assert one_error_line(capsys)

    def test_hub_of_degree_300_solves_in_a_shallow_stack(self, tmp_path, capsys):
        # A hub of degree 300 takes 297 P3 splits, which no longer nest.
        wheel = Graph(range(301), [(300, i) for i in range(300)]
                      + [(i, (i + 1) % 300) for i in range(300)])
        path = tmp_path / "w300.g"
        write_graph(str(path), wheel, rotation=embed(wheel))
        with shallow_recursion_limit(100):
            code, out = run(capsys, "solve", str(path))
        assert code == 0
        assert "bound satisfied = yes" in out

    def test_recursion_error_exits_3(self, tmp_path, capsys, monkeypatch):
        import fvsbound.cli as cli_module

        def too_deep(graph):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli_module, "solve_cubic", too_deep)
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        code = main(["solve", str(path), "--alg", "cubic"])
        assert code == 3
        assert one_error_line(capsys)

    @pytest.mark.parametrize("name, text", [("minus.g", "graph 1 1\nv --1\n"),
                                            ("deep.json", "[" * 100000)],
                             ids=["double-minus", "nested-json"])
    def test_unparsable_id_or_nesting_exits_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code = main(["solve", str(path)])
        assert code == 2
        assert one_error_line(capsys)

    def test_non_integer_json_numbers_exit_2(self, tmp_path, capsys):
        # int() would read this as the triangle 0-1-2 plus vertex 1 again.
        path = tmp_path / "float.json"
        path.write_text(FLOAT_JSON)
        code = main(["solve", str(path), "--alg", "cubic"])
        assert code == 2
        assert one_error_line(capsys)

    def test_json_rotation_naming_a_vertex_twice_exits_2(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(TWICE_ROTATED_JSON)
        code = main(["solve", str(path)])
        assert code == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("command", ["stats", "solve"])
    @pytest.mark.parametrize("extra", [{"name": "x\nv 9"}, {"meta": {"q r": "1"}}],
                             ids=["name", "meta"])
    def test_json_name_or_meta_that_text_cannot_carry_exits_2(self, tmp_path, capsys,
                                                              command, extra):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(TRIANGLE_JSON | extra))
        assert main([command, str(path)]) == 2
        assert one_error_line(capsys)

    def test_json_rotation_key_in_non_ascii_digits_exits_2(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text(NON_ASCII_KEY_JSON)
        code = main(["solve", str(path)])
        assert code == 2
        assert one_error_line(capsys)

    @pytest.mark.parametrize("name, text", [
        ("partial.g", "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\nr 0: 1 2\nr 1: 2 0\n"),
        ("partial.json", PARTIAL_ROTATION_JSON),
    ], ids=["text", "json"])
    def test_rotation_missing_a_vertex_exits_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", str(path), "--alg", "auto"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("rotation missing vertices [2]\n")

    @pytest.mark.parametrize("name", sorted(FOREIGN_ROTATIONS))
    @pytest.mark.parametrize("command", [["solve", "--alg", alg] for alg in
                                         ("auto", "cubic", "planar", "trivial", "exact")]
                             + [["stats"]],
                             ids=["auto", "cubic", "planar", "trivial", "exact", "stats"])
    def test_rotation_foreign_to_the_graph_exits_2(self, tmp_path, capsys, command, name):
        # The triangle would go to the cubic solver, which reads no rotation.
        path = tmp_path / name
        path.write_text(FOREIGN_ROTATIONS[name])
        assert main([command[0], str(path), *command[1:]]) == 2
        assert one_error_line(capsys)

    def test_bad_ring_named_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "ring.g"
        path.write_text(TRIANGLE + "r 0: 1 1\nr 1: 2 0\nr 2: 0 1\n# end\n")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: line 8: rotation at 0 is not a permutation of its neighbors\n")

    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "c.g"
        run(capsys, "gen", "cube", str(path))
        code, out = run(capsys, "solve", str(path), "--alg", "exact")
        assert code == 0
        assert "|S| = 3" in out

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "d.g"
        trace = tmp_path / "trace.txt"
        run(capsys, "gen", "dodecahedron", str(path))
        code, _ = run(capsys, "solve", str(path), "--alg", "cubic",
                      "--trace", str(trace))
        assert code == 0
        body = trace.read_text()
        assert "R7_generic" in body

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        code = main(["solve", str(path), "--trace", str(tmp_path / "missing" / "t.txt")])
        assert code == 2
        assert one_error_line(capsys)

    def test_deterministic_stdout(self, tmp_path, capsys):
        path = tmp_path / "d.g"
        run(capsys, "gen", "dodecahedron", str(path))
        _, out1 = run(capsys, "solve", str(path))
        _, out2 = run(capsys, "solve", str(path))
        assert out1 == out2


class TestVerify:
    def test_oracle_witness_passes(self, tmp_path, capsys):
        path = tmp_path / "cube.g"
        run(capsys, "gen", "cube", str(path))
        witness = min_fvs_exact(make_named("cube").graph).witness
        fvs = tmp_path / "s.txt"
        fvs.write_text(" ".join(map(str, sorted(witness))) + "\n")
        code, _ = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 0

    def test_invalid_set(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_text("0\n")
        code, _ = run(capsys, "verify", str(path), str(fvs))
        assert code == 1

    def test_valid_but_bound_violated(self, tmp_path, capsys):
        path = tmp_path / "cube.g"
        run(capsys, "gen", "cube", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_text("0 1 2 3 4 5\n")  # valid but bigger than 4m/3g = 4
        code, _ = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 4

    def test_weighted_file_gets_weighted_bound(self, tmp_path, capsys):
        # weight 3, minimum cycle weight 3: the bound is 4*3 / (3*3) = 4/3
        path = tmp_path / "w.g"
        write_pendant_triangle(path)
        fvs = tmp_path / "s.txt"
        fvs.write_text("0 3 4\n")
        code, out = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 4
        assert "bound 4W/3g = 4/3 VIOLATED" in out

    def test_weighted_solve_then_verify(self, tmp_path, capsys):
        path = tmp_path / "w.g"
        write_pendant_triangle(path)
        trace = tmp_path / "t.txt"
        code, out = run(capsys, "solve", str(path), "--alg", "planar", "--trace", str(trace))
        assert code == 0
        assert "bound = 4/3 (planar_weighted)" in out
        fvs = tmp_path / "s.txt"
        fvs.write_text(out.split("S = ", 1)[1].split("\n", 1)[0] + "\n")
        code, out = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 0
        assert "bound 4W/3g = 4/3 satisfied" in out

    def test_weighted_light_cycle_rejected(self, tmp_path, capsys):
        path = tmp_path / "w.g"
        write_graph(str(path), Graph(range(3), [(0, 1, 1), (1, 2, 1), (0, 2, 0)]))
        fvs = tmp_path / "s.txt"
        fvs.write_text("0\n")
        code, _ = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 2

    def test_cubic_bound(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_text("0 1\n")
        code, _ = run(capsys, "verify", str(path), str(fvs), "--bound", "cubic")
        assert code == 0

    def test_foreign_vertex(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_text("99\n")
        code, _ = run(capsys, "verify", str(path), str(fvs))
        assert code == 2

    def test_double_minus_in_set_file(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_text("0 1 --5\n")
        code = main(["verify", str(path), str(fvs)])
        assert code == 2
        assert one_error_line(capsys)

    def test_non_ascii_set_file(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_bytes("0 1 \u00e9\n".encode())
        code = main(["verify", str(path), str(fvs)])
        assert code == 2
        assert one_error_line(capsys)


    def test_non_ascii_set_file_named_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        fvs = tmp_path / "s.txt"
        fvs.write_bytes("0 1\n\u00e9\n".encode())
        code = main(["verify", str(path), str(fvs)])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xc3\n"

    def test_planar_bound_of_a_forest(self, tmp_path, capsys):
        path = tmp_path / "p3.g"
        write_graph(str(path), Graph(range(3), [(0, 1), (1, 2)]))
        fvs = tmp_path / "s.txt"
        fvs.write_text("\n")
        code, out = run(capsys, "verify", str(path), str(fvs), "--bound", "planar")
        assert code == 0
        assert out == "valid feedback vertex set, |S| = 0\nbound 4m/3g holds trivially: forest\n"


class TestBatch:
    def test_not_a_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        run(capsys, "gen", "k4", str(path))
        code = main(["batch", str(path), "--csv", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: not a directory: {path}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_argparse_error_exits_2_and_help_exits_0(self, tmp_path, capsys):
        for argv, named in ((["batch", str(tmp_path)], "--csv"),
                            (["solve", str(tmp_path / "x.g"), "--alg", "bogus"], "'bogus'")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert named in err and "usage:" not in err
        assert main(["batch", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fvsbound batch")

    def test_non_ascii_name(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "k4", str(corpus / "caf\u00e9.g"))
        out_csv = tmp_path / "report.csv"
        code, out = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 0
        assert out == "caf\u00e9.g: ok |S|=2 bound=2\n"
        rows = list(csv.DictReader(out_csv.open(encoding="utf-8")))
        assert [(r["instance"], r["valid"]) for r in rows] == [("caf\u00e9.g", "yes")]

    def test_name_that_is_not_utf8_written_as_its_bytes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        try:
            path = corpus / os.fsdecode(b"\xff.g")
            write_graph(str(path), make_named("k4").graph)
        except (OSError, UnicodeError):
            pytest.skip("the filesystem takes no such name")
        out_csv = tmp_path / "report.csv"
        code, out = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 0
        assert out == "\\xff.g: ok |S|=2 bound=2\n"
        assert out_csv.read_bytes().split(b"\r\n")[1].startswith(b"\xff.g,4,6,3,")

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "k4", str(corpus / "k4.g"))
        code = main(["batch", str(corpus), "--csv", str(tmp_path / "missing" / "r.csv")])
        assert code == 2
        assert one_error_line(capsys)

    def test_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("cube", "dodecahedron", "k4"):
            run(capsys, "gen", name, str(corpus / f"{name}.g"))
        out_csv = tmp_path / "report.csv"
        code, out = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert [r["instance"] for r in rows] == ["cube.g", "dodecahedron.g", "k4.g"]
        assert all(r["valid"] == "yes" for r in rows)
        for r in rows:
            if r["exact_phi"]:
                assert int(r["exact_phi"]) <= int(r["fvs_size"])
        dodeca = rows[1]
        assert dodeca["exact_phi"] == "6"
        assert dodeca["girth"] == "5"

    def test_g_is_the_minimum_cycle_weight(self, tmp_path, capsys):
        # W6 with spokes of weight 2 and rim edges of weight 3: every triangle
        # weighs 7, so g = 7 while the girth is 3. The weighted path is a forest.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wheel = Graph(range(7), [(6, i, 2) for i in range(6)] + [(i, (i + 1) % 6, 3) for i in range(6)])
        write_graph(str(corpus / "w6.g"), wheel)
        write_graph(str(corpus / "path.g"), Graph(range(3), [(0, 1, 2), (1, 2, 5)]))
        out_csv = tmp_path / "report.csv"
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 0
        path, w6 = csv.DictReader(out_csv.open())
        assert (path["girth"], path["g"]) == ("inf", "")
        # The certified bound 4W/3g is 4 * 30 / (3 * 7) = 40/7.
        assert (w6["girth"], w6["g"], w6["bound_num"], w6["bound_den"]) == ("3", "7", "120", "21")

    def test_bad_file_recorded_and_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "cube", str(corpus / "cube.g"))
        (corpus / "broken.g").write_text("garbage\n")
        out_csv = tmp_path / "report.csv"
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert rows[0]["valid"] == "error"
        assert rows[1]["valid"] == "yes"

    def test_rotation_foreign_to_the_graph_recorded(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in FOREIGN_ROTATIONS.items():
            (corpus / name).write_text(text)
        out_csv = tmp_path / "report.csv"
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            (name, "error") for name in sorted(FOREIGN_ROTATIONS)]

    def test_minimum_cycle_weight_computed_once(self, tmp_path, capsys, monkeypatch):
        import fvsbound.cli as cli_module

        calls = []
        weighted_girth = cli_module.weighted_girth
        monkeypatch.setattr(cli_module, "weighted_girth",
                            lambda g: calls.append(g.n) or weighted_girth(g))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wheel = Graph(range(7), [(6, i, 2) for i in range(6)]
                      + [(i, (i + 1) % 6, 3) for i in range(6)])
        write_graph(str(corpus / "w6.g"), wheel)
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(tmp_path / "report.csv"))
        assert code == 0
        assert calls == [7]

    def test_unreadable_files_recorded_and_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "cube", str(corpus / "cube.g"))
        (corpus / "list.json").write_text("[1, 2]\n")
        (corpus / "accent.g").write_bytes("graph 1 1\nname caf\u00e9\nv 0\n".encode())
        out_csv = tmp_path / "report.csv"
        code = main(["batch", str(corpus), "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            ("accent.g", "error"), ("cube.g", "yes"), ("list.json", "error")]
        assert "Traceback" not in captured.out + captured.err

    def test_unparsable_id_and_deep_json_recorded_and_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "cube", str(corpus / "cube.g"))
        (corpus / "minus.g").write_text("graph 1 1\nv --1\n")
        (corpus / "deep.json").write_text("[" * 100000)
        out_csv = tmp_path / "report.csv"
        code = main(["batch", str(corpus), "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            ("cube.g", "yes"), ("deep.json", "error"), ("minus.g", "error")]
        assert "Traceback" not in captured.out + captured.err

    def test_non_integer_json_numbers_recorded_and_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "cube", str(corpus / "cube.g"))
        (corpus / "float.json").write_text(FLOAT_JSON)
        out_csv = tmp_path / "report.csv"
        code = main(["batch", str(corpus), "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            ("cube.g", "yes"), ("float.json", "error")]
        assert "Traceback" not in captured.out + captured.err

    def test_json_rotation_naming_a_vertex_twice_recorded_and_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        run(capsys, "gen", "cube", str(corpus / "cube.g"))
        (corpus / "twice.json").write_text(TWICE_ROTATED_JSON)
        out_csv = tmp_path / "report.csv"
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            ("cube.g", "yes"), ("twice.json", "error")]

    def test_recursion_error_recorded_and_nonzero(self, tmp_path, capsys, monkeypatch):
        import fvsbound.cli as cli_module

        solve_cubic = cli_module.solve_cubic

        def deep_on_dodecahedron(g):
            if g.n == 20:
                raise RecursionError("maximum recursion depth exceeded")
            return solve_cubic(g)

        monkeypatch.setattr(cli_module, "solve_cubic", deep_on_dodecahedron)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("cube", "dodecahedron"):
            run(capsys, "gen", name, str(corpus / f"{name}.g"))
        out_csv = tmp_path / "report.csv"
        code = main(["batch", str(corpus), "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["valid"]) for r in rows] == [
            ("cube.g", "yes"), ("dodecahedron.g", "error")]
        assert "Traceback" not in captured.out + captured.err

    def test_zero_weight_cycles_recorded_and_nonzero(self, tmp_path, capsys):
        # `auto` hands the subcubic triangle to the cubic solver, whose bound
        # ignores weights, and the hub of degree 4 to the planar one.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_graph(str(corpus / "triangle.g"), ZERO_TRIANGLE)
        write_graph(str(corpus / "wheel.g"), ZERO_W4)
        out_csv = tmp_path / "report.csv"
        code = main(["batch", str(corpus), "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        rows = list(csv.DictReader(out_csv.open()))
        assert [(r["instance"], r["alg"], r["valid"]) for r in rows] == [
            ("triangle.g", "cubic", "yes"), ("wheel.g", "", "error")]
        assert "wheel.g: error minimum cycle weight 0 is below 3" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_empty_dir(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out_csv = tmp_path / "report.csv"
        code, _ = run(capsys, "batch", str(corpus), "--csv", str(out_csv))
        assert code == 0
        assert out_csv.read_text().startswith("instance,")


# For each command, a function of `cli` it calls before printing anything.
FAULT_SITES = {"gen": "make_named", "stats": "faces_of", "solve": "solve_cubic",
               "verify": "validate_fvs"}


class TestExitCodeTable:
    @pytest.mark.parametrize("fault", [InternalInvariantBroken, RecursionError])
    @pytest.mark.parametrize("command", sorted(FAULT_SITES))
    def test_internal_fault_exits_3(self, tmp_path, capsys, monkeypatch, command, fault):
        import fvsbound.cli as cli_module

        k4, fvs = tmp_path / "k4.g", tmp_path / "s.txt"
        run(capsys, "gen", "k4", str(k4))
        fvs.write_text("0 1\n")

        def broken(*args):
            raise fault("injected for testing")

        monkeypatch.setattr(cli_module, FAULT_SITES[command], broken)
        argv = {"gen": ["gen", "k4", str(tmp_path / "x.g")], "stats": ["stats", str(k4)],
                "solve": ["solve", str(k4), "--alg", "cubic"],
                "verify": ["verify", str(k4), str(fvs)]}[command]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: injected for testing\n")


# Characters a mutation may put in: digits, separators and record letters.
MUTATION_CHARS = '0123456789 -:,.[]{}"\nervgxn'


def mutate(text, rng):
    """One seeded edit of a file: drop, duplicate or swap lines, or replace,
    delete or insert one character."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(4)
    if kind == 0:
        del lines[rng.randrange(len(lines))]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif kind == 2:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i, c = rng.randrange(len(text)), rng.choice(MUTATION_CHARS)
        return text[:i] + rng.choice([c, "", text[i] + c]) + text[i + 1:]
    return "".join(lines)


class TestMutatedInputs:
    def test_readers_never_crash_the_cli(self, tmp_path, capsys):
        # Seeded edits of the .g and .json files of four instances; every
        # solve and stats run on the result exits 0, or 2 with one error line.
        bases = {name: (make_named(name).graph, make_named(name).rotation)
                 for name in ("k4", "petersen", "cube")}
        bases["rp30"] = random_planar_girth(30, 3, 1)
        texts = {}
        for name, (graph, rotation) in bases.items():
            for ext in ("g", "json"):
                path = tmp_path / f"{name}.{ext}"
                write_graph(str(path), graph, rotation=rotation, name=name)
                texts[path.name] = path.read_text()
        commands = [["solve", "--alg", alg] for alg in ("auto", "planar", "trivial", "exact")]
        commands.append(["stats"])
        rng = random.Random(16)
        codes = Counter()
        for i in range(400):
            base = rng.choice(sorted(texts))
            path = tmp_path / f"mutant{i}.{base.split('.')[1]}"
            path.write_text(mutate(texts[base], rng))
            for command in commands:
                code = main([command[0], str(path)] + command[1:])
                assert code == 0 or (code == 2 and one_error_line(capsys)), \
                    (base, command, code, path.read_text())
                capsys.readouterr()
                codes[code] += 1
        assert codes[0] > 300 and codes[2] > 300


SRC = Path(__file__).resolve().parents[1] / "src"

# Each step reports whether networkx has been loaded so far. The subcubic file
# carries no rotation and goes to the cubic solver; the generated plane file
# carries its rotation, which the planar solver reads instead of embedding.
COLD_START = """
import sys
def report(step):
    print(f"networkx after {step}: {'networkx' in sys.modules}")
import fvsbound, fvsbound.cli
report("import")
from fvsbound.fileio import write_graph
from fvsbound.instances import random_cubic_2connected, random_planar_girth
cubic = random_cubic_2connected(100, 1)
random_planar_girth(60, 5, 1)
report("generators")
subcubic, plane = sys.argv[1:]
write_graph(subcubic, cubic)
codes = [fvsbound.cli.main(["gen", "random-planar", "--n", "60", "--g", "5", "--seed", "1", plane]),
         fvsbound.cli.main(["solve", subcubic]),
         fvsbound.cli.main(["solve", plane, "--alg", "planar"])]
report("solves")
sys.exit(max(codes))
"""

# Every import of networkx raises, and each command that embeds must still
# succeed: `embed` itself, `gen` of every spec that embeds, and `stats` and the
# solvers on a wheel file without a rotation.
NO_NETWORKX = """
import sys
sys.modules["networkx"] = None
from fvsbound.cli import main
from fvsbound.fileio import write_graph
from fvsbound.graph import Graph
from fvsbound.instances import _K4_ROTATION
from fvsbound.planar import embed
def complete(n):
    return Graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])
print(embed(complete(4)).order == _K4_ROTATION, embed(complete(5)) is None)
wheel, out = sys.argv[1:]
write_graph(wheel, Graph(range(13), [(12, i) for i in range(12)] + [(i, (i + 1) % 12) for i in range(12)]))
for command in (["gen", "chain12", out], ["gen", "cycles", "--k", "2", "--g", "5", out],
                ["gen", "triangle-replace", "--of", "cube", out],
                ["gen", "random-cubic", "--n", "20", out],
                ["stats", wheel], ["solve", wheel, "--alg", "planar"],
                ["solve", wheel, "--alg", "trivial"]):
    print("exit", main(command))
"""


def fresh_python(script, *args):
    """Run a script in a new interpreter that imports fvsbound from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestColdStart:
    def test_networkx_stays_unloaded_without_an_embed(self, tmp_path):
        proc = fresh_python(COLD_START, tmp_path / "rc100.g", tmp_path / "rp60.g")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line for line in lines if line.startswith("networkx")] == [
            "networkx after import: False",
            "networkx after generators: False",
            "networkx after solves: False",
        ]
        assert lines.count("bound satisfied = yes") == 2
        assert "algorithm = cubic" in lines and "algorithm = planar" in lines

    def test_no_command_loads_networkx(self, tmp_path):
        proc = fresh_python(NO_NETWORKX, tmp_path / "w12.g", tmp_path / "out.g")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "True True"
        assert [line for line in lines if line.startswith("exit")] == ["exit 0"] * 7
        assert lines.count("bound satisfied = yes") == 2
        assert "algorithm = planar" in lines and "algorithm = trivial" in lines
