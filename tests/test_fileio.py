"""Graph file round-trips and strict parse errors."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvsbound.errors import ParseError
from fvsbound.fileio import GraphFile, read_graph, write_graph
from fvsbound.graph import Graph
from fvsbound.instances import make_named
from fvsbound.planar import RotationSystem, faces_of


def weighted_sample():
    return Graph([0, 1, 2, 3, 9], [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 3, 5)])


class TestTextRoundTrip:
    def test_cube_with_rotation(self, tmp_path):
        inst = make_named("cube")
        path = tmp_path / "cube.g"
        write_graph(str(path), inst.graph, rotation=inst.rotation,
                    name="cube", meta={"girth": "4", "phi": "3"})
        gf = read_graph(str(path))
        assert gf.graph == inst.graph
        assert gf.rotation is not None
        assert gf.rotation.order == inst.rotation.order
        assert gf.name == "cube"
        assert gf.meta == {"girth": "4", "phi": "3"}
        faces_of(gf.graph, gf.rotation)

    def test_weights_and_isolated_vertices(self, tmp_path):
        g = weighted_sample()
        path = tmp_path / "w.g"
        write_graph(str(path), g)
        gf = read_graph(str(path))
        assert gf.graph == g
        assert gf.rotation is None

    def test_bytes_stable(self, tmp_path):
        inst = make_named("dodecahedron")
        p1, p2 = tmp_path / "a.g", tmp_path / "b.g"
        write_graph(str(p1), inst.graph, rotation=inst.rotation, name="dodecahedron")
        gf = read_graph(str(p1))
        write_graph(str(p2), gf.graph, rotation=gf.rotation, name=gf.name,
                    meta=gf.meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.g"
        path.write_text("# a triangle\n\ngraph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 0 2\n")
        gf = read_graph(str(path))
        assert gf.graph.m == 3


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        inst = make_named("prism")
        path = tmp_path / "prism.json"
        write_graph(str(path), inst.graph, rotation=inst.rotation,
                    name="prism", meta={"phi": "2"})
        gf = read_graph(str(path))
        assert gf.graph == inst.graph
        assert gf.rotation.order == inst.rotation.order
        assert gf.name == "prism"
        assert gf.meta == {"phi": "2"}

    def test_bytes_stable(self, tmp_path):
        g = weighted_sample()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_graph(str(p1), g)
        gf = read_graph(str(p1))
        write_graph(str(p2), gf.graph)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ParseError):
            read_graph(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", '"graph"', "3"])
    def test_rejects_non_object_json(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="not an fvsbound-graph"):
            read_graph(str(path))

    def test_rejects_non_ascii_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes('{\n"name": "caf\u00e9"}'.encode())
        with pytest.raises(ParseError, match="non-ASCII") as err:
            read_graph(str(path))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("field, value", [("rotation", [1]), ("meta", [1])])
    def test_rejects_malformed_json_fields(self, tmp_path, field, value):
        path = tmp_path / "x.json"
        write_graph(str(path), make_named("k4").graph)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="malformed payload"):
            read_graph(str(path))

    @pytest.mark.parametrize("field, value, fragment", [
        ("vertices", [0.5, 1.5, 2.5], "vertices: 0.5 is not an integer"),
        ("vertices", [0, 1, 2, True], "vertices: true is not an integer"),
        ("vertices", [0, 1, 2, 2], "duplicate vertex ids"),
        ("vertices", {"0": 0}, "vertices must be a list of integers"),
        ("edges", [[0, 1, 1.5], [1, 2], [2, 0]], "edge: 1.5 is not an integer"),
        ("edges", [[0, 1], [1, 2], [2.0, 0]], "edge: 2.0 is not an integer"),
        ("edges", [[0, 1], [1, 2], [2, 0, False]], "edge: false is not an integer"),
        ("edges", [[0, 1], [1, 2], [2, 3]], r"edge \[2, 3\] uses an undeclared vertex"),
        ("rotation", {"0": [1, 2], "1": [2, 0], "2": [0, 1.0]},
         "rotation: 1.0 is not an integer"),
        ("rotation", {"0": [1, 2], "1": [2, 0], "2.0": [0, 1]},
         "rotation keys must be integers"),
        # Arabic-Indic two: str.isdigit and int() both take it for 2.
        ("rotation", {"0": [1, 2], "1": [2, 0], "\u0662": [0, 1]},
         "rotation keys must be integers"),
        ("version", True, "unsupported version true"),
        ("version", 1.0, "unsupported version 1.0"),
    ], ids=["float-id", "bool-id", "repeated-id", "ids-not-a-list", "float-weight",
            "float-endpoint", "bool-weight", "undeclared-endpoint", "float-rotation-entry",
            "float-rotation-key", "non-ascii-digit-rotation-key", "bool-version",
            "float-version"])
    def test_rejects_non_integer_numbers(self, tmp_path, field, value, fragment):
        # Graph() would truncate these with int(), or add the undeclared
        # vertex, so a different graph than the file's would be certified.
        path = tmp_path / "x.json"
        payload = {"format": "fvsbound-graph", "version": 1, "name": None, "meta": {},
                   "vertices": [0, 1, 2], "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]],
                   "rotation": {"0": [1, 2], "1": [2, 0], "2": [0, 1]}}
        path.write_text(json.dumps(payload))
        assert read_graph(str(path)).graph.m == 3
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=fragment):
            read_graph(str(path))

    @pytest.mark.parametrize("field, value, fragment", [
        ("name", "x\nv 9", r'name "x\\nv 9"'),
        ("name", 5, "name 5"),
        ("name", "", 'name ""'),
        ("name", " padded", 'name " padded"'),
        ("name", "caf\u00e9", r'name "caf\\u00e9"'),
        ("meta", {"q r": "1"}, 'meta key "q r"'),
        ("meta", {"phi": "a\nb"}, r'meta value "a\\nb"'),
        ("meta", {"phi": "a  b"}, 'meta value "a  b"'),
        ("meta", {"phi": ""}, 'meta value ""'),
        ("meta", {"phi": 3}, "meta value 3"),
        ("meta", [["phi", "3"]], "meta must be an object"),
        # Falsy, but no more an object than [1]; only null means no meta.
        ("meta", [], "meta must be an object"),
        ("meta", 0, "meta must be an object"),
        ("meta", False, "meta must be an object"),
        ("meta", "", "meta must be an object"),
    ], ids=["line-break-name", "int-name", "empty-name", "padded-name", "non-ascii-name",
            "spaced-key", "line-break-value", "double-space-value", "empty-value",
            "int-value", "pair-list-meta", "empty-list-meta", "zero-meta", "false-meta",
            "empty-string-meta"])
    def test_rejects_a_name_or_meta_the_text_format_cannot_carry(self, tmp_path, field,
                                                                  value, fragment):
        # Written as text, the first would add the record "v 9", and the
        # others would read back changed or not at all.
        path = tmp_path / "x.json"
        write_graph(str(path), make_named("k4").graph, name="k4", meta={"phi": "2"})
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=fragment) as err:
            read_graph(str(path))
        assert "\n" not in str(err.value)

    @given(name=st.none() | st.text(max_size=6),
           meta=st.dictionaries(st.text(max_size=4), st.text(max_size=6) | st.integers(),
                                max_size=3),
           edges=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                    st.integers(0, 2)), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_every_graph_file_read_from_json_reads_back_equal_as_text(self, name, meta, edges):
        vertices = sorted({v for e in edges for v in e[:2]})
        payload = {"format": "fvsbound-graph", "version": 1, "name": name, "meta": meta,
                   "vertices": vertices, "edges": [list(e) for e in edges]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.json"
            path.write_text(json.dumps(payload))
            try:
                gf = read_graph(str(path))
            except ParseError:
                return
            text = Path(tmp) / "x.g"
            write_graph(str(text), gf.graph, gf.rotation, gf.name, gf.meta)
            assert read_graph(str(text)) == gf

    @pytest.mark.parametrize("key", ["01", "-0"])
    def test_rejects_two_rotation_keys_for_one_vertex(self, tmp_path, key):
        # The last ring read would win, so the file's rotation is ambiguous.
        vertex = int(key)
        rings = {"0": [1, 2], "1": [0, 2], "2": [0, 1]}
        rings[key] = list(reversed(rings[str(vertex)]))
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "fvsbound-graph", "version": 1, "name": None,
                                    "meta": {}, "vertices": [0, 1, 2],
                                    "edges": [[0, 1], [1, 2], [0, 2]], "rotation": rings}))
        with pytest.raises(ParseError, match="two rotation keys name the same vertex"):
            read_graph(str(path))


class TestEmptyGraphRotation:
    @pytest.mark.parametrize("rotation", [None, RotationSystem({})], ids=["none", "empty"])
    def test_both_formats_read_it_back_alike(self, tmp_path, rotation):
        # The empty graph has no ring to write, so the text format cannot
        # tell an empty rotation from none; the JSON mirror must not either.
        read = {}
        for suffix in (".g", ".json"):
            p1, p2 = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
            write_graph(str(p1), Graph([], []), rotation)
            read[suffix] = gf = read_graph(str(p1))
            write_graph(str(p2), gf.graph, gf.rotation, gf.name, gf.meta)
            assert p1.read_bytes() == p2.read_bytes()
        assert read[".g"] == read[".json"] == GraphFile(Graph([], []))

    def test_an_empty_json_rotation_reads_as_none(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"format": "fvsbound-graph", "version": 1, "name": None,
                                    "meta": {}, "vertices": [], "edges": [], "rotation": {}}))
        assert read_graph(str(path)).rotation is None


class TestWriteChecks:
    TRIANGLE = Graph(range(3), [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("suffix, fields, fragment", [
        (".g", {"name": "x\nv 9"}, r'name "x\\nv 9"'),
        (".g", {"meta": {"q r": "s"}}, 'meta key "q r"'),
        (".g", {"meta": {"k": "a\nb"}}, r'meta value "a\\nb"'),
        (".g", {"meta": {"k": 3}}, "meta value 3"),
        (".json", {"name": ""}, 'name ""'),
        (".g", {"rotation": {0: (1, 2), 1: (2, 0)}}, r"rotation missing vertices \[2\]"),
        (".json", {"rotation": {0: (1, 2), 1: (2, 0)}}, r"rotation missing vertices \[2\]"),
        (".g", {"rotation": {0: (1, 1), 1: (2, 0), 2: (0, 1)}},
         "rotation at 0 is not a permutation"),
    ], ids=["line-break-name", "spaced-key", "line-break-value", "int-value",
            "empty-json-name", "partial-rotation", "partial-json-rotation", "repeated-ring"])
    def test_refuses_what_the_readers_reject(self, tmp_path, suffix, fields, fragment):
        # Each would be written to a file that reads back changed or not at
        # all, or would crash the writer; no file may be left behind.
        path = tmp_path / f"x{suffix}"
        if "rotation" in fields:
            fields = {"rotation": RotationSystem(fields["rotation"])}
        with pytest.raises(ParseError, match=fragment):
            write_graph(str(path), self.TRIANGLE, **fields)
        assert not path.exists()


class TestParseErrors:
    def _expect(self, tmp_path, text, fragment, line_no=None):
        path = tmp_path / "bad.g"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_graph(str(path))
        assert fragment in str(err.value)
        if line_no is not None:
            assert err.value.line_no == line_no

    def test_malformed_edge_line(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 x\n",
                     "edge line", line_no=4)

    def test_missing_header(self, tmp_path):
        self._expect(tmp_path, "v 0\nv 1\ne 0 1\n", "missing 'graph' header")

    def test_duplicate_header(self, tmp_path):
        self._expect(tmp_path, "graph 1 1\ngraph 1 1\nv 0\n",
                     "duplicate header", line_no=2)

    def test_wrong_vertex_count(self, tmp_path):
        self._expect(tmp_path, "graph 1 3\nv 0\nv 1\n", "2 vertices declared")

    def test_undeclared_endpoint(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 7\n", "undeclared vertex")

    def test_undeclared_endpoint_reported_at_its_edge(self, tmp_path):
        # Found after the scan, but named at the record: not at the last line.
        self._expect(tmp_path, "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 1 9\ne 0 2\n# end\n",
                     "edge (1, 9) uses an undeclared vertex", line_no=6)

    def test_negative_weight(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 1 -3\n", "non-negative",
                     line_no=4)

    def test_parallel_edges(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 1\ne 1 0\n", "parallel")

    def test_duplicate_rotation(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 1\nr 0: 1\nr 0: 1\n",
                     "duplicate rotation", line_no=6)

    def test_partial_rotation(self, tmp_path):
        self._expect(tmp_path, "graph 1 2\nv 0\nv 1\ne 0 1\nr 0: 1\n",
                     "rotation missing")

    def test_partial_json_rotation(self, tmp_path):
        # The same check as the text reader's, so `solve` cannot pass it by
        # going to the cubic solver, which ignores the rotation.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "fvsbound-graph", "version": 1, "name": None,
                                    "meta": {}, "vertices": [0, 1, 2],
                                    "edges": [[0, 1], [1, 2], [0, 2]],
                                    "rotation": {"0": [1, 2], "1": [2, 0]}}))
        with pytest.raises(ParseError, match=r"rotation missing vertices \[2\]"):
            read_graph(str(path))

    @pytest.mark.parametrize("rings, fragment", [
        ("r 0: 1 2\nr 1: 2 0\nr 2: 0 1\nr 7: 0\n", "rotation at 7 is not a permutation"),
        ("r 0: 1 1\nr 1: 2 0\nr 2: 0 1\n", "rotation at 0 is not a permutation"),
        ("r 0: 1\nr 1: 2 0\nr 2: 0 1\n", "rotation at 0 is not a permutation"),
    ], ids=["undeclared", "repeated", "short"])
    def test_rotation_that_is_not_the_graph_s(self, tmp_path, rings, fragment):
        # Checked on reading, whichever solver the graph would go to.
        self._expect(tmp_path, "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\n" + rings,
                     fragment)

    def test_bad_ring_reported_at_its_line(self, tmp_path):
        # The bad ring is line 8; two more rings and a comment follow it.
        self._expect(tmp_path, "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\n"
                     "r 0: 1 1\nr 1: 2 0\nr 2: 0 1\n# end\n",
                     "line 8: rotation at 0 is not a permutation of its neighbors",
                     line_no=8)

    def test_missing_rings_reported_at_the_last_line(self, tmp_path):
        # No record is at fault, so the error names the file's last line.
        self._expect(tmp_path, "graph 1 3\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\n"
                     "r 0: 1 2\n# end\n", "rotation missing vertices [1, 2]", line_no=9)

    @pytest.mark.parametrize("rings, fragment", [
        ({"0": [1, 2], "1": [2, 0], "2": [0, 1], "7": [0]}, "rotation at 7 is not a permutation"),
        ({"0": [1, 1], "1": [2, 0], "2": [0, 1]}, "rotation at 0 is not a permutation"),
    ], ids=["undeclared", "repeated"])
    def test_json_rotation_that_is_not_the_graph_s(self, tmp_path, rings, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "fvsbound-graph", "version": 1, "name": None,
                                    "meta": {}, "vertices": [0, 1, 2],
                                    "edges": [[0, 1], [1, 2], [0, 2]], "rotation": rings}))
        with pytest.raises(ParseError, match=fragment):
            read_graph(str(path))

    @pytest.mark.parametrize("record, fragment", [
        ("name a\tb", r'name "a\tb"'),
        ("name a\x7fb", r'name "a\u007fb"'),
        ("meta k\x7f v", r'meta key "k\u007f"'),
        ("meta k a\x7fb", r'meta value "a\u007fb"'),
    ], ids=["tab-name", "del-name", "del-meta-key", "del-meta-value"])
    def test_name_or_meta_the_writer_refuses(self, tmp_path, record, fragment):
        # The JSON reader's and the writer's rule, so each file read writes back.
        self._expect(tmp_path, f"graph 1 1\nv 0\n{record}\n# end\n",
                     f"line 3: {fragment} cannot be written as text", line_no=3)

    def test_name_without_a_value(self, tmp_path):
        self._expect(tmp_path, "graph 1 1\nname\nv 0\n", "name needs a value", line_no=2)

    def test_unknown_record(self, tmp_path):
        self._expect(tmp_path, "graph 1 1\nv 0\nq zzz\n", "unknown record",
                     line_no=3)

    @pytest.mark.parametrize("text, fragment", [
        ("graph 1 1\nv --1\n", "vertex line"),
        ("graph 1 2\nv 0\nv 1\ne 0 --1\n", "edge line"),
        ("graph 1 2\nv 0\nv 1\ne 0 1 --2\n", "edge line"),
        ("graph 1 2\nv 0\nv 1\ne 0 1\nr --0: 1\n", "rotation entries"),
        ("graph 1 2\nv 0\nv 1\ne 0 1\nr 0: --1\n", "rotation entries"),
    ], ids=["v", "e-end", "e-weight", "r-head", "r-entry"])
    def test_double_minus_sign(self, tmp_path, text, fragment):
        self._expect(tmp_path, text, fragment, line_no=text.count("\n"))

    def test_one_minus_sign_is_an_id(self, tmp_path):
        path = tmp_path / "neg.g"
        path.write_text("graph 1 2\nv -1\nv 0\ne -1 0\n")
        assert read_graph(str(path)).graph.edges() == [(-1, 0)]

    def test_json_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        with pytest.raises(ParseError, match="nested too deeply"):
            read_graph(str(path))

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.g"
        path.write_bytes(b"graph 1 1\nv 0\nname caf\xe9\n")
        with pytest.raises(ParseError, match="non-ASCII byte 0xe9") as err:
            read_graph(str(path))
        assert err.value.line_no == 3
