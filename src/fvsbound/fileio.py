"""Graph file formats: a diff-friendly line format and a JSON mirror.

Text format (one record per line, canonical order on write):

    graph 1 <n>            header: format version and vertex count
    name <string>          optional instance name
    meta <key> <value>     optional metadata, e.g. expected girth or phi
    v <id>                 every vertex, ascending
    e <u> <v> [w]          every edge, ascending; weight omitted when 1
    r <v>: <n1> <n2> ...   optional rotation: clockwise neighbors per vertex

Round-trips are bit-exact: reading a canonically written file and writing it
again reproduces the same bytes. The JSON mirror carries the same fields for
tooling and is read as strictly: the version, ids, endpoints, weights and
rotation entries must be JSON integers (not ``true`` or ``1.5``), ids
distinct and endpoints declared, meta an object (or null for none), and the
name and meta strings the text format carries unchanged, so every JSON file
the reader accepts can be written as text. The text reader holds its name
and meta records to that same rule, so the writer takes every file it reads.
The empty graph has no rings, so neither format gives it a rotation: an
empty one is written and read back as none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError
from .graph import Graph
from .planar import RotationSystem

FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class GraphFile:
    graph: Graph
    rotation: RotationSystem | None = None
    name: str | None = None
    meta: dict[str, str] = field(default_factory=dict)


def write_graph(path: str, graph: Graph,
                rotation: RotationSystem | None = None,
                name: str | None = None,
                meta: dict[str, str] | None = None) -> None:
    """Write a graph (text or, for .json paths, the JSON mirror).

    Raises the readers' ParseError, and creates no file, if they would reject
    the name, meta or rotation or read them back changed.
    """
    rotation = _checked_fields(graph, None if rotation is None else rotation.order,
                               name, meta or {})
    if str(path).endswith(".json"):
        _write_json(path, graph, rotation, name, meta)
        return
    lines = [f"graph {FORMAT_VERSION} {graph.n}"]
    if name:
        lines.append(f"name {name}")
    for key in sorted(meta or {}):
        lines.append(f"meta {key} {(meta or {})[key]}")
    for v in graph.vertices:
        lines.append(f"v {v}")
    for u, v in graph.edges():
        w = graph.weight(u, v)
        lines.append(f"e {u} {v}" if w == 1 else f"e {u} {v} {w}")
    if rotation is not None:
        for v in graph.vertices:
            ring = " ".join(str(u) for u in rotation.order[v])
            lines.append(f"r {v}: {ring}".rstrip())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path: str) -> GraphFile:
    """Read a graph file; raises ParseError with the offending line number."""
    if str(path).endswith(".json"):
        return _read_json(path)
    raw_lines = _read_ascii(path).splitlines()
    header_n: int | None = None
    name: str | None = None
    meta: dict[str, str] = {}
    vertices: list[int] = []
    edges: list[tuple[int, int, int]] = []
    rotation: dict[int, tuple[int, ...]] = {}
    # The line of each edge and ring record, for errors found after the scan.
    edge_lines: list[int] = []
    ring_lines: dict[int, int] = {}

    def bad(no: int, msg: str):
        raise ParseError(no, msg)

    for no, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        tag = parts[0]
        if tag == "graph":
            if header_n is not None:
                bad(no, "duplicate header")
            if len(parts) != 3 or not parts[1].isdigit() or not parts[2].isdigit():
                bad(no, "header must be 'graph <version> <n>'")
            if int(parts[1]) != FORMAT_VERSION:
                bad(no, f"unsupported format version {parts[1]}")
            header_n = int(parts[2])
        elif tag == "name":
            if len(parts) < 2:
                bad(no, "name needs a value")
            name = stripped[len("name "):].strip()
            _check_text(name, "name", str.strip, no)
        elif tag == "meta":
            if len(parts) < 3:
                bad(no, "meta needs a key and a value")
            meta[parts[1]] = " ".join(parts[2:])
            _check_meta(parts[1], meta[parts[1]], no)
        elif tag == "v":
            if len(parts) != 2 or not _is_int(parts[1]):
                bad(no, "vertex line must be 'v <id>'")
            vertices.append(int(parts[1]))
        elif tag == "e":
            if len(parts) not in (3, 4) or not all(_is_int(p) for p in parts[1:]):
                bad(no, "edge line must be 'e <u> <v> [w]'")
            u, v = int(parts[1]), int(parts[2])
            w = int(parts[3]) if len(parts) == 4 else 1
            if w < 0:
                bad(no, "edge weight must be non-negative")
            edges.append((u, v, w))
            edge_lines.append(no)
        elif tag == "r":
            if len(parts) < 2 or not parts[1].endswith(":"):
                bad(no, "rotation line must be 'r <v>: <n1> <n2> ...'")
            head = parts[1][:-1]
            if not _is_int(head) or not all(_is_int(p) for p in parts[2:]):
                bad(no, "rotation entries must be integers")
            v = int(head)
            if v in rotation:
                bad(no, f"duplicate rotation for vertex {v}")
            rotation[v] = tuple(int(p) for p in parts[2:])
            ring_lines[v] = no
        else:
            bad(no, f"unknown record {tag!r}")
    if header_n is None:
        bad(len(raw_lines) or 1, "missing 'graph' header")
    if len(vertices) != len(set(vertices)):
        bad(len(raw_lines), "duplicate vertex declarations")
    if header_n != len(vertices):
        bad(len(raw_lines), f"header says n = {header_n} but {len(vertices)} vertices declared")
    declared = set(vertices)
    for (u, v, _), no in zip(edges, edge_lines):
        if u not in declared or v not in declared:
            bad(no, f"edge ({u}, {v}) uses an undeclared vertex")
    try:
        graph = Graph(vertices, edges)
    except ValueError as exc:
        raise ParseError(len(raw_lines), str(exc))
    rot = _rotation_of(rotation, graph, len(raw_lines), ring_lines) if rotation else None
    return GraphFile(graph=graph, rotation=rot, name=name, meta=meta)


def _rotation_of(order: dict[int, tuple[int, ...]], graph: Graph, line_no: int,
                 ring_lines: dict[int, int]) -> RotationSystem:
    """A file's rotation: a ring of exactly its neighbors for every vertex, and no other.

    A bad ring is reported at its line in ``ring_lines``, else at ``line_no``.
    """
    missing = set(graph.vertices) - order.keys()
    if missing:
        raise ParseError(line_no, f"rotation missing vertices {sorted(missing)}")
    for v, ring in order.items():
        if v not in graph or sorted(ring) != list(graph.neighbors(v)):
            raise ParseError(ring_lines.get(v, line_no),
                             f"rotation at {v} is not a permutation of its neighbors")
    return RotationSystem(dict(sorted(order.items())))


def _read_ascii(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"non-ASCII byte 0x{data[exc.start]:02x}") from None


def _is_int(token: str) -> bool:
    """True iff ``token`` is ``-?[0-9]+``; ``str.isdigit`` alone takes any Unicode digit."""
    digits = token.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _write_json(path: str, graph: Graph, rotation: RotationSystem | None,
                name: str | None, meta: dict[str, str] | None) -> None:
    payload = {
        "format": "fvsbound-graph",
        "version": FORMAT_VERSION,
        "name": name,
        "vertices": list(graph.vertices),
        "edges": [[u, v, graph.weight(u, v)] for u, v in graph.edges()],
        "rotation": None if rotation is None else
            {str(v): list(rotation.order[v]) for v in graph.vertices},
        "meta": dict(meta or {}),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> GraphFile:
    try:
        payload = json.loads(_read_ascii(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}")
    except RecursionError:
        raise ParseError(1, "invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict) or payload.get("format") != "fvsbound-graph":
        raise ParseError(1, "not an fvsbound-graph JSON file")
    version = payload.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(1, f"unsupported version {json.dumps(version)}")
    try:
        vertices = _json_ints(payload["vertices"], "vertices")
        declared = set(vertices)
        if len(declared) != len(vertices):
            raise ParseError(1, "duplicate vertex ids")
        edges = [_json_ints(e, "edge") for e in payload["edges"]]
        for e in edges:
            if not declared.issuperset(e[:2]):
                raise ParseError(1, f"edge {e[:2]} uses an undeclared vertex")
        graph = Graph(vertices, edges)
        rot_raw = payload.get("rotation")
        order = None
        if rot_raw is not None:
            if not all(map(_is_int, rot_raw)):
                raise ParseError(1, "rotation keys must be integers")
            order = {int(v): tuple(_json_ints(ns, "rotation")) for v, ns in rot_raw.items()}
            if len(order) < len(rot_raw):
                raise ParseError(1, "two rotation keys name the same vertex")
        name, meta = payload.get("name"), payload.get("meta")
        meta = {} if meta is None else meta
        rotation = _checked_fields(graph, order, name, meta)
        return GraphFile(graph=graph, rotation=rotation, name=name, meta=meta)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(1, f"malformed payload: {exc}")


def _checked_fields(graph: Graph, order, name, meta) -> RotationSystem | None:
    """The rotation of ``order``, once it, ``name`` and ``meta`` pass the readers' checks.

    None for no rings, as the text reader gives when it finds no ``r`` record.
    """
    rotation = None if order is None else _rotation_of(order, graph, 1, {})
    if name is not None:
        _check_text(name, "name", str.strip, 1)
    if not isinstance(meta, dict):
        raise TypeError("meta must be an object")
    for key, value in meta.items():
        _check_meta(key, value, 1)
    return rotation if order else None


def _check_meta(key, value, line_no: int) -> None:
    """``_check_text`` for a meta key and its value."""
    _check_text(key, "meta key", lambda k: "".join(k.split()), line_no)
    _check_text(value, "meta value", lambda v: " ".join(v.split()), line_no)


def _check_text(value, what: str, reread, line_no: int) -> None:
    """Raise ParseError at ``line_no`` unless the text format carries ``value`` unchanged.

    It must be a non-empty string of printable ASCII, so without a line
    break, a tab or DEL, and equal to ``reread(value)``: the text reader
    strips a name, reads a meta key up to the first space, and joins a meta
    value's words by single spaces.
    """
    if not (isinstance(value, str) and value and value.isascii()
            and value.isprintable() and reread(value) == value):
        raise ParseError(line_no, f"{what} {json.dumps(value)} cannot be written as text")


def _json_ints(values, what: str) -> list:
    """``values`` itself if it is a JSON list of integers; ``true`` and ``1.5`` are not."""
    if not isinstance(values, list):
        raise ParseError(1, f"{what} must be a list of integers")
    for x in values:
        if type(x) is not int:
            raise ParseError(1, f"{what}: {json.dumps(x)} is not an integer")
    return values
