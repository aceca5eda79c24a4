"""Command-line surface: generate, inspect, solve, verify, batch-report.

Exit codes are part of the contract so CI can assert on them:
  0  success (and, for solve/verify, the set validates and meets its bound)
  1  verify: the set is not a feedback vertex set; batch: some row failed
  2  bad arguments, and any other FvsError or OSError: a parse failure, an
     output file that cannot be written, input outside the algorithm's domain
  3  a produced certificate failed validation, or InternalInvariantBroken or
     RecursionError was raised (must never happen)
  4  verify: valid set, requested bound violated

The commands return only the codes of their results (0, 1, 3 and 4) and
raise every failure, as the parser does for a bad argument; ``main`` alone
maps each failure to its code by kind and prints it as one ``error:`` line,
with no usage text and no traceback.

Primary stdout output is byte-identical across identical invocations; wall
times only appear in CSV files.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from fractions import Fraction
from pathlib import Path

from .certificate import BoundKind, FvsCertificate
from .cubic import solve_cubic
from .errors import FvsError, InternalInvariantBroken, ParseError, PreconditionViolated
from .fileio import GraphFile, _is_int, _read_ascii, read_graph, write_graph
from .girth import SolverConfig, solve_planar_unweighted, solve_planar_weighted, trivial_baseline
from .graph import (
    Graph,
    connectivity_le3,
    girth,
    is_two_connected,
    validate_fvs,
    weighted_girth,
)
from .instances import (
    disjoint_cycles,
    make_named,
    named_instance_names,
    random_cubic_2connected,
    random_planar_girth,
    triangle_replace,
)
from .oracle import min_fvs_exact
from .planar import PlaneGraph, embed, faces_of

ORACLE_CLI_MAX_N = 20
BATCH_COLUMNS = ("instance", "n", "m", "girth", "g", "alg", "fvs_size",
                 "bound_num", "bound_den", "exact_phi", "valid", "ms")


def _fmt_fraction(num: int, den: int) -> str:
    f = Fraction(num, den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _print(msg: str = "") -> None:
    # A file name that is not UTF-8 shows its bytes as escapes, as on stderr.
    sys.stdout.write(msg.encode(errors="surrogateescape").decode(errors="backslashreplace")
                     + "\n")


def _fail(msg: str, code: int) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return code


def _is_weighted(g: Graph) -> bool:
    """True iff some edge weight is not 1."""
    return any(w != 1 for w in g.edge_weights().values())


# -- gen -------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = args.spec
    if spec == "random-cubic":
        if args.n is None:
            raise PreconditionViolated("random-cubic needs --n")
        graph = random_cubic_2connected(args.n, args.seed)
        rotation, name = embed(graph), f"random-cubic-n{args.n}-s{args.seed}"
    elif spec == "random-planar":
        if args.n is None:
            raise PreconditionViolated("random-planar needs --n")
        g = 3 if args.g is None else args.g
        graph, rotation = random_planar_girth(args.n, g, args.seed)
        name = f"random-planar-n{args.n}-g{g}-s{args.seed}"
    elif spec == "triangle-replace":
        if not args.of:
            raise PreconditionViolated("triangle-replace needs --of <name>")
        base = make_named(args.of)
        graph = triangle_replace(base.graph)
        rotation, name = embed(graph), f"triangle-replace-{base.name}"
    elif spec == "cycles":
        if args.k is None or args.g is None:
            raise PreconditionViolated("cycles needs --k and --g")
        graph = disjoint_cycles(args.k, args.g)
        rotation, name = embed(graph), f"cycles-k{args.k}-g{args.g}"
    else:
        inst = make_named(spec)
        graph, rotation, name = inst.graph, inst.rotation, inst.name
    write_graph(args.out, graph, rotation=rotation, name=name)
    _print(f"wrote {name}: n={graph.n} m={graph.m} -> {args.out}")
    return 0


# -- stats -----------------------------------------------------------------


def cmd_stats(args) -> int:
    gf = read_graph(args.path)
    pg = _plane_graph_or_none(gf)
    g = gf.graph
    gr = girth(g)
    vc, ec = connectivity_le3(g)
    _print(f"n = {g.n}")
    _print(f"m = {g.m}")
    _print(f"girth = {'infinite' if gr == float('inf') else int(gr)}")
    if _is_weighted(g):
        wg = weighted_girth(g)
        _print(f"weighted_girth = {'infinite' if wg == float('inf') else int(wg)}")
    _print(f"vertex_connectivity = {'3+' if vc == 3 else vc}")
    _print(f"edge_connectivity = {'3+' if ec == 3 else ec}")
    if pg is None:
        _print("planar = no (bounds suppressed)")
        return 0
    _print("planar = yes")
    _print(f"faces = {pg.face_count()}")
    if gr == float("inf"):
        _print("bounds suppressed: forest")
        return 0
    gi = int(gr)
    _print(f"bound m/g = {_fmt_fraction(g.m, gi)}")
    _print(f"bound 4m/3g = {_fmt_fraction(4 * g.m, 3 * gi)}")
    _print(f"bound 2m/g = {_fmt_fraction(2 * g.m, gi)}")
    return 0


# -- solve -------------------------------------------------------------------


def _plane_graph_or_none(gf: GraphFile) -> PlaneGraph | None:
    """The file's embedding, else one found for the graph; None if non-planar."""
    rotation = gf.rotation if gf.rotation is not None else embed(gf.graph)
    return None if rotation is None else faces_of(gf.graph, rotation)


def _solve_with(alg: str, gf: GraphFile, g_override: int | None,
                wg: int | float | None = None) -> tuple[FvsCertificate, str]:
    """Certify with ``alg``; ``wg`` is the minimum cycle weight, if known."""
    g = gf.graph
    if alg == "auto":
        alg = "cubic" if (is_two_connected(g) and g.max_degree() <= 3) else "planar"
    if alg == "cubic":
        return solve_cubic(g), "cubic"
    if alg == "exact":
        if g.n > ORACLE_CLI_MAX_N:
            raise PreconditionViolated(
                f"exact solve capped at n = {ORACLE_CLI_MAX_N}")
        res = min_fvs_exact(g)
        if res.node_budget_hit:
            raise PreconditionViolated("oracle budget exhausted")
        cert = FvsCertificate(fvs=res.witness, bound_kind=BoundKind.EXACT_OPTIMUM,
                              bound_num=res.phi, bound_den=1)
        return cert, "exact"
    pg = _plane_graph_or_none(gf)
    if pg is None:
        raise PreconditionViolated("input graph is not planar (NonPlanar)")
    if alg == "trivial":
        return trivial_baseline(pg), "trivial"
    assert alg == "planar"
    weighted = _is_weighted(g)
    if wg is None:
        wg = weighted_girth(g)
    if wg == float("inf"):
        return FvsCertificate(fvs=frozenset(),
                              bound_kind=BoundKind.PLANAR_4M_OVER_3G,
                              bound_num=0, bound_den=1), "planar"
    if g_override is not None:
        if g_override > wg:
            raise PreconditionViolated(
                f"--g {g_override} exceeds the true minimum cycle weight {int(wg)}")
        return solve_planar_weighted(pg, SolverConfig(g=g_override)), "planar"
    if weighted:
        if wg < 3:
            raise PreconditionViolated(f"minimum cycle weight {int(wg)} is below 3")
        return solve_planar_weighted(pg, SolverConfig(g=int(wg))), "planar"
    return solve_planar_unweighted(pg), "planar"


def cmd_solve(args) -> int:
    gf = read_graph(args.path)
    cert, alg = _solve_with(args.alg, gf, args.g)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as fh:
            for step in cert.trace:
                fh.write(_format_step(step) + "\n")
    valid = cert.validate(gf.graph)
    _print(f"algorithm = {alg}")
    _print(f"S = {' '.join(str(v) for v in sorted(cert.fvs))}")
    _print(f"|S| = {cert.size}")
    _print(f"bound = {_fmt_fraction(cert.bound_num, cert.bound_den)} "
           f"({cert.bound_kind.value})")
    _print(f"bound satisfied = {'yes' if valid else 'NO'}")
    if not valid:
        return 3
    return 0


def _format_step(step) -> str:
    parts = [step.rule,
             f"matched={','.join(map(str, step.matched))}"]
    if step.removed_vertices:
        parts.append(f"removed_vertices={','.join(map(str, step.removed_vertices))}")
    if step.removed_edges:
        parts.append("removed_edges=" + ";".join(f"{u}-{v}" for u, v in step.removed_edges))
    if step.added_edges:
        parts.append("added_edges=" + ";".join(f"{u}-{v}" for u, v in step.added_edges))
    if step.designated:
        parts.append(f"designated={','.join(map(str, step.designated))}")
    return " ".join(parts)


# -- verify -------------------------------------------------------------------


def _read_fvs_file(path: str) -> set[int]:
    out: set[int] = set()
    for no, line in enumerate(_read_ascii(path).splitlines(), start=1):
        for token in line.split("#", 1)[0].split():
            if not _is_int(token):
                raise ParseError(no, f"not a vertex id: {token!r}")
            out.add(int(token))
    return out


def cmd_verify(args) -> int:
    gf = read_graph(args.graph)
    fvs = _read_fvs_file(args.fvs)
    g = gf.graph
    if not validate_fvs(g, fvs):
        _print("invalid: removing the set leaves a cycle")
        return 1
    _print(f"valid feedback vertex set, |S| = {len(fvs)}")
    if args.bound == "none":
        return 0
    if args.bound == "cubic":
        num, den = g.n + 2, 3
        label = "(n+2)/3"
    else:
        # Weighted files get the weighted bound 3g|S| <= 4W that solve certifies.
        weighted = _is_weighted(g)
        label = "4W/3g" if weighted else "4m/3g"
        gr = weighted_girth(g) if weighted else girth(g)
        if gr == float("inf"):
            _print(f"bound {label} holds trivially: forest")
            return 0
        if gr < 3:
            raise PreconditionViolated(f"minimum cycle weight {int(gr)} is below 3")
        num, den = 4 * g.total_weight(), 3 * int(gr)
    if len(fvs) * den <= num:
        _print(f"bound {label} = {_fmt_fraction(num, den)} satisfied")
        return 0
    _print(f"bound {label} = {_fmt_fraction(num, den)} VIOLATED")
    return 4


# -- batch -------------------------------------------------------------------


def cmd_batch(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise PreconditionViolated(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    rows = []
    any_failed = False
    for path in files:
        row = dict.fromkeys(BATCH_COLUMNS, "") | {"instance": path.name}
        start = time.perf_counter()
        try:
            gf = read_graph(str(path))
            g = gf.graph
            gr = girth(g)
            wg = weighted_girth(g) if _is_weighted(g) else gr
            cert, alg = _solve_with("auto", gf, None, wg)
            row.update(n=g.n, m=g.m,
                       girth=("inf" if gr == float("inf") else int(gr)),
                       g=("" if wg == float("inf") else int(wg)),
                       alg=alg, fvs_size=cert.size,
                       bound_num=cert.bound_num, bound_den=cert.bound_den,
                       valid=("yes" if cert.validate(g) else "no"))
            if g.n <= ORACLE_CLI_MAX_N:
                res = min_fvs_exact(g)
                if not res.node_budget_hit:
                    row["exact_phi"] = res.phi
            if row["valid"] != "yes":
                any_failed = True
            _print(f"{path.name}: ok |S|={cert.size} "
                   f"bound={_fmt_fraction(cert.bound_num, cert.bound_den)}")
        except (FvsError, OSError, RecursionError) as exc:
            row["valid"] = "error"
            any_failed = True
            _print(f"{path.name}: error {exc}")
        row["ms"] = round(1000 * (time.perf_counter() - start), 3)
        rows.append(row)
    # A name that is not UTF-8 is written as its own bytes.
    with open(args.csv, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        writer = csv.DictWriter(fh, fieldnames=BATCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return 1 if any_failed else 0


# -- entry -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises argument errors for ``main``'s table; subparsers share the class."""

    def error(self, message: str):
        raise PreconditionViolated(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fvsbound",
        description="Feedback vertex sets with certified size bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("spec",
                       help="named instance (%s) or random-cubic | "
                            "random-planar | triangle-replace | cycles"
                            % ", ".join(named_instance_names()))
    p_gen.add_argument("out")
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--g", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--of")
    p_gen.set_defaults(func=cmd_gen)

    p_stats = sub.add_parser("stats", help="print instance statistics and bounds")
    p_stats.add_argument("path")
    p_stats.set_defaults(func=cmd_stats)

    p_solve = sub.add_parser("solve", help="compute a certified feedback vertex set")
    p_solve.add_argument("path")
    p_solve.add_argument("--alg", choices=["auto", "cubic", "planar", "trivial", "exact"],
                         default="auto")
    p_solve.add_argument("--g", type=int, help="override the certified minimum cycle weight")
    p_solve.add_argument("--trace", help="write the reduction trace to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a feedback vertex set file")
    p_verify.add_argument("graph")
    p_verify.add_argument("fvs")
    p_verify.add_argument("--bound", choices=["cubic", "planar", "none"], default="none")
    p_verify.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser("batch", help="solve every instance in a directory")
    p_batch.add_argument("dir")
    p_batch.add_argument("--csv", required=True)
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help printed its usage and exits 0
        return exc.code
    except (InternalInvariantBroken, RecursionError) as exc:
        return _fail(str(exc), 3)
    except (FvsError, OSError) as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
