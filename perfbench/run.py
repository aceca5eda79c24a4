"""fvsbound benchmark: certify a seeded workload in a closed loop and report metrics.

    python3 perfbench/run.py --workload cubic-random --seed 1 --seconds 55 --trace 0

Load model: one caller in one process, no threads; each instance is
certified only after the previous one returned. A run generates its
workload from ``--seed``, then certifies its instances in passes until
``--seconds`` is used up; the passes of a round certify every instance at
least once.

Timing. A shared host can change speed by up to 2x, in phases of seconds to
minutes, with CPU time still equal to wall time. So a fixed pure-Python
kernel is timed every ``KERNEL_EVERY_S`` seconds of the run, between
certifies, and every time is reported relative to it: each instance's time
is its mean certify time over the run, scaled by ``REF_KERNEL_S`` / (the
kernel's mean time over the same run). Solver and kernel are sampled
throughout the run, so a slow phase slows both means alike. Instances of the
cheap ladder rungs are certified in every pass or every other pass, and the
costly ones take turns, so the cheap rungs' samples meet the host at many
moments. Unscaled pass times and the kernel's mean time are in the info line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer split from the traced
ones, plus the tracing overhead between the two kinds of round.

Every output is re-checked by the benchmark's own forest and bound tests
(see workloads.py); a failure is counted, never fatal. The last stdout line
is the JSON result; the line before it carries the output digest, the seed
and the tail percentile as information.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# Set-up is repeated and its median reported, so one slow repetition
# (a cold page cache, bytecode compilation) does not set the figure.
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import fvsbound"
# The tail percentile keeps at least this many instances beyond it.
TAIL_BEYOND = 10
# Scaled times are seconds on a host where ``kernel()`` takes this long
# (a 2-core x86-64 box running CPython 3.11, unloaded).
REF_KERNEL_S = 0.021
KERNEL_EVERY_S = 0.25
# Spans recorded while generating inputs rather than while solving.
SETUP_SPANS = ("planar.embed", "instances.random_cubic_2connected",
               "instances.random_planar_girth")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed(fn):
    start = perf_counter()
    out = fn()
    return perf_counter() - start, out


def kernel() -> int:
    """Fixed host-speed probe in the solvers' idiom: dicts, tuples, sets, DFS."""
    rng = random.Random(5)
    adj = {v: [] for v in range(2000)}
    for _ in range(3000):
        u, v = rng.randrange(2000), rng.randrange(2000)
        adj[u].append(v)
        adj[v].append(u)
    adj = {v: tuple(sorted(ns)) for v, ns in sorted(adj.items())}
    reached = 0
    for root in range(0, 2000, 50):
        stack, seen = [root], {root}
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reached += len(seen)
    return reached


def kernel_s() -> float:
    return timed(kernel)[0]


def passes(insts) -> list[list[int]]:
    """Instance indices per pass of a round that certifies each ``inst.reps`` times.

    An instance's repeats fall in evenly spaced passes, and the instances with
    the same repeat count take turns at the offset, so the costly once-a-round
    instances spread over the passes between the cheap ones.
    """
    count = max(inst.reps for inst in insts)
    out = [[] for _ in range(count)]
    turn = Counter()
    for i, inst in enumerate(insts):
        offset = turn[inst.reps]
        turn[inst.reps] += 1
        for k in range(inst.reps):
            out[(offset + k * count // inst.reps) % count].append(i)
    return out


class Rounds:
    """Certifies the instances pass by pass and checks every output.

    ``probes`` collects the kernel's times, in seconds, for the run's scale.
    With ``repeat`` a round is the passes ``passes`` gives, which certify each
    instance ``inst.reps`` times; without it a round is one pass over every
    instance in order.
    """

    def __init__(self, insts, check, output_key, probes, repeat):
        self.insts = insts
        self._check = check
        self._output_key = output_key
        self.probes = probes
        self.passes = passes(insts) if repeat else [range(len(insts))]
        self.passes_run = 0
        self.attempted = 0
        self.failed = 0
        self.deterministic = True
        self.first_keys: dict[int, bytes] = {}
        self.first: dict[int, tuple] = {}  # each instance's first certificates
        self._verdicts: dict[tuple[int, bytes], bool] = {}
        self._reported = False

    def run(self):
        """The next pass; returns (each instance's unscaled certify seconds, outputs).

        ``times[i]`` lists instance i's certify times in this pass;
        ``outputs`` holds one (instance index, certificates) pair per certify.
        """
        times = [[] for _ in self.insts]
        outputs = []
        last_probe = perf_counter()
        order = self.passes[self.passes_run % len(self.passes)]
        self.passes_run += 1
        for i in order:
            t0 = perf_counter()
            try:
                certs = self.insts[i].certify()
            except Exception:
                if not self._reported:
                    traceback.print_exc(file=sys.stderr)
                    self._reported = True
                certs = None
            t1 = perf_counter()
            times[i].append(t1 - t0)
            outputs.append((i, certs))
            if t1 - last_probe >= KERNEL_EVERY_S:
                self.probes.append(kernel_s())
                last_probe = perf_counter()
        self._verify(outputs)
        return times, outputs

    def scale(self) -> float:
        return REF_KERNEL_S / statistics.fmean(self.probes)

    def _verify(self, outputs):
        for i, certs in outputs:
            key = b"raised" if certs is None else self._output_key(certs)
            if i not in self.first_keys:
                self.first_keys[i] = key
                self.first[i] = certs
            elif key != self.first_keys[i]:
                self.deterministic = False
            if (i, key) not in self._verdicts:
                self._verdicts[i, key] = certs is not None and self._check(self.insts[i], certs)
            self.attempted += 1
            self.failed += not self._verdicts[i, key]

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.insts)):
            h.update(f"#{i}\n".encode() + self.first_keys[i] + b"\n")
        return h.hexdigest()


def loop(seconds, kinds, at_least=1):
    """Run the pass callables in ``kinds`` in turn until ``seconds`` is spent.

    Each kind runs at least ``at_least`` times; another pass starts only if
    it would end inside the budget at that kind's slowest pass so far.
    """
    deadline = perf_counter() + seconds
    slowest: dict = {}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if i >= at_least * len(kinds) and perf_counter() + slowest[kind] > deadline:
            return
        slowest[kind] = max(slowest.get(kind, 0.0), timed(kind)[0])
        i += 1


def mean_times(pass_times, scale):
    """Each instance's mean certify time over every pass, scaled."""
    return [scale * statistics.fmean(t for ts in per_pass for t in ts)
            for per_pass in zip(*pass_times)]


def loglog_slope(points) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(insts, plain_times, rounds, setup_s):
    """Metrics from the untraced passes' per-instance times."""
    per_inst = mean_times(plain_times, rounds.scale())
    ranked = sorted(per_inst)
    n_inst = len(ranked)
    by_n: dict[int, list[float]] = {}
    for inst, t in zip(insts, per_inst):
        by_n.setdefault(inst.n, []).append(t)
    size = Fraction(0)
    bound = Fraction(0)
    for i, inst in enumerate(insts):
        certs = rounds.first[i]
        if certs is None:
            continue
        for cert, (num, den) in zip(certs, inst.bounds):
            size += len(cert.fvs)
            bound += Fraction(num, den)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (sum(per_inst), "s"),
        "inst_p50_ms": (1000 * statistics.median(per_inst), "ms"),
        "inst_tail_ms": (1000 * ranked[max(0, n_inst - TAIL_BEYOND - 1)], "ms"),
        "scaling_exp": (loglog_slope([(inst.n, t) for inst, t in zip(insts, per_inst)]),
                        "exponent"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fvs_ratio": (float(size / bound), "ratio"),
        "certified_frac": (1 - rounds.failed / rounds.attempted, "fraction"),
    }
    info = {"instances": n_inst,
            "tail_percentile": round(100 * (n_inst - TAIL_BEYOND) / n_inst, 2),
            "fvs_size_sum": int(size),
            "n_median_ms": {n: round(1000 * statistics.median(ts), 3)
                            for n, ts in sorted(by_n.items())}}
    return metrics, info


def rule_counts(outputs):
    """Exact step counts per rule code over one round's certificates."""
    counts = Counter()
    for _, certs in outputs:
        for cert in certs or ():
            for step in cert.trace:
                counts["trace.steps"] += 1
                code = step.rule[:2]
                if code[0] in "RP" and code[1].isdigit():
                    layer = "cubic" if code[0] == "R" else "girth"
                    counts[f"{layer}.rule.{code}"] += 1
                if code == "P2" and step.removed_edges:
                    counts["girth.p2_mergers"] += 1
    return counts


def per_layer(setup_tracer, traced, plain_times, scale, counts, span_names):
    """Metrics from traced rounds, each a (Tracer, per-instance seconds) pair.

    Span self times are means over the traced rounds; ``setup_tracer`` holds
    the one traced generation pass.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    first = traced[0][0]
    for name in span_names:
        source = [setup_tracer] if name in SETUP_SPANS else [t for t, _ in traced]
        calls = source[0].calls[name]
        ms = 1000 * scale * statistics.fmean(t.self_s[name] for t in source)
        if name == "graph.Graph":
            metrics["graph.Graph.builds"] = (calls, "count")
            metrics["graph.Graph.build_ms"] = (ms, "ms")
        else:
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_ms"] = (ms, "ms")
    for r in range(8):
        metrics[f"cubic.rule.R{r}"] = (counts[f"cubic.rule.R{r}"], "count")
    for p in range(6):
        metrics[f"girth.rule.P{p}"] = (counts[f"girth.rule.P{p}"], "count")
    steps, r5 = counts["trace.steps"], counts["cubic.rule.R5"]
    metrics["trace.steps"] = (steps, "count")
    metrics["girth.p2_mergers"] = (counts["girth.p2_mergers"], "count")
    metrics["graph.Graph.builds_per_step"] = (ratio(first.calls["graph.Graph"], steps), "ratio")
    metrics["planar.faces_of.calls_per_step"] = (ratio(first.calls["planar.faces_of"], steps), "ratio")
    metrics["cubic.r5_hit_ratio"] = (ratio(r5, first.calls["graph.has_two_edge_cut"]), "ratio")
    metrics["graph.min_side_two_edge_cut.calls_per_r5"] = (
        ratio(first.calls["graph.min_side_two_edge_cut"], r5), "ratio")
    metrics["planar.merger_hit_ratio"] = (
        ratio(counts["girth.p2_mergers"], first.calls["planar.find_guaranteed_merger"]), "ratio")
    traced_s = sum(mean_times([ts for _, ts in traced], scale))
    plain_s = sum(mean_times(plain_times, scale))
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.untraced_solve_s"] = (plain_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return metrics


def setup(make, seed):
    """Scaled set-up seconds, the median of SETUP_REPEATS, and the instances.

    A set-up runs from process start to the first solve: a fresh interpreter
    importing the package, then input generation. Each repetition is scaled
    by the mean of the kernel times taken just before and after it.
    """
    totals = []
    probe = kernel_s()
    for _ in range(SETUP_REPEATS):
        import_s = timed(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True))[0]
        gen_s, insts = timed(lambda: make(seed))
        after = kernel_s()
        totals.append(REF_KERNEL_S / ((probe + after) / 2) * (import_s + gen_s))
        probe = after
    return statistics.median(totals), insts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fvsbound" / "__init__.py").is_file():
        print(f"fvsbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    info = {"workload": args.workload, "seed": args.seed}
    probes = [kernel_s()]
    if args.trace:
        insts = make(args.seed)
        setup_tracer = tracer.Tracer()
        with setup_tracer.installed():
            make(args.seed)
    else:
        setup_s, insts = setup(make, args.seed)

    rounds = Rounds(insts, workloads.check, workloads.output_key, probes,
                    repeat=not args.trace)
    plain_times = []

    def plain_round():
        plain_times.append(rounds.run()[0])

    if args.trace:
        traced = []
        counts = Counter()

        def traced_round():
            t = tracer.Tracer()
            with t.installed():
                times, outputs = rounds.run()
            if not traced:
                counts.update(rule_counts(outputs))
            traced.append((t, times))

        loop(args.seconds, [plain_round, traced_round])
        metrics = per_layer(setup_tracer, traced, plain_times, rounds.scale(), counts,
                            tracer.span_names())
    else:
        loop(args.seconds, [plain_round], at_least=len(rounds.passes))
        metrics, more = end_to_end(insts, plain_times, rounds, setup_s)
        info.update(more)

    info.update({
        "passes": len(plain_times),
        "unscaled_pass_s": [round(sum(map(sum, ts)), 4) for ts in plain_times],
        "kernel_mean_ms": round(1000 * statistics.fmean(probes), 3),
        "scale": rounds.scale(),
        "attempted": rounds.attempted, "failed": rounds.failed,
        "failed_frac": rounds.failed / rounds.attempted,
        "deterministic": rounds.deterministic, "digest": rounds.digest()})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": rounds.failed == 0 and rounds.deterministic,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
