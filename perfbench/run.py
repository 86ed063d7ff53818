"""dcroadmap benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload plane_curves --seed 1 --seconds 30 --trace 0

Each request's answer is checked against ground truth known from how the
input was built.  The run prints a human-readable report, then, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--smoke`` runs one small request instead.  README.md explains
the workloads and what each metric should respond to.
"""

import compileall
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# The library's bytecode is brought up to date before the clock starts, so
# set-up imports current bytecode, as after an install, whatever ran in this
# checkout before.  Nothing else writes bytecode: no file outside the
# checkout is touched.
sys.dont_write_bytecode = True
if os.path.isdir(os.path.join(SRC, "dcroadmap")):
    compileall.compile_dir(os.path.join(SRC, "dcroadmap"), quiet=1)

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import instances  # noqa: E402

WORKLOADS = ("plane_curves", "space_curves", "connect_queries")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Printed with their sample counts, but not gated: a build run has too few
# requests for a tail that repeats from run to run (README.md).
TAIL = {
    "latency_p90_s": "s",
    "latency_max_s": "s",
}

PER_LAYER = {
    "realroots.tarski_query.calls": "count/req",
    "realroots.tarski_query.self_s": "s/req",
    "realroots.thom_encodings.calls": "count/req",
    "realroots.thom_encodings.self_s": "s/req",
    "realroots.compare_roots.calls": "count/req",
    "realroots.compare_roots.self_s": "s/req",
    "realroots.sign_mpoly.calls": "count/req",
    "realroots.sign_cache.hit_ratio": "ratio",
    "points.sample_components.self_s": "s/req",
    "points.limit_point.calls": "count/req",
    "points.limit_point.self_s": "s/req",
    "points.coordinate_encoding.calls": "count/req",
    "points.coordinate_encoding.misses": "count/req",
    "points.coord_cache.hit_ratio": "ratio",
    "points.dedupe_points.self_s": "s/req",
    "curves.curve_segments.self_s": "s/req",
    "curves.limit_curve.self_s": "s/req",
    "curves.segments": "count/req",
    "solve.solve_system.calls": "count/req",
    "solve.solve_system.self_s": "s/req",
    "solve.split_branches.self_s": "s/req",
    "mpoly.resultant.calls": "count/req",
    "mpoly.resultant.self_s": "s/req",
    "fastres.sylvester_resultant_interp.calls": "count/req",
    "fastres.sylvester_resultant_interp.self_s": "s/req",
    "fastres.subresultant1_interp.calls": "count/req",
    "fastres.subresultant1_interp.self_s": "s/req",
    "infring.mul.calls": "count/req",
    "roadmap.assemble_graph.self_s": "s/req",
    "roadmap.connectivity.self_s": "s/req",
    "roadmap.vertices": "count",
    "roadmap.edges": "count",
    "request.unattributed.self_s": "s/req",
    "process.coord_cache.entries": "count",
    "process.ext_ctx_cache.entries": "count",
    "process.endpoint_cache.entries": "count",
    "traced.throughput_per_s": "1/s",
}

class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Library:
    """The dcroadmap modules the benchmark drives, imported from ./src.

    Calls go through the module attributes at call time, so the tracer's
    wrappers are seen."""

    def __init__(self):
        pkg = os.path.join(SRC, "dcroadmap")
        if not os.path.isfile(os.path.join(pkg, "roadmap.py")):
            raise BenchmarkError(f"library sources not found under {pkg}")
        sys.path.insert(0, SRC)
        import dcroadmap.infring as infring
        import dcroadmap.mpoly as mpoly
        import dcroadmap.points as points
        import dcroadmap.realroots as realroots
        import dcroadmap.roadmap as roadmap
        import dcroadmap.solve as solve

        if os.path.dirname(os.path.abspath(roadmap.__file__)) != pkg:
            raise BenchmarkError(f"dcroadmap imported from {roadmap.__file__}, not {pkg}")
        self.infring, self.mpoly = infring, mpoly
        self.points, self.realroots, self.roadmap, self.solve = points, realroots, roadmap, solve

    def parse(self, inst):
        return [self.mpoly.parse_poly(e, inst.variables) for e in inst.equations]


def environment(lib):
    """Facts that change every number: results from different values must
    not be compared."""
    qq = type(lib.infring.QQ(1))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(),
            "qq": f"{qq.__module__}.{qq.__name__}",
            "nproc": nproc}


# ---------------------------------------------------------------------------
# build workloads


class BuildWorkload:
    """plane_curves / space_curves: each request builds a roadmap of a new
    instance with sample_components + roadmap_bounded and checks it."""

    def __init__(self, lib, name, seed, smoke):
        self.lib = lib
        small = instances.SMALL[name]
        self.stream = iter([small]) if smoke else instances.instance_stream(name, seed)
        # inputs for more requests than a run can finish are generated and
        # parsed during set-up; later ones, if any, on demand
        self.prepared = [self._prepare() for _ in range(1 if smoke else 40)]
        self.graph_sizes = []
        self.warm_up = None if smoke else (small, lib.parse(small))

    def finish_setup(self):
        """Build one small roadmap so the timed requests do not pay for the
        library's first use (lazy imports, first-call caches)."""
        if self.warm_up is not None:
            inst, polys = self.warm_up
            problems = self._build(inst, polys)
            if problems:
                raise BenchmarkError("warm-up roadmap is wrong: " + "; ".join(problems))
            self.graph_sizes.clear()

    def _prepare(self):
        inst = next(self.stream)
        return inst, self.lib.parse(inst)

    def request(self, i):
        while i >= len(self.prepared):
            self.prepared.append(self._prepare())
        inst, polys = self.prepared[i]
        return inst.kind, self._build(inst, polys)

    def _build(self, inst, polys):
        lib = self.lib
        budget = lib.solve.Budget()
        anchors = lib.points.sample_components(list(polys), xvars=inst.variables,
                                               budget=budget)
        target = polys[0] if len(polys) == 1 else list(polys)
        graph = lib.roadmap.roadmap_bounded(target, anchors, kprime=1, budget=budget)
        self.graph_sizes.append((len(graph.vertices), len(graph.edges)))
        return check_build(lib, inst, polys, anchors, graph)


def check_build(lib, inst, polys, anchors, graph):
    """Problems with a built roadmap, as strings; empty when it is right."""
    problems = []
    count = graph.component_count()
    if count != inst.components:
        problems.append(f"{count} components, expected {inst.components}")
    if len(anchors) < inst.components:
        problems.append(f"{len(anchors)} sample points for {inst.components} components")
    for vid, v in enumerate(graph.vertices):
        for p in polys:
            if lib.points.rur_sign(v, p) != 0:
                problems.append(f"vertex {vid} is not on the curve")
                break
    ids = graph.anchor_ids
    if len(ids) != len(anchors) or any(not 0 <= a < len(graph.vertices) for a in ids):
        problems.append(f"anchor ids {ids} do not name a vertex for each of "
                        f"{len(anchors)} anchors")
    return problems


# ---------------------------------------------------------------------------
# connectivity queries


class ConnectWorkload:
    """Set-up builds one roadmap of two disjoint circles; each request asks
    whether two points are connected.  The points arrive as text, as in
    ``dcroadmap connect``, and are parsed into fresh objects per request."""

    def __init__(self, lib, seed, smoke):
        self.lib = lib
        if smoke:
            small = instances.SMALL["connect_queries"]
            self.text, self.conics = small.equations[0], small.conics
        else:
            self.text, self.conics = instances.connect_curve(seed)
        self.P = lib.mpoly.parse_poly(self.text, instances.XY)
        self.conic_polys = [lib.mpoly.parse_poly(c, instances.XY) for c in self.conics]
        self.seed = seed
        self.graph = None

    def finish_setup(self):
        """The shared roadmap, its anchor points as text, and the component
        label of each from the construction (the conic it lies on)."""
        lib = self.lib
        budget = lib.solve.Budget()
        anchors = lib.points.sample_components([self.P], xvars=instances.XY, budget=budget)
        graph = lib.roadmap.roadmap_bounded(self.P, anchors, kprime=1, budget=budget)
        problems = check_build(lib, instances.Instance(
            "connect", instances.XY, (self.text,), len(self.conics)), [self.P], anchors, graph)
        if problems:
            raise BenchmarkError("shared roadmap is wrong: " + "; ".join(problems))
        self.graph = graph
        self.records, self.labels = [], []
        for vid in sorted(set(graph.anchor_ids)):
            v = graph.vertices[vid]
            self.records.append(self._record(v))
            on = [k for k, c in enumerate(self.conic_polys) if lib.points.rur_sign(v, c) == 0]
            if len(on) != 1:
                raise BenchmarkError(f"anchor {vid} lies on conics {on}")
            self.labels.append(on[0])
        n = len(self.records)
        self.pairs = [(a, b) for a in range(n) for b in range(n)]
        self.order = instances.query_order(self.seed, len(self.pairs))

    def _record(self, v):
        """Text form of a vertex: (uvar, f, signs, [f0..fk])."""
        mp = self.lib.mpoly
        if v.base.nlevels or v.f.ring is not mp.QRING:
            raise BenchmarkError(f"vertex {v} is not a rational representation")
        rec = (v.uvar, repr(v.f), tuple(v.sigma), tuple(repr(g) for g in v.F))
        if self._point(rec).F != v.F or mp.parse_poly(rec[1], (v.uvar,)) != v.f:
            raise BenchmarkError(f"vertex {v} does not survive a text round trip")
        return rec

    def _point(self, rec):
        lib = self.lib
        uvar, f, signs, F = rec
        parse = lib.mpoly.parse_poly
        return lib.points.RealUnivRep(
            lib.realroots.TriangularContext(lib.mpoly.QRING), uvar, parse(f, (uvar,)),
            signs, tuple(parse(g, (uvar,)) for g in F), instances.XY)

    def request(self, _i):
        a, b = self.pairs[next(self.order)]
        p, q = self._point(self.records[a]), self._point(self.records[b])
        connected, path = self.lib.roadmap.connectivity(self.graph, p, q)
        expected = self.labels[a] == self.labels[b]
        problems = []
        if connected != expected:
            problems.append(f"pair {a},{b}: connected={connected}, expected {expected}")
        elif connected and a != b and not path:
            problems.append(f"pair {a},{b}: connected without a path")
        return (a, b), problems


# ---------------------------------------------------------------------------
# measurement


def decile(values, k):
    """The k-th decile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


class Sample(NamedTuple):
    kind: object  # instance class, or the (point, point) pair of a query
    start: float  # seconds after the loop started
    latency: float
    problems: list  # empty when right; None when the request raised

    @property
    def ok(self):
        return self.problems == []


def run_loop(workload, seconds, tracer=None):
    """Closed loop, one client: the next request starts when the previous
    one has finished; no request starts after the deadline, and the one in
    flight at the deadline is finished and counted."""
    samples = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        try:
            if tracer is None:
                kind, problems = workload.request(i)
            else:
                kind, problems = tracer.run_request(i, workload.request, i)
        except Exception:  # a failed request is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            kind, problems = None, None
        samples.append(Sample(kind, t - start, time.perf_counter() - t, problems))
        i += 1
    return samples, time.perf_counter() - start


def throughput(samples, window):
    """Correct answers per second over the measured window.  The request in
    flight at the deadline counts with the share of it done by then, so the
    rate does not jump by a whole request when the deadline moves across a
    request boundary."""
    done = sum(min(1.0, max(0.0, (window - s.start) / s.latency)) for s in samples if s.ok)
    return done / window


def end_to_end(samples, window, setup_s):
    timed = [s for s in samples if s.ok] or samples
    lats = [s.latency for s in timed]
    by_kind = {}
    for s in timed:
        by_kind.setdefault(s.kind, []).append(s.latency)
    return {
        "setup_s": setup_s,
        "throughput_per_s": throughput(samples, window),
        "latency_p50_s": decile(lats, 5),
        "latency_p90_s": decile(lats, 9),
        # the slowest kind of request, at the median of its repeats
        "latency_max_s": max(statistics.median(v) for v in by_kind.values()),
        "success_rate": sum(s.ok for s in samples) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(lib, tracer, workload, samples, window):
    n = len(samples)
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0] / n

    def self_s(name):
        return spans.get(name, (0, 0.0))[1] / n

    sign_calls = counts["realroots.sign_mpoly.calls"]
    enc_calls = counts["points.coordinate_encoding.calls"]
    if isinstance(workload, ConnectWorkload):
        sizes = [(len(workload.graph.vertices), len(workload.graph.edges))]
    else:
        sizes = workload.graph_sizes or [(0, 0)]
    out = {}
    for mod_fn in ("realroots.tarski_query", "realroots.thom_encodings",
                   "realroots.compare_roots", "points.limit_point",
                   "solve.solve_system", "mpoly.resultant",
                   "fastres.sylvester_resultant_interp", "fastres.subresultant1_interp"):
        out[f"{mod_fn}.calls"] = calls(mod_fn)
        out[f"{mod_fn}.self_s"] = self_s(mod_fn)
    for mod_fn in ("points.sample_components", "points.dedupe_points",
                   "curves.curve_segments", "curves.limit_curve",
                   "solve.split_branches", "roadmap.assemble_graph",
                   "roadmap.connectivity"):
        out[f"{mod_fn}.self_s"] = self_s(mod_fn)
    out.update({
        "realroots.sign_mpoly.calls": sign_calls / n,
        "realroots.sign_cache.hit_ratio":
            1 - counts["realroots.level_solver.calls"] / sign_calls if sign_calls else 0.0,
        "points.coordinate_encoding.calls": enc_calls / n,
        "points.coordinate_encoding.misses": counts["points.coordinate_encoding.misses"] / n,
        "points.coord_cache.hit_ratio":
            1 - counts["points.coordinate_encoding.misses"] / enc_calls if enc_calls else 0.0,
        "curves.segments": tracer.counts["curves.segments"] / n,
        "infring.mul.calls": counts["infring.mul.calls"] / n,
        "roadmap.vertices": statistics.mean(v for v, _ in sizes),
        "roadmap.edges": statistics.mean(e for _, e in sizes),
        "request.unattributed.self_s": self_s("request"),
        "process.coord_cache.entries": len(lib.points._COORD_CACHE),
        "process.ext_ctx_cache.entries": len(lib.points._EXT_CTX_CACHE),
        "process.endpoint_cache.entries": len(sys.modules["dcroadmap.curves"]._ENDPOINT_CACHE),
        "traced.throughput_per_s": throughput(samples, window),
    })
    return out


def make_workload(lib, name, seed, smoke):
    if name == "connect_queries":
        return ConnectWorkload(lib, seed, smoke)
    return BuildWorkload(lib, name, seed, smoke)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small request")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    lib = Library()
    workload = make_workload(lib, args.workload, args.seed, args.smoke)
    workload.finish_setup()
    setup_s = time.perf_counter() - _T0

    seconds = 0 if args.smoke else args.seconds
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            samples, elapsed = run_loop(workload, seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(lib, tracer, workload, samples, seconds or elapsed)
        units = print_units = PER_LAYER
    else:
        samples, elapsed = run_loop(workload, seconds)
        metrics = end_to_end(samples, seconds or elapsed, setup_s)
        units = END_TO_END
        print_units = {**END_TO_END, **TAIL}

    env = environment(lib)
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload} seed {args.seed} seconds {seconds:g} "
          f"trace {args.trace} smoke {int(args.smoke)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"requests {len(samples)} correct {len(samples) - failed} failed {failed} "
          f"error_rate {failed / len(samples):.4f} elapsed_s {elapsed:.3f}")
    if isinstance(workload, ConnectWorkload):
        print(f"shared roadmap of {workload.text}: {len(workload.graph.vertices)} vertices, "
              f"{len(workload.graph.edges)} edges, {len(workload.records)} anchors")
    for i, s in enumerate(samples):
        if isinstance(workload, BuildWorkload):
            inst = workload.prepared[i][0]
            print(f"request {i} {s.latency:.3f}s {inst.kind} {' ; '.join(inst.equations)}")
        if s.problems:
            print(f"wrong answer on request {i}: {'; '.join(s.problems)}")
        elif s.problems is None:
            print(f"request {i} raised (traceback on stderr)")
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name, unit in print_units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
