"""Per-layer tracing for the benchmark's traced run.

``install`` replaces functions of the package with timing wrappers, each in
the namespace where its caller looks it up (a function imported into another
module is wrapped there too, operators on the class).  The package itself is
not changed on disk and knows nothing of the wrappers.

Spans are aggregated in memory as they close: per span name the calls, the
inclusive time and the self time (inclusive time minus the time of spans
opened inside it).  A stage without a function of its own shows as its
caller's self time.  Counters record work done at the same boundaries.
Nothing is written until ``snapshot`` is called at the end of the pass.

A traced name that the package no longer has makes ``install`` raise, so a
renamed function stops the traced run instead of reading as 0.  Cache hits
are told by identity: a call that returns an object some earlier call
returned was served from a cache, whatever the cache's keys or type.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._returned: dict[str, dict] = defaultdict(dict)
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name, child_ns]

    def _close(self, frame, elapsed: int, rec: list[int]) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def span(self, name: str, fn):
        """Wrap a plain function: each call is one span."""
        rec = self.spans.setdefault(name, [0, 0, 0])
        stack, close, clock = self._stack, self._close, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock() - start, rec)

        return wrapper

    def generator_span(self, name: str, fn, on_done=None):
        """Wrap a generator function: each step is one span; ``on_done`` gets
        the number of values produced when the generator finishes."""
        rec = self.spans.setdefault(name, [0, 0, 0])
        stack, close, clock = self._stack, self._close, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    frame = [name, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, clock() - start, rec)
                    produced += 1
                    yield value
            finally:
                if on_done is not None:
                    on_done(produced)

        return wrapper

    def counter(self, name: str, fn):
        """Wrap a hot function with a call count only, no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, make(fn))

    def hits(self, name: str, fn, on_miss=None):
        """Count under ``name`` the calls of ``fn`` that return an object an
        earlier call returned (through any wrapper with this name); pass every
        other result to ``on_miss``.  The objects are kept alive, so that an
        id is never reused by a new object.  Python has one empty tuple, so an
        empty result counts as a hit after the first."""
        counts, returned = self.counts, self._returned[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if id(result) in returned:
                counts[name] += 1
            else:
                returned[id(result)] = result
                if on_miss is not None:
                    on_miss(result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {"spans": {name: {"calls": c, "incl_s": i / 1e9, "self_s": s / 1e9}
                          for name, (c, i, s) in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items()))}


def install(tr: Tracer) -> None:
    """Wrap every traced function of the package in ``tr``; raise if one of
    them is absent."""
    import leakyhurwitz as package
    from leakyhurwitz import chambers, cli, enumeration, exactarith, vertexdata

    counts = tr.counts

    def span(name):
        return lambda fn: tr.span(name, fn)

    # entry points, as the benchmark and the CLI look them up
    tr.patch(package, "compute_H", span("enumeration.compute_H"))
    for owner in (package, cli):
        tr.patch(owner, "wall_crossing", span("chambers.wall_crossing"))
        tr.patch(owner, "wall_crossing_formula", span("chambers.crossing_formula"))
    tr.patch(cli, "main", span("cli"))

    # enumeration
    def built(types):
        counts["enumeration.types.count"] += len(types)

    def types(fn):
        return tr.hits("enumeration.types.cache_hits",
                       tr.span("enumeration.types", fn), built)

    for owner in (enumeration, chambers):
        tr.patch(owner, "_types_for", types)
    for owner in (enumeration, cli):
        tr.patch(owner, "enumerate_covers", span("enumeration.enumerate_covers"))

    def scanned(produced):
        counts["enumeration.flow_scan.vectors"] += produced

    def extended(produced):
        counts["enumeration.linear_extensions.orders"] += produced
        counts["enumeration.linear_extensions.nonempty"] += produced > 0

    tr.patch(enumeration, "_admissible_flows",
             lambda fn: tr.generator_span("enumeration.flow_scan", fn, scanned))
    tr.patch(enumeration, "_solve_flows",
             lambda fn: tr.counter("enumeration.flow_scan.solves", fn))
    tr.patch(enumeration, "linear_extensions",
             lambda fn: tr.generator_span("enumeration.linear_extensions", fn,
                                          extended))

    # covers
    tr.patch(enumeration, "assemble_multiplicity",
             span("covers.assemble_multiplicity"))
    tr.patch(cli, "weighted_cover_to_json", span("covers.to_json"))

    # vertexdata
    def oracle(fn):
        timed = tr.span("vertexdata.oracle", fn)

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except vertexdata.MissingVertexData:
                counts["vertexdata.oracle.misses"] += 1
                raise

        return wrapper

    tr.patch(vertexdata, "vertex_mult", oracle)
    for owner in (package, vertexdata, cli):
        tr.patch(owner, "default_fixtures", span("vertexdata.fixtures_load"))

    # chambers
    for owner in (chambers, cli):
        tr.patch(owner, "walls", span("chambers.walls"))
        tr.patch(owner, "chamber_polynomial", span("chambers.chamber_polynomial"))
    tr.patch(chambers, "_find_flanking", span("chambers.flanking"))
    tr.patch(cli, "classify", span("chambers.classify"))

    tr.patch(chambers._TreeSystem, "contribution",
             lambda fn: tr.hits("chambers.contribution.hits",
                                tr.span("chambers.contribution", fn)))

    # exactarith
    poly = exactarith.Poly
    tr.patch(poly, "__init__", lambda fn: tr.counter("exactarith.poly_new", fn))
    tr.patch(poly, "__mul__", span("exactarith.poly_mul"))
    tr.patch(poly, "__add__", span("exactarith.poly_add"))
    tr.patch(poly, "__sub__", span("exactarith.poly_add"))
    tr.patch(poly, "substitute_degree", span("exactarith.normal_form"))
    tr.patch(poly, "compose", span("exactarith.normal_form"))
    tr.patch(exactarith.LinForm, "evaluate",
             lambda fn: tr.counter("exactarith.linform_eval", fn))
    if tr.missing:
        raise RuntimeError("traced functions absent from the package: "
                           + ", ".join(tr.missing))
