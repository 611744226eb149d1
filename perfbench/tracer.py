"""Run one shellbound CLI request with a span around every call into a layer.

    python perfbench/tracer.py SPANS_OUT REQUEST_ID ARG...

ARG... are the arguments of ``python -m shellbound``.  The request runs in
this fresh interpreter, so caches start cold as they do in the CLI.  Before
calling ``shellbound.cli.main`` the tracer replaces the public functions
listed in SPANNED wherever callers look them up (the attribute of every
shellbound module that holds the function), and wraps
``GramLattice.__init__`` and ``Poly.__call__``.  Spans stay in memory and
are written to SPANS_OUT as JSON when the request ends:

    {"request": ID, "import_s": s, "process_pools": n,
     "gegenbauer_cache_misses": n, "spans": [[name, start, end, parent, info], ...]}

``parent`` is the index of the enclosing span or -1; ``info`` holds counts
taken at the boundary (vectors returned, shell size and rank, case found).
Work inside process-pool workers is not traced; the span of the call that
waits for them covers it.
"""

import importlib
import sys
import time

_T0 = time.perf_counter()
MODULES = {
    name: importlib.import_module(f"shellbound.{name}")
    for name in ("lattice", "design", "exactpoly", "filter", "classify", "cli")
}
IMPORT_S = time.perf_counter() - _T0

import concurrent.futures.process  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402

# Public functions that get a span, by module: those the per-layer metrics
# name, and spectrum, so that its time is not counted as its caller's.
SPANNED = {
    "lattice": ("enumerate_shell", "brute_force_shell", "span_of", "hermite_normal_form",
                "lattice_from_document"),
    "design": ("pair_distribution", "spectrum", "moment_sum", "design_strength",
               "annihilator_identity_holds"),
    "exactpoly": ("cumulative_gegenbauer",),
    "filter": ("root_filter", "filter_search"),
    "classify": ("classify", "reflection_closure", "recognize_e8", "orthonormal_system"),
    "cli": ("main", "run_criterion"),
}


class Recorder:
    """Spans of one request, kept in memory."""

    def __init__(self):
        self.spans = []
        self.process_pools = 0
        self._local = threading.local()

    def wrap(self, fn, name, info=None, label=None):
        """fn with a span named name (or label(*args)) around each call;
        info(args, result) gives counts to keep with the span."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            span = [label(*args) if label else name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def _shell_info(args, kwargs, result):
    return {"vectors": len(result.vectors)}


def _pair_info(args, kwargs, result):
    S = args[0] if args else kwargs["S"]
    return {"size": len(S.vectors), "rank": S.lattice.n}


def _case_info(args, kwargs, result):
    return {"case": result.case}


INFO = {
    "lattice.enumerate_shell": _shell_info,
    "lattice.brute_force_shell": _shell_info,
    "design.pair_distribution": _pair_info,
    "classify.classify": _case_info,
}


def install(rec: Recorder) -> None:
    for mod_name, names in SPANNED.items():
        home = MODULES[mod_name]
        for fname in names:
            original = getattr(home, fname)
            name = f"{mod_name}.{fname}"
            label = None
            if name == "cli.run_criterion":
                label = lambda criterion, ctx: f"cli.criterion.{criterion.cid}"  # noqa: E731
            wrapped = rec.wrap(original, name, INFO.get(name), label)
            for mod in MODULES.values():
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapped)
    gl = MODULES["lattice"].GramLattice
    gl.__init__ = rec.wrap(gl.__init__, "lattice.GramLattice")
    poly = MODULES["exactpoly"].Poly
    poly.__call__ = rec.wrap(poly.__call__, "exactpoly.Poly.__call__")

    pool_init = concurrent.futures.process.ProcessPoolExecutor.__init__

    @functools.wraps(pool_init)
    def counting_init(self, *args, **kwargs):
        rec.process_pools += 1
        pool_init(self, *args, **kwargs)

    concurrent.futures.process.ProcessPoolExecutor.__init__ = counting_init


def main(argv):
    spans_out, request_id, args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    try:
        code = MODULES["cli"].main(args)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({
                "request": request_id,
                "import_s": IMPORT_S,
                "process_pools": rec.process_pools,
                "gegenbauer_cache_misses": MODULES["exactpoly"].gegenbauer.cache_info().misses,
                "spans": rec.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
