"""Command-line front end: argument parsing and report serialization only.
The acceptance engine behind verify-paper lives in shellbound.verify.

Every subcommand prints one JSON report document to standard output:

    {"command": ..., "inputs": ..., "result": ..., "version": ...}

All rational values are serialized as exact "p/q" strings; no floating-point
number ever appears in a payload.  Documents are byte-stable for fixed inputs
within a version (progress and timing go to standard error only).

Exit codes: 0 success, 1 verification failure (including a failed internal
certificate), 2 input error, 3 mathematical precondition violation or a
size limit (a PreconditionError, an invalid Gram matrix, or running out of
memory).  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional

# the command modules are imported where used: bound compiles no filter, and bound and filter load no numpy
from ._version import __version__
from .errors import CertificationError, InvalidGramError, LatticeFormatError, PreconditionError
from .exactpoly import shell_bound

if TYPE_CHECKING:
    from .lattice import GramLattice
    from .verify import Criterion, VerifyContext


# ---------------------------------------------------------------------------
# serialization

def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _jsonable(obj):
    """Recursively convert payload values to JSON-safe exact forms; a
    report (a named tuple) becomes the object of its fields."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return _rat(obj)
    if hasattr(obj, "_fields"):  # before the tuple branch: a report is a tuple
        return {name: _jsonable(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {(_rat(k) if isinstance(k, Fraction) else k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # floats, numpy scalars and anything else have no exact payload form
    raise TypeError(f"{type(obj).__name__} values are not allowed in report payloads")


def _emit(command: str, inputs: Dict, result) -> None:
    doc = {
        "command": command,
        "inputs": _jsonable(inputs),
        "result": _jsonable(result),
        "version": __version__,
    }
    # exact answers may pass the int-to-str digit limit: lift it for this dump only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# lattice sources

def _load_lattice(source: str) -> GramLattice:
    from .lattice import builtin, lattice_from_document

    if source.startswith("@"):
        path = source[1:]
        with open(path, "r", encoding="utf-8") as fh:
            return lattice_from_document(fh.read())
    return builtin(source)


def _lattice_arg(args) -> GramLattice:
    """The request's --lattice, which is also written to --dump when given."""
    from .lattice import lattice_to_document

    L = _load_lattice(args.lattice)
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(lattice_to_document(L))
    return L


def _shell_arg(args):
    """The norm-k shell of the request's --lattice."""
    from .lattice import enumerate_shell

    return enumerate_shell(_lattice_arg(args), args.k)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# plain subcommands

def _cmd_shell(args) -> int:
    if args.vectors:
        S = _shell_arg(args)
        result = {"count": len(S.vectors), "dim": S.lattice.n, "vectors": S.vectors.tolist()}
    else:
        # a count needs no shell: the search's rows are counted and dropped
        from .lattice import shell_count

        L = _lattice_arg(args)
        result = {"count": shell_count(L, args.k), "dim": L.n}
    _emit("shell", {"lattice": args.lattice, "k": args.k}, result)
    return 0


def _cmd_bound(args) -> int:
    _emit(
        "bound",
        {"n": args.n, "k": args.k},
        {"bound": shell_bound(args.n, args.k)},
    )
    return 0


def _cmd_spectrum(args) -> int:
    from .design import pair_distribution, spectrum

    S = _shell_arg(args)
    dist = pair_distribution(S)
    sp = spectrum(dist)
    result = {
        "count": len(S.vectors),
        "values": sp.values,
        "pair_counts": {Fraction(j, dist.k): c for j, c in dist.counts.items()},
    }
    _emit("spectrum", {"lattice": args.lattice, "k": args.k}, result)
    return 0


def _cmd_design(args) -> int:
    from .design import design_strength, pair_distribution

    report = design_strength(pair_distribution(_shell_arg(args)), t_max=args.tmax)
    _emit("design", {"lattice": args.lattice, "k": args.k, "t_max": args.tmax}, report)
    return 0


def _cmd_filter(args) -> int:
    from .filter import filter_search, root_filter

    if args.n is not None:
        result = root_filter(args.n, args.k)
        inputs = {"k": args.k, "n": args.n}
    else:
        result = {"dimensions": filter_search(args.k, args.nmax)}
        inputs = {"k": args.k, "n_max": args.nmax}
    _emit("filter", inputs, result)
    return 0


def _cmd_classify(args) -> int:
    from .classify import classify

    report = classify(_lattice_arg(args), args.k)
    _emit("classify", {"lattice": args.lattice, "k": args.k}, report)
    return 0


# ---------------------------------------------------------------------------
# verification suite (the engine is shellbound.verify)

def run_criterion(criterion: Criterion, ctx: VerifyContext) -> Dict:
    """One entry of the pass/fail table (status: pass, fail, or skip)."""
    from .verify import CriterionFailure, SkipCriterion

    entry: Dict = {"id": criterion.cid, "description": criterion.description}
    start = time.monotonic()
    try:
        details = criterion.run(ctx)
    except SkipCriterion as exc:
        entry["status"] = "skip"
        entry["reason"] = str(exc)
    except CriterionFailure as exc:
        entry["status"] = "fail"
        entry["reason"] = str(exc)
    else:
        entry["status"] = "pass"
        entry["details"] = details
    elapsed = time.monotonic() - start
    ctx.log(f"[{criterion.cid}] {entry['status'].upper():4s} ({elapsed:.2f} s) {criterion.description}")
    return entry


def _cmd_verify_paper(args) -> int:
    from .lattice import builtin
    from .verify import VerifyContext, acceptance_criteria

    overrides: Dict[str, GramLattice] = {}
    override_echo: Dict[str, str] = {}
    for item in args.override or []:
        if "=" not in item:
            raise LatticeFormatError(f"override {item!r} is not of the form NAME=@PATH")
        name, _, source = item.partition("=")
        if not source.startswith("@"):
            raise LatticeFormatError(f"override source {source!r} must be an @PATH file reference")
        builtin(name)  # criteria read builtin names only, so any other override would go unread
        if name in overrides:
            raise LatticeFormatError(f"repeated override name {name!r}")
        overrides[name] = _load_lattice(source)
        override_echo[name] = source

    criteria = acceptance_criteria()
    known = {c.cid for c in criteria}
    selected: Optional[List[str]] = None
    if args.criteria is not None:
        selected = []
        for chunk in args.criteria.split(","):
            cid = chunk.strip()
            if cid not in known:
                raise LatticeFormatError(f"unknown criterion id {cid!r}")
            if cid in selected:
                raise LatticeFormatError(f"repeated criterion id {cid!r}")
            selected.append(cid)
        criteria = [c for c in criteria if c.cid in selected]

    ctx = VerifyContext(
        include_slow=args.include_slow,
        overrides=overrides,
        verbose=not args.quiet,
    )
    table = [run_criterion(c, ctx) for c in criteria]
    unread = [repr(name) for name in overrides if name not in ctx.served]
    if unread:
        raise LatticeFormatError(f"no selected criterion reads the overridden lattice {', '.join(unread)}")
    failed = sum(1 for e in table if e["status"] == "fail")
    passed = sum(1 for e in table if e["status"] == "pass")
    skipped = sum(1 for e in table if e["status"] == "skip")
    inputs: Dict = {"include_slow": args.include_slow}
    if override_echo:
        inputs["overrides"] = override_echo
    if selected is not None:
        inputs["criteria"] = selected
    _emit(
        "verify-paper",
        inputs,
        {"criteria": table, "passed": passed, "failed": failed, "skipped": skipped},
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_threads_arg(sub) -> None:
    sub.add_argument("--threads", type=_positive_int, default=None,
                     help="accepted and ignored: the pair distribution uses every CPU the process may run on")


def _add_lattice_args(sub) -> None:
    sub.add_argument("--lattice", required=True,
                     help="builtin name (zn:N, an:N, dn:N, e8, leech, scaledz:Q) or @path to a lattice file")
    _add_threads_arg(sub)
    sub.add_argument("--dump", metavar="PATH", default=None,
                     help="also write the parsed lattice as a document to PATH")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shellbound",
        description="Exact shell enumeration, design strength, and equality classification for integral lattices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("shell", help="enumerate a norm-k shell")
    _add_lattice_args(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--vectors", action="store_true", help="include the canonical vector list")
    p.set_defaults(func=_cmd_shell)

    p = subs.add_parser("bound", help="evaluate the shell-count bound 2*binom(n+2k-2, 2k-1)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("spectrum", help="normalized inner-product spectrum of a shell")
    _add_lattice_args(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("design", help="spherical design strength and tightness of a shell")
    _add_lattice_args(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--tmax", type=_positive_int, default=None,
                   help="largest strength to test (default: 4k+3)")
    p.set_defaults(func=_cmd_design)

    p = subs.add_parser("filter", help="integrality root filter for shell-bound equality")
    p.add_argument("--k", type=_positive_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int, help="test a single dimension")
    group.add_argument("--nmax", type=_positive_int, help="search dimensions 2..NMAX")
    p.set_defaults(func=_cmd_filter)

    p = subs.add_parser("classify", help="full equality classification of a shell")
    _add_lattice_args(p)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("verify-paper", help="run the acceptance criteria table")
    p.add_argument("--include-slow", action="store_true",
                   help="also run the rank-24 enumeration criteria")
    _add_threads_arg(p)
    p.add_argument("--override", action="append", metavar="NAME=@PATH",
                   help="replace a builtin lattice by a file (negative controls)")
    p.add_argument("--criteria", default=None, metavar="IDS",
                   help="comma-separated criterion ids to run (default: all)")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines on stderr")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatticeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidGramError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a result too large for this host exits like one too large to enumerate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
