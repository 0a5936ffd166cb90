"""Command-line interface: exact counts, covers and chamber data.

Exit codes: 0 success, 1 standard output closed early, 2 invalid problem or
usage, 3 missing vertex fixture, 4 wall or reference-point error, 5 problem
too large (its enumeration went past Python's recursion limit, or ran out of
memory).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .chambers import (Wall, WallError, chamber_polynomial, classify,
                       wall_crossing, wall_crossing_formula, walls)
from .covers import Problem, ProblemError, weighted_cover_to_json
from .enumeration import count_covers, enumerate_covers
from .exactarith import rat_str
from .vertexdata import (FixtureError, MissingVertexData, default_fixtures,
                         load_fixtures)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID = 2
EXIT_MISSING_FIXTURE = 3
EXIT_WALL = 4
EXIT_TOO_LARGE = 5

FIXTURES_ENV = "LEAKY_FIXTURES"


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakyhurwitz",
        description="Exact k-leaky double Hurwitz descendant counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fixtures=False):
        p.add_argument("-g", "--genus", type=int, default=0)
        p.add_argument("-k", "--leak", type=int, default=0)
        p.add_argument("-x", "--profile", type=_int_list, required=True,
                       help="comma-separated signed degree profile")
        p.add_argument("-n", "--markings", type=int, default=None,
                       help="number of markings (inferred from -x)")
        p.add_argument("-e", "--psi", type=_int_list, default=None,
                       help="comma-separated psi exponents (default: zeros)")
        if fixtures:
            p.add_argument("--fixtures", default=None,
                           help=f"vertex fixture JSON (default: ${FIXTURES_ENV} or builtin)")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_number = sub.add_parser("number", help="compute the descendant count")
    common(p_number, fixtures=True)

    p_covers = sub.add_parser("covers", help="list every cover with its multiplicity")
    common(p_covers, fixtures=True)
    p_covers.add_argument("--keep-zero", action="store_true",
                          help="keep covers whose multiplicity is 0")

    p_poly = sub.add_parser("polynomial", help="genus-0 chamber polynomial at -x")
    common(p_poly)

    p_walls = sub.add_parser("walls", help="list the genus-0 walls")
    p_walls.add_argument("-n", "--markings", type=int, required=True)
    p_walls.add_argument("-k", "--leak", type=int, default=0)
    p_walls.add_argument("--format", choices=("json", "table"), default="json")

    p_wc = sub.add_parser("wallcross", help="wall crossing, computed and closed form")
    p_wc.add_argument("-n", "--markings", type=int, default=None,
                      help="number of markings (inferred from -e if omitted)")
    p_wc.add_argument("-k", "--leak", type=int, default=0)
    p_wc.add_argument("-e", "--psi", type=_int_list, default=None)
    p_wc.add_argument("--subset", type=_int_list, required=True)
    p_wc.add_argument("--format", choices=("json", "table"), default="json")

    p_cls = sub.add_parser("classify", help="genus-0 vanishing classification")
    common(p_cls)

    for p in sub.choices.values():
        # read "-7,3,1" as a value, as argparse reads a lone "-7"
        p._negative_number_matcher = re.compile(r"-\d+(,-?\d+)*$")
    return parser


def _problem(args) -> Problem:
    if args.markings is not None and args.markings != len(args.profile):
        raise ProblemError(
            f"-n {args.markings} disagrees with the profile length "
            f"{len(args.profile)}")
    e = args.psi if args.psi is not None else (0,) * len(args.profile)
    return Problem.of(args.genus, args.leak, args.profile, e)


def _fixtures(args):
    """The builtin table, extended and overridden by the user's file."""
    table = default_fixtures()
    path = args.fixtures or os.environ.get(FIXTURES_ENV)
    return {**table, **load_fixtures(path)} if path else table


def _emit(args, payload, table_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, in main, not at exit


def cmd_number(args) -> int:
    total, count = count_covers(_problem(args), _fixtures(args))
    _emit(args, {"H": rat_str(total), "covers": count},
          [f"H = {rat_str(total)} ({count} covers)"])
    return EXIT_OK


def cmd_covers(args) -> int:
    covers = enumerate_covers(_problem(args), _fixtures(args))
    if not args.keep_zero:
        covers = [wc for wc in covers if wc.multiplicity != 0]
    records = [weighted_cover_to_json(wc) for wc in covers]
    lines = []
    for i, wc in enumerate(covers):
        lines.append(f"cover {i}: aut={wc.aut} "
                     f"edges={[(a, b, w) for a, b, w in wc.cover.edges]} "
                     f"mult={rat_str(wc.multiplicity)}")
    _emit(args, records, lines)
    return EXIT_OK


def cmd_polynomial(args) -> int:
    p = _problem(args)
    poly = chamber_polynomial(p)
    _emit(args, {"normal_form": str(poly), "terms": poly.to_terms(),
                 "total_degree": poly.total_degree()},
          [f"H = {poly} on the chamber of x = {list(p.x)}"])
    return EXIT_OK


def cmd_walls(args) -> int:
    n, k = args.markings, args.leak
    found = [(list(w.subset), str(w.form.as_poly(n, k))) for w in walls(n)]
    _emit(args, [{"subset": subset, "form": form} for subset, form in found],
          [f"{subset}: {form} = 0" for subset, form in found])
    return EXIT_OK


def cmd_wallcross(args) -> int:
    subset = args.subset
    if args.markings is not None:
        n = args.markings
    elif args.psi is not None:
        n = len(args.psi)
    else:
        raise ProblemError("wallcross needs -n or -e to fix the marking count")
    if n < 3:
        raise ProblemError(f"unstable marking count: n = {n} must be at least 3")
    e = args.psi if args.psi is not None else (0,) * n
    k = args.leak
    p = Problem.of(0, k, (k * (n - 2),) + (0,) * (n - 1), e)
    wall = Wall.of(n, subset)
    computed = wall_crossing(p, wall)
    closed = wall_crossing_formula(p, wall)
    payload = {"subset": list(wall.subset),
               "computed": str(computed), "formula": str(closed),
               "terms_computed": computed.to_terms(),
               "terms_formula": closed.to_terms(),
               "equal": computed == closed}
    _emit(args, payload,
          [f"wall {list(wall.subset)}", f"computed: {computed}",
           f"formula : {closed}", f"equal   : {computed == closed}"])
    return EXIT_OK


def cmd_classify(args) -> int:
    p = _problem(args)
    verdict = classify(p)
    _emit(args, {"classification": verdict}, [verdict])
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {"number": cmd_number, "covers": cmd_covers,
                "polynomial": cmd_polynomial, "walls": cmd_walls,
                "wallcross": cmd_wallcross, "classify": cmd_classify}
    # exact integers parse and print in full, past the int-str digit limit
    # that Python 3.11 added
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except BrokenPipeError:  # the signal module docs' recipe: exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except RecursionError as exc:
        print(f"error: problem too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except MemoryError:
        print("error: problem too large: out of memory", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ProblemError, FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except WallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WALL
    except MissingVertexData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FIXTURE
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
