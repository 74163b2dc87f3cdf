"""Command line front end.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
All output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .builders import (
    AlexanderExponents,
    cable_exponents,
    library_names,
    load_library,
    staircase,
    torus_knot_exponents,
)
from .complexes import (
    CfkComplex,
    CfkError,
    ParameterError,
    load_file,
    mirror,
    serialize,
    tensor,
    validate,
)
from .homology import homology, realize
from .invariants import (
    a1_algebraic,
    a1_surgery,
    invariants,
    meridian_filtration,
)
from .regions import Region
from .suite import run_suite


def _add_inputs(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--knot", action="append", default=[], metavar="NAME",
                    help="library knot name (repeatable); see 'cfk list'")
    sp.add_argument("--file", action="append", default=[], metavar="PATH",
                    help="complex file (repeatable)")


def _resolve_inputs(args, want: int) -> list[CfkComplex]:
    out = [load_library(name) for name in args.knot]
    out += [load_file(path) for path in args.file]
    if len(out) != want:
        raise CfkError(f"expected {want} input complex(es), got {len(out)}")
    return out


def _require_valid(c: CfkComplex) -> CfkComplex:
    validate(c).raise_on_error()
    return c


# --region kind -> shape; the "*clip" kinds take the clip as a second integer
_REGION_SHAPES = {
    "vslice": "vertical",
    "vclip": "vertical",
    "hook": "hook",
    "hookclip": "hook",
    "lhook": "lhook",
    "lhookclip": "lhook",
}


def _parse_region(text: str) -> Region:
    kind, _, rest = text.partition(":")
    try:
        nums = [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        raise CfkError(f"region arguments must be integers: {text!r}") from None
    if kind not in _REGION_SHAPES:
        raise CfkError(f"unknown region kind {kind!r}; one of {', '.join(_REGION_SHAPES)}")
    arity = 2 if kind.endswith("clip") else 1
    if len(nums) != arity:
        example = ",".join(["0"] * arity)
        raise CfkError(f"region {kind!r} takes {arity} integer(s), e.g. {kind}:{example}")
    return Region(_REGION_SHAPES[kind], *nums)


def cmd_list(args) -> int:
    for name in library_names():
        print(name)
    return 0


def cmd_validate(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    rep = validate(c)
    for name, ok in rep.checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    for msg in rep.errors:
        print(f"error: {msg}")
    for msg in rep.warnings:
        print(f"warning: {msg}")
    print("valid" if rep.ok else "invalid")
    return 0 if rep.ok else 1


def cmd_invariants(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    report = invariants(_require_valid(c), n=args.n)
    if args.format == "json":
        print(json.dumps(report.as_dict(), ensure_ascii=False, indent=2))
    else:
        print(report.as_table())
    return 0


def cmd_a1(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    _require_valid(c)
    if args.method == "algebraic":
        a1 = a1_algebraic(c)
    elif args.method == "surgery":
        a1 = a1_surgery(c, args.n)
    else:
        # the report compares the two routes
        a1 = invariants(c, n=args.n).a1
    print(a1)
    return 0


def cmd_filtration(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    _require_valid(c)
    # the unclipped hook holds every generator once, in generator order
    hook = Region("hook", args.m).lattice_points(c, range(len(c.ids)))
    rows = [(p.gen, p.i, p.j, *meridian_filtration(p.i, p.j, args.m, args.n)) for p in hook]
    if args.format == "json":
        print(json.dumps(
            [{"gen": g, "i": i, "j": j, "first": a, "second": b} for g, i, j, a, b in rows],
            ensure_ascii=False, indent=2,
        ))
    else:
        header = ("gen", "i", "j", "first", "second")
        widths = [max(len(str(r[k])) for r in rows + [header]) for k in range(5)]
        for r in [header] + rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return 0


def cmd_tensor(args) -> int:
    left, right = (_require_valid(c) for c in _resolve_inputs(args, 2))
    sys.stdout.write(serialize(tensor(left, right)))
    return 0


def cmd_mirror(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    sys.stdout.write(serialize(mirror(_require_valid(c))))
    return 0


_N = r"\s*[-+]?\d+\s*"
# each staircase option's value: its form as help shows it, and that form as a pattern
_SPECS = {"--exponents": ("E0,E1,...", rf"{_N}(,{_N})*"), "--torus": ("P,Q", rf"{_N},{_N}"),
          "--cable": ("P,Q;R,S", rf"{_N},{_N};{_N},{_N}")}


def _spec(option: str, value: str) -> list[int]:
    """The integers of a staircase spec, or an error naming its option and form."""
    form, pattern = _SPECS[option]
    if not re.fullmatch(pattern, value):
        raise ParameterError(f"{option} takes {form}, got {value!r}")
    return [int(x) for x in re.split("[,;]", value)]


def cmd_staircase(args) -> int:
    given = [option for option in _SPECS if getattr(args, option[2:]) is not None]
    if len(given) != 1:
        raise CfkError(f"give exactly one of {', '.join(_SPECS)}")
    (option,) = given
    try:
        ints = _spec(option, getattr(args, option[2:]))
        if option == "--exponents":
            e, name = AlexanderExponents(tuple(ints)), None
        elif option == "--torus":
            p, q = ints
            e = torus_knot_exponents(p, q)
            name = f"T({p},{q})"
        else:
            p, q, r, s = ints
            base = torus_knot_exponents(p, q)
            e = cable_exponents(base, r, s)
            bound = r * (2 * base.exponents[0] - 1)  # L-space cables: Hom, AGT 2011
            if r >= 2 and s < bound:
                raise ParameterError(f"the ({r},{s})-cable of T({p},{q}) is not an L-space"
                                     f" knot: need S >= R(2g - 1) = {bound} for R >= 2")
            name = f"T({p},{q};{r},{s})"
    except ValueError as err:
        raise CfkError(str(err)) from None
    sys.stdout.write(serialize(staircase(e, name=name)))
    return 0


def cmd_realize(args) -> int:
    (c,) = _resolve_inputs(args, 1)
    _require_valid(c)
    region = _parse_region(args.region)
    x = realize(c, region)
    print(f"region {region.describe()}: {x.dim} basis point{'s' * (x.dim != 1)}")
    points = region.lattice_points(c, x.index)
    for p, col in zip(points, x.boundary):
        targets = []
        while col:  # the targets in ascending basis order, one per set bit
            low = col & -col
            targets.append(points[low.bit_length() - 1])
            col ^= low
        arrow = " -> " + " + ".join(f"[{t.gen},{t.i},{t.j}]" for t in targets) if targets else ""
        print(f"  [{p.gen},{p.i},{p.j}]{arrow}")
    print(f"homology dimension {homology(x).dimension}")
    return 0


def _seed_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {count}")
    return count


def cmd_suite(args) -> int:
    ok = run_suite(seed_count=args.seeds, extra_files=args.extra)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfk",
        description="Exact invariants of bifiltered knot chain complexes over F2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list library knot names")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("validate", help="check the axioms of a complex")
    _add_inputs(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("invariants", help="full invariant report")
    _add_inputs(sp)
    sp.add_argument("--n", type=int, default=None, help="cable parameter (default 2g+1)")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("a1", help="the integer concordance refinement")
    _add_inputs(sp)
    sp.add_argument("--method", choices=("algebraic", "surgery", "both"), default="both")
    sp.add_argument("--n", type=int, default=None, help="cable parameter (default 2g+1)")
    sp.set_defaults(func=cmd_a1)

    sp = sub.add_parser("filtration", help="per-point filtration levels on the hook")
    _add_inputs(sp)
    sp.add_argument("--m", type=int, required=True, help="surgery slot")
    sp.add_argument("--n", type=int, required=True, help="cable parameter")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=cmd_filtration)

    sp = sub.add_parser("tensor", help="tensor product of two complexes")
    _add_inputs(sp)
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("mirror", help="mirror of a complex")
    _add_inputs(sp)
    sp.set_defaults(func=cmd_mirror)

    sp = sub.add_parser("staircase", help="emit a staircase complex")
    for option, text in (("--exponents", "alternating exponents"),
                         ("--torus", "torus knot parameters"),
                         ("--cable", "(R,S)-cable of the (P,Q) torus knot")):
        sp.add_argument(option, metavar=_SPECS[option][0], help=text)
    sp.set_defaults(func=cmd_staircase)

    sp = sub.add_parser("realize", help="debug dump of a region realization")
    _add_inputs(sp)
    sp.add_argument("--region", required=True, metavar="KIND:ARGS",
                    help="vslice:i | vclip:i,jmax | hook:m | hookclip:m,imin"
                         " | lhook:t | lhookclip:t,imax")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("suite", help="run the property suite")
    sp.add_argument("--seeds", type=_seed_count, default=50, help="random model count")
    sp.add_argument("extra", nargs="*", help="extra complex files to include")
    sp.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a staircase value with a leading minus sign ("-1,3") would read as an
    # option; joined to its option, it reaches the parameter check instead
    for k in range(len(argv) - 1, 0, -1):
        option, value = argv[k - 1 : k + 1]
        if option in _SPECS and re.match(r"-\d", value):
            argv[k - 1 : k + 1] = [f"{option}={value}"]
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows up here at the latest
        return code
    except CfkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # as Python's signal docs advise, so that the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
