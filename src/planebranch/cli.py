"""Command line front end.

One subcommand per pipeline: semigroup and characteristic approximate
roots of a Weierstrass polynomial, the closed-formula diagram family
(optionally cross-checked against the numeric decomposition), jacobian
invariants, recovery of the semigroup from a stored family, and a small
demonstration that distinct semigroups can share every diagram but member 0.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 expression syntax error.
"""

import argparse
import json
import shlex
import sys
from pathlib import Path

from ._value import _num_to_json
from .branch import (
    Semigroup,
    characteristic_roots,
    semigroup_of,
    semigroup_to_char,
)
from .errors import (
    ContactUndecidableError,
    PlanebranchError,
    PolyParseError,
    ValidationError,
    VerificationError,
    _digit_limit,
)
from .fixtures import COLLIDING_PAIRS
from .jacobian import (
    family_from_json_dict,
    jnd_family,
    recovery_data,
)
from .parsing import parse_poly
from .puiseux import verify_decomposition

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with
    # the verification exit code; treat them as validation failures
    def error(self, message):
        raise ValidationError(message)


def _semigroup_flag(text: str) -> Semigroup:
    # ASCII digits only; int() itself still raises past its digit limit
    parts = [part.strip() for part in text.split(",")]
    try:
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(text)
        gens = tuple(int(part) for part in parts)
    except ValueError:
        raise ValidationError(f"cannot read semigroup {text!r}: expected v0,v1,...")
    return Semigroup(gens)


def _k_range(text: str, genus: int):
    if text == "all":
        return list(range(genus))
    digits = text.strip()
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(text)
        k = int(digits)
    except ValueError:
        raise ValidationError(f"--k must be an integer or 'all', got {text!r}")
    if not 0 <= k < genus:
        raise ValidationError(f"k={k} out of range for genus {genus}")
    return [k]


def _print_diagrams(family, ks):
    for k in ks:
        d = family.diagrams[k]
        print(f"k={k}: {d}")
        chain = " -> ".join(f"({a}, {b})" for a, b in d.vertices())
        print(f"  vertices: {chain}")


def _family_payload(family, ks):
    full = family.to_json_dict()
    return {
        "semigroup": full["semigroup"],
        "diagrams": [full["diagrams"][k] for k in ks],
    }


def cmd_semigroup(args) -> int:
    s = semigroup_of(parse_poly(args.f))
    char = semigroup_to_char(s)
    if args.json:
        print(json.dumps({
            "semigroup": list(s.generators),
            "characteristic": list(char.exponents),
            "gcds": list(s.gcds),
            "ramification": list(s.n_factors),
            "milnor": s.milnor(),
        }))
    else:
        # one print, so a number past the digit limit prints no line at all
        print("\n".join([
            f"semigroup:      {s}",
            f"characteristic: {char}",
            f"gcd sequence:   {', '.join(map(str, s.gcds))}",
            f"ramification:   {', '.join(map(str, s.n_factors))}",
            f"milnor number:  {s.milnor()}",
        ]))
    return 0


def cmd_roots(args) -> int:
    # every root is printed to text first, so one that cannot be printed
    # fails the command before any line reaches stdout
    texts = [str(r) for r in characteristic_roots(parse_poly(args.f))]
    if args.json:
        print(json.dumps({"roots": texts}))
    else:
        for k, text in enumerate(texts):
            print(f"k={k}: {text}")
    return 0


def cmd_jnd(args) -> int:
    if (args.semigroup is None) == (args.f is None):
        raise ValidationError("provide exactly one of --semigroup or --f")
    if args.verify and args.f is None:
        raise ValidationError("--verify needs --f, the formula alone has no curve to check")
    if args.f is not None:
        f = parse_poly(args.f)
        s = semigroup_of(f)
    else:
        s = _semigroup_flag(args.semigroup)
    family = jnd_family(s)
    ks = _k_range(args.k, s.genus)
    if args.svg and len(ks) != 1:
        raise ValidationError("--svg needs a single --k value")

    report = None
    if args.verify:
        report = verify_decomposition(f, None if args.k == "all" else ks[0])

    if args.svg:
        try:
            Path(args.svg).write_text(family.diagrams[ks[0]].render_svg())
        except OSError as exc:
            raise ValidationError(f"cannot write {args.svg}: {exc}")

    if args.json:
        payload = _family_payload(family, ks)
        if report is not None:
            payload["checks"] = [
                {"name": name, "ok": ok, "detail": detail} for name, ok, detail in report
            ]
        print(json.dumps(payload))
        return 0
    _print_diagrams(family, ks)
    if report is not None:
        # verify_decomposition raises on any failed check
        for name, _, detail in report:
            print(f"[ok] {name}" + (f": {detail}" if detail else ""))
    if args.svg:
        print(f"wrote {args.svg}")
    return 0


def cmd_invariants(args) -> int:
    s = _semigroup_flag(args.semigroup)
    if s.genus == 0:
        raise ValidationError("a smooth branch has no jacobian invariants")
    ks = _k_range(args.k, s.genus)
    family = jnd_family(s)
    rows = [(k, [seg.inclination for seg in family[k].segments]) for k in ks]
    if args.json:
        print(json.dumps({
            "semigroup": list(s.generators),
            "invariants": [
                {"k": k, "values": [_num_to_json(v) for v in values]} for k, values in rows
            ],
        }))
    else:
        for k, values in rows:
            print(f"k={k}: {', '.join(str(v) for v in values)}")
    return 0


def cmd_recover(args) -> int:
    try:
        text = Path(args.family).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {args.family}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValidationError(f"{args.family} is not valid JSON: {exc}")
    claimed, diagrams = family_from_json_dict(data)
    result = recovery_data(diagrams)
    if claimed is not None and claimed != result.semigroup:
        raise VerificationError(
            f"file claims {claimed} but the diagrams recover {result.semigroup}"
        )
    if args.json:
        print(json.dumps({"semigroup": list(result.semigroup.generators)}))
        return 0
    print(",".join(str(v) for v in result.semigroup.generators))
    if args.explain:
        print(result.describe())
    return 0


def cmd_demo(args) -> int:
    print("Distinct semigroups can share a diagram; the full family still")
    print("separates them.\n")
    for a, b in COLLIDING_PAIRS:
        fam_a, fam_b = jnd_family(a), jnd_family(b)
        shared = [
            (i, j)
            for i, da in enumerate(fam_a.diagrams)
            for j, db in enumerate(fam_b.diagrams)
            if da == db
        ]
        if not shared or fam_a.diagrams[0] == fam_b.diagrams[0]:
            raise VerificationError(f"collision pair {a}, {b} did not behave as expected")
        i, j = shared[0]
        print(f"{a} at k={i} and {b} at k={j} both give {fam_a.diagrams[i]}")
        for label, fam in ((str(a), fam_a), (str(b), fam_b)):
            for k, d in enumerate(fam.diagrams):
                print(f"  {label} k={k}: {d}")
        print()
    print("Each pair shares one member, yet member 0 alone separates them:")
    print("recover reads the semigroup off member 0 and certifies the rest.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planebranch",
        description="Exact invariants of irreducible plane curve germs.",
    )
    parser.add_argument(
        "--batch", metavar="FILE", help="run one subcommand per line of FILE, in order"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("semigroup", help="semigroup and characteristic of a branch")
    p.add_argument("--f", required=True, metavar="EXPR", help="Weierstrass polynomial in x, y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("roots", help="characteristic approximate roots of a branch")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_roots)

    p = sub.add_parser("jnd", help="approximate jacobian Newton diagrams")
    p.add_argument("--semigroup", metavar="V0,V1,...", help="closed formula from a semigroup")
    p.add_argument("--f", metavar="EXPR", help="compute the semigroup from a polynomial first")
    p.add_argument("--k", default="all", help="diagram index, or 'all'")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the formula against the numeric decomposition")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", metavar="PATH", help="write the diagram as SVG (single --k)")
    p.set_defaults(handler=cmd_jnd)

    p = sub.add_parser("invariants", help="jacobian invariants (polar quotients)")
    p.add_argument("--semigroup", required=True, metavar="V0,V1,...")
    p.add_argument("--k", default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("recover", help="semigroup back from a stored diagram family")
    p.add_argument("--family", required=True, metavar="FILE.json")
    p.add_argument("--explain", action="store_true", help="show how each value was read off")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_recover)

    p = sub.add_parser(
        "demo-noninjectivity",
        help="two semigroup pairs whose families overlap in one member",
    )
    p.set_defaults(handler=cmd_demo)

    return parser


def _fail(exc, code, json_mode) -> int:
    if json_mode:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _run_batch(path: str) -> int:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return 1
    status = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
            problem = "nested --batch" if "--batch" in words else None
        except ValueError as exc:
            problem = str(exc)
        if problem:
            print(f"error: line {lineno}: {problem}", file=sys.stderr)
            status = status or 1
            continue
        print(f"# {line}")
        code = main(words)
        status = status or code
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValidationError as exc:
        # no namespace exists yet, so the mode is read off the raw words
        return _fail(exc, 1, "--json" in argv)
    if args.batch:
        return _run_batch(args.batch)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _fail(ValidationError("a subcommand or --batch is required"), 1, False)
    json_mode = getattr(args, "json", False)
    try:
        with _digit_limit():
            return args.handler(args)
    except PolyParseError as exc:
        return _fail(exc, 3, json_mode)
    except (VerificationError, ContactUndecidableError) as exc:
        return _fail(exc, 2, json_mode)
    except PlanebranchError as exc:
        return _fail(exc, 1, json_mode)


if __name__ == "__main__":
    sys.exit(main())
