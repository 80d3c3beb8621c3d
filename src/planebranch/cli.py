"""Command line front end.

One subcommand per pipeline: semigroup and characteristic approximate
roots of a Weierstrass polynomial, the closed-formula diagram family
(optionally cross-checked against the numeric decomposition), jacobian
invariants, recovery of the semigroup from a stored family, and a small
demonstration that distinct semigroups can share every diagram but member 0.

Each handler does all its work, files included, and returns (payload,
lines): its result as a JSON object and as an iterable of text lines,
read only for text output.  main alone reads --json and prints one of
the two with one print, so a command prints its whole result or nothing.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 expression syntax error.
"""

import argparse
import json
import shlex
import sys

from ._value import _num_to_json
from .branch import (
    Semigroup,
    characteristic_roots,
    semigroup_of,
    semigroup_to_char,
)
from .errors import PlanebranchError, ValidationError, VerificationError, _digit_limit
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


def cmd_semigroup(args):
    s = semigroup_of(parse_poly(args.f))
    char = semigroup_to_char(s)
    mu = s.milnor()
    payload = {
        "semigroup": list(s.generators),
        "characteristic": list(char.exponents),
        "gcds": list(s.gcds),
        "ramification": list(s.n_factors),
        "milnor": mu,
    }
    return payload, [
        f"semigroup:      {s}",
        f"characteristic: {char}",
        f"gcd sequence:   {', '.join(map(str, s.gcds))}",
        f"ramification:   {', '.join(map(str, s.n_factors))}",
        f"milnor number:  {mu}",
    ]


def cmd_roots(args):
    texts = [str(r) for r in characteristic_roots(parse_poly(args.f))]
    return {"roots": texts}, [f"k={k}: {text}" for k, text in enumerate(texts)]


def cmd_jnd(args):
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

    # verify_decomposition raises on any failed check
    report = verify_decomposition(f, None if args.k == "all" else ks[0]) if args.verify else []

    if args.svg:
        svg = family.diagrams[ks[0]].render_svg()
        try:
            with open(args.svg, "w") as out:
                out.write(svg)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.svg}: {exc}")

    full = family.to_json_dict()
    payload = {"semigroup": full["semigroup"], "diagrams": [full["diagrams"][k] for k in ks]}
    if args.verify:
        payload["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in report]

    def lines():
        # lazy: a vertex sums sides, and can pass the digit limit where no JSON side does
        for k in ks:
            d = family.diagrams[k]
            yield f"k={k}: {d}"
            yield "  vertices: " + " -> ".join(f"({a}, {b})" for a, b in d.vertices())
        for name, _, detail in report:
            yield f"[ok] {name}" + (f": {detail}" if detail else "")
        if args.svg:
            yield f"wrote {args.svg}"

    return payload, lines()


def cmd_invariants(args):
    s = _semigroup_flag(args.semigroup)
    if s.genus == 0:
        raise ValidationError("a smooth branch has no jacobian invariants")
    ks = _k_range(args.k, s.genus)
    family = jnd_family(s)
    rows = [(k, [seg.inclination for seg in family[k].segments]) for k in ks]
    payload = {
        "semigroup": list(s.generators),
        "invariants": [{"k": k, "values": [_num_to_json(v) for v in values]} for k, values in rows],
    }
    return payload, [f"k={k}: {', '.join(str(v) for v in values)}" for k, values in rows]


def cmd_recover(args):
    try:
        with open(args.family) as src:
            text = src.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {args.family}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValidationError(f"{args.family} is not valid JSON: {exc}")
    claimed, diagrams = family_from_json_dict(data)
    result = recovery_data(diagrams)
    s = result.semigroup
    if claimed is not None and claimed != s:
        raise VerificationError(f"file claims {claimed} but the diagrams recover {s}")
    lines = [",".join(map(str, s.generators))]
    if args.explain:
        lines.append(result.describe())
    return {"semigroup": list(s.generators)}, lines


def cmd_demo(args):
    lines = ["Distinct semigroups can share a diagram; the full family still",
             "separates them.", ""]
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
        lines.append(f"{a} at k={i} and {b} at k={j} both give {fam_a.diagrams[i]}")
        lines += [f"  {label} k={k}: {d}"
                  for label, fam in ((str(a), fam_a), (str(b), fam_b))
                  for k, d in enumerate(fam.diagrams)]
        lines.append("")
    lines += ["Each pair shares one member, yet member 0 alone separates them:",
              "recover reads the semigroup off member 0 and certifies the rest."]
    return None, lines


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


def _fail(exc, json_mode) -> int:
    envelope = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(envelope) if json_mode else f"error: {exc}", file=sys.stderr)
    return exc.exit_code


def _run_batch(path: str) -> int:
    try:
        with open(path) as src:
            text = src.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(ValidationError(f"cannot read batch file: {exc}"), False)
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
            code = _fail(ValidationError(f"line {lineno}: {problem}"), False)
        else:
            print(f"# {line}")
            code = main(words)
        status = status or code
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command is None) == (args.batch is None):
            parser.error("provide exactly one of a subcommand or --batch")
    except ValidationError as exc:
        # the mode is read off the raw words, as there may be no namespace yet
        return _fail(exc, "--json" in argv)
    if args.batch is not None:
        return _run_batch(args.batch)
    json_mode = getattr(args, "json", False)
    try:
        with _digit_limit():
            payload, lines = args.handler(args)
            out = json.dumps(payload) if json_mode else "\n".join(lines)
    except PlanebranchError as exc:
        return _fail(exc, json_mode)
    if out:  # a command with no lines prints no empty one
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
