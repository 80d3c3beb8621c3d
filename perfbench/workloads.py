"""The four workloads: seeded inputs, one operation, and its independent check.

Each workload makes one pass of inputs from ``random.Random(seed)`` in a
fixed mix, so another seed gives comparable load.  Inputs are never
filtered by how the library handles them: a branch that escalates or
fails stays in the pass and its op counts as failed.  ``op`` raises
``Mismatch`` when the library's answer differs from the expectation
computed here; the caller counts any other exception as a failed op too.
Every case carries a JSON-ready ``replay`` record (semigroups, tail
flags, command lines) that is written into the results file.
"""

import contextlib
import io
import json
import subprocess
import sys
from collections import namedtuple
from math import gcd


class Mismatch(Exception):
    """The library returned a wrong answer."""


class Case:
    __slots__ = ("replay", "data", "expected")

    def __init__(self, replay, data, expected):
        self.replay = replay
        self.data = data
        self.expected = expected


# ---------------------------------------------------------------------------
# Semigroup arithmetic for expectations and strata, done without the library.
# ---------------------------------------------------------------------------


def _gcd_chain(gens):
    chain = [gens[0]]
    for v in gens[1:]:
        chain.append(gcd(chain[-1], v))
    return chain


def conductor(gens):
    """Milnor number of a branch with semigroup generators gens."""
    chain = _gcd_chain(gens)
    n = [a // b for a, b in zip(chain, chain[1:])]
    return sum((nq - 1) * v for nq, v in zip(n, gens[1:])) - gens[0] + 1


def root_milnor(gens, k):
    """Milnor number of the k-th characteristic approximate root."""
    l_k = _gcd_chain(gens)[k]
    return conductor(tuple(v // l_k for v in gens[: k + 1]))


def last_gap(gens):
    """b_g - b_(g-1), the distance between the last two characteristic exponents."""
    chain = _gcd_chain(gens)
    b = list(gens[:2])
    for q in range(1, len(gens) - 1):
        b.append(gens[q + 1] - chain[q - 1] // chain[q] * gens[q] + b[q])
    return b[-1] - b[-2]


# ---------------------------------------------------------------------------
# Branch inputs: strata of the random_test_branch population, dealt from decks.
# ---------------------------------------------------------------------------

#: genus, multiplicity, the range (lo, hi) of ``last_gap`` with hi=None for
#: no upper end, and whether the equation gets a tail
Stratum = namedtuple("Stratum", "genus multiplicity gaps tail", defaults=((1, None), False))


def population(pb, rng, genus, multiplicity, draws=2000):
    """The distinct semigroups of one (genus, multiplicity) class.

    They are what ``random_semigroup``, the generator behind
    ``random_test_branch``, returns in ``draws`` tries; for the classes
    used here that is every semigroup it can return, or most of them.
    """
    found = {}
    for _ in range(draws):
        s = pb.random_semigroup(rng, max_genus=genus, max_generator=10**4, genus=genus,
                                max_multiplicity=multiplicity)
        if s.multiplicity == multiplicity:
            found.setdefault(s.generators, s)
    return [found[gens] for gens in sorted(found)]


def deal(pb, rng, mix):
    """One pass of inputs: ``count`` certified branches per stratum, in seeded order.

    ``mix`` holds (Stratum, count) pairs.  Each stratum is dealt from a
    shuffled deck of its members, reshuffled when it runs out, so a count
    equal to the deck size takes every member once whatever the seed.
    Equations come from ``build_test_branch``, once per semigroup; a
    semigroup it cannot realize is skipped, as ``random_test_branch``
    skips it.  Returns (semigroup, polynomial, tail) triples.
    """
    populations, built, out = {}, {}, []
    for stratum, count in mix:
        key = (stratum.genus, stratum.multiplicity)
        if key not in populations:
            populations[key] = population(pb, rng, *key)
        lo, hi = stratum.gaps
        deck = [s for s in populations[key]
                if lo <= last_gap(s.generators) and (hi is None or last_gap(s.generators) <= hi)]
        order = []
        dealt = 0
        while dealt < count:
            if not order:
                if all(built.get(s.generators, 0) is None for s in deck):
                    raise RuntimeError(f"no branch realizes {stratum}")
                order = list(range(len(deck)))
                rng.shuffle(order)
            s = deck[order.pop()]
            if s.generators not in built:
                try:
                    built[s.generators] = pb.build_test_branch(s)
                except pb.ValidationError:
                    built[s.generators] = None
            if built[s.generators] is not None:
                out.append((s, built[s.generators], stratum.tail))
                dealt += 1
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# oracle: the Newton-Puiseux verifier, as `jnd --f ... --verify` runs it.
# ---------------------------------------------------------------------------


class Oracle:
    name = "oracle"
    modules = ("planebranch",)
    #: one pass, about 3.4 s.  Cost follows the last characteristic gap:
    #: genus-2 branches with gap 1 cost 5-20 times the others, so the gap
    #: ranges are strata of their own.  A count of 12 is the whole deck of
    #: those classes, so the load is the same for every seed.
    MIX = ((Stratum(2, 8, (1, 1)), 2), (Stratum(2, 8, (5, None)), 4),
           (Stratum(2, 6, (1, 1)), 12), (Stratum(2, 6, (5, None)), 8),
           (Stratum(2, 4, (3, None)), 12), (Stratum(1, 2), 8), (Stratum(1, 3), 8), (Stratum(1, 4), 8))

    def generate(self, pb, rng, workdir, seed):
        diagrams = {}
        cases = []
        for s, f, _ in deal(pb, rng, self.MIX):
            gens = tuple(s.generators)
            if gens not in diagrams:
                diagrams[gens] = [str(pb.jnd_formula(s, k)) for k in range(s.genus)]
            cases.append(Case({"semigroup": list(gens)}, f, diagrams[gens]))
        return cases

    def op(self, pb, case):
        report = pb.verify_decomposition(case.data)
        diagrams = case.expected
        seen = 0
        for name, ok, detail in report:
            if not ok:
                raise Mismatch(f"{name}: {detail}")
            if name.endswith("oracle diagram matches formula"):
                k = int(name.split(":", 1)[0][2:])
                measured = detail.split(" vs ", 1)[0]
                if measured != diagrams[k]:
                    raise Mismatch(f"k={k}: oracle {measured}, formula {diagrams[k]}")
                seen += 1
        if seen != len(diagrams):
            raise Mismatch(f"{seen} diagram checks for genus {len(diagrams)}")


# ---------------------------------------------------------------------------
# exact: parse, semigroup, approximate roots and jacobian intersections.
# ---------------------------------------------------------------------------


class Exact:
    name = "exact"
    modules = ("planebranch",)
    #: one pass, about 4 s.  A tail adds x^(mu+2)*y, above the Milnor
    #: number, so the semigroup stays the same while x-degrees grow to mu.
    #: 64 is the whole deck of genus-2 and of genus-3 multiplicity-8
    #: branches, whose costs are 5-10 times apart; the cheap rest sits
    #: below the median.
    MIX = ((Stratum(2, 8, tail=True), 64), (Stratum(3, 8), 64), (Stratum(2, 8), 16),
           (Stratum(2, 9), 16), (Stratum(2, 12), 16), (Stratum(2, 16), 16))

    def generate(self, pb, rng, workdir, seed):
        cases = []
        for s, f, tail in deal(pb, rng, self.MIX):
            gens = tuple(s.generators)
            mu = conductor(gens)
            if tail:
                f = f + pb.BiPoly.monomial(1, mu + 2, 1)
            heights = [root_milnor(gens, k) + gens[k + 1] - 1 for k in range(s.genus)]
            lengths = [mu + gens[k + 1] - 1 for k in range(s.genus)]
            cases.append(Case({"semigroup": list(gens), "tail": tail}, str(f),
                              (gens, heights, lengths)))
        return cases

    def op(self, pb, case):
        f = pb.parse_poly(case.data)
        s = pb.semigroup_of(f)
        roots = pb.characteristic_roots(f)
        gens, heights, lengths = case.expected
        if tuple(s.generators) != gens:
            raise Mismatch(f"semigroup {s}, expected {gens}")
        if len(roots) != len(heights):
            raise Mismatch(f"{len(roots)} approximate roots for genus {len(heights)}")
        for k, fk in enumerate(roots):
            jac = pb.jacobian_det(fk, f)
            height = pb.intersection_multiplicity(fk, jac)
            length = pb.intersection_multiplicity(jac, f)
            if (height, length) != (heights[k], lengths[k]):
                raise Mismatch(f"k={k}: I(fk,J)={height}, I(J,f)={length}, "
                               f"expected {heights[k]}, {lengths[k]}")


# ---------------------------------------------------------------------------
# cli: one fresh `planebranch` process per op.
# ---------------------------------------------------------------------------


class Cli:
    name = "cli"
    modules = ("planebranch", "planebranch.cli")
    #: one pass of 2 blocks, about 4 s: branches for `semigroup --f` and
    #: `roots --f`, then the small ones for `jnd --f --verify`
    MIX = ((Stratum(2, 8), 1), (Stratum(2, 9), 1))
    SMALL = ((Stratum(2, 4), 2),)

    def generate(self, pb, rng, workdir, seed):
        commands = []
        for b, ((_, f, _), (_, small, _)) in enumerate(zip(deal(pb, rng, self.MIX),
                                                          deal(pb, rng, self.SMALL))):
            fam = pb.random_semigroup(rng, max_genus=5, max_generator=10**4)
            inv = pb.random_semigroup(rng, max_genus=5, max_generator=10**4)
            path = workdir / f"cli-family-s{seed}-{b}.json"
            path.write_text(json.dumps(pb.jnd_family(fam).to_json_dict()))
            commands += [
                ["semigroup", "--f", str(f)],
                ["roots", "--f", str(f)],
                ["jnd", "--semigroup", ",".join(map(str, fam.generators)), "--json"],
                ["invariants", "--semigroup", ",".join(map(str, inv.generators))],
                ["recover", "--family", str(path), "--explain"],
                ["jnd", "--f", str(small), "--verify"],
            ]
        cases = []
        for argv in commands:
            code, out = self.in_process(pb, argv)
            cases.append(Case({"argv": argv}, argv, (code, out.encode())))
        return cases

    @staticmethod
    def in_process(pb, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pb.cli.main(list(argv))
        return code, buf.getvalue()

    def op(self, pb, case, env, cwd):
        proc = subprocess.run([sys.executable, "-m", "planebranch.cli", *case.data],
                              capture_output=True, env=env, cwd=cwd, timeout=60)
        golden_code, golden_out = case.expected
        if golden_code != 0:
            raise Mismatch(f"in-process golden run exited {golden_code}")
        if proc.returncode != 0:
            raise Mismatch(f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if proc.stdout != golden_out:
            raise Mismatch("stdout differs from the in-process golden output")

    def traced_op(self, pb, case):
        code, out = self.in_process(pb, case.data)
        if (code, out.encode()) != case.expected:
            raise Mismatch("in-process rerun differs from the golden output")


# ---------------------------------------------------------------------------
# family: closed formula, JSON round trip and certified recovery.
# ---------------------------------------------------------------------------


class Family:
    name = "family"
    modules = ("planebranch",)
    cases_per_pass = 1000

    def generate(self, pb, rng, workdir, seed):
        cases = []
        for i in range(self.cases_per_pass):
            s = pb.random_semigroup(rng, max_genus=5, max_generator=10**4, genus=1 + i % 5)
            gens = tuple(s.generators)
            cases.append(Case({"semigroup": list(gens)}, s, gens))
        return cases

    def op(self, pb, case):
        text = json.dumps(pb.jnd_family(case.data).to_json_dict())
        claimed, diagrams = pb.family_from_json_dict(json.loads(text))
        recovered = pb.recovery_data(diagrams).semigroup
        if tuple(recovered.generators) != case.expected or claimed != case.data:
            raise Mismatch(f"recovered {recovered}, expected {case.expected}")


WORKLOADS = {w.name: w for w in (Oracle(), Exact(), Cli(), Family())}
