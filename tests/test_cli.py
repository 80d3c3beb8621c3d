"""Command line behavior: outputs, exit codes, JSON determinism, batch."""

import json
import time

import pytest

from planebranch import (
    ElementarySegment,
    NewtonDiagram,
    characteristic_roots,
    cli,
    jacobian,
    parse_poly,
    puiseux,
)
from planebranch.cli import main

F2 = "(y^2-x^3)^2-x^5*y"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semigroup_text(capsys):
    code, out, _ = run(capsys, "semigroup", "--f", F2)
    assert code == 0
    assert "<4, 6, 13>" in out
    assert "(4; 6, 7)" in out
    assert "milnor number:  16" in out


def test_semigroup_json(capsys):
    code, out, _ = run(capsys, "semigroup", "--f", F2, "--json")
    assert code == 0
    assert json.loads(out) == {
        "semigroup": [4, 6, 13],
        "characteristic": [4, 6, 7],
        "gcds": [4, 2, 1],
        "ramification": [2, 2],
        "milnor": 16,
    }


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--f", F2)
    assert code == 0
    assert out.splitlines() == ["k=0: y", "k=1: y^2 - x^3"]


def test_jnd_from_semigroup(capsys):
    code, out, _ = run(capsys, "jnd", "--semigroup", "4,6,13")
    assert code == 0
    assert "k=0: {8\\2} + {13\\3}" in out
    assert "k=1: {28\\14}" in out
    assert "vertices: (0, 5) -> (8, 3) -> (21, 0)" in out


def test_jnd_json_deterministic(capsys):
    code, first, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "all", "--json")
    assert code == 0
    code, second, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "all", "--json")
    assert first == second
    assert json.loads(first) == {
        "semigroup": [4, 6, 13],
        "diagrams": [
            {"k": 0, "segments": [[8, 2], [13, 3]]},
            {"k": 1, "segments": [[28, 14]]},
        ],
    }


def test_jnd_single_k(capsys):
    code, out, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["diagrams"] == [{"k": 1, "segments": [[28, 14]]}]


def test_jnd_verify(capsys):
    code, out, _ = run(capsys, "jnd", "--f", F2, "--k", "1", "--verify")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def test_jnd_verify_runs_the_am_iteration_once(capsys, am_runs):
    # the semigroup and the verifier both ask for the run; the memo serves
    # the second request
    code, out, _ = run(capsys, "jnd", "--f", F2, "--verify")
    assert code == 0 and "[ok]" in out and "FAIL" not in out
    assert am_runs == [4, 2]


def test_jnd_verify_json_checks_match_the_text_lines(capsys):
    code, text, _ = run(capsys, "jnd", "--f", F2, "--verify")
    assert code == 0
    code, out, _ = run(capsys, "jnd", "--f", F2, "--verify", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(check["ok"] is True for check in checks)
    lines = [f"[ok] {c['name']}" + (f": {c['detail']}" if c["detail"] else "") for c in checks]
    assert lines == [line for line in text.splitlines() if line.startswith("[ok]")]


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--f", F2, "--json")
    assert code == 0
    assert json.loads(out) == {"roots": [str(r) for r in characteristic_roots(parse_poly(F2))]}


def test_jnd_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(puiseux, "jnd_family",
                        lambda s: [NewtonDiagram([ElementarySegment(1, 1)])] * s.genus)
    code, out, err = run(capsys, "jnd", "--f", F2, "--verify")
    assert code == 2 and err.startswith("error: decomposition checks failed")
    assert "[ok]" not in out
    code, out, err = run(capsys, "jnd", "--f", F2, "--verify", "--json")
    assert code == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "VerificationError"
    assert envelope["message"].startswith("decomposition checks failed")


@pytest.mark.parametrize("command, message", [
    ("invariants", "a smooth branch has no jacobian invariants"),
    ("jnd", "a smooth branch has no approximate jacobian diagrams"),
])
def test_smooth_semigroup_exits_1(capsys, command, message):
    code, out, err = run(capsys, command, "--semigroup", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, command, "--semigroup", "1", "--json")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValidationError", "message": message}


# a tail far above the Milnor number changes nothing, and its exponent must
# cost no memory: the resultants keep only the terms that are there
HUGE_TAIL = "y^2-x^3+x^1000000000000*y"


def test_huge_exponent_semigroup(capsys):
    code, out, err = run(capsys, "semigroup", "--f", HUGE_TAIL)
    assert code == 0 and "<2, 3>" in out and "milnor number:  2" in out
    assert "Traceback" not in err


def test_huge_exponent_roots(capsys):
    code, out, err = run(capsys, "roots", "--f", HUGE_TAIL)
    assert code == 0 and out.splitlines() == ["k=0: y + 1/2*x^1000000000000"]
    assert "Traceback" not in err


def test_huge_exponent_jnd_verify(capsys):
    code, out, _ = run(capsys, "jnd", "--f", HUGE_TAIL, "--verify")
    assert code == 0 and "k=0: {4\\2}" in out
    assert "[ok]" in out and "FAIL" not in out


def test_numbers_past_the_digit_limit(capsys, digit_limit):
    many = "1" * (digit_limit + 1)
    for f, column in ((f"{many}*x^2+y^2", 1), (f"x^{many}", 3)):
        code, out, err = run(capsys, "semigroup", "--f", f)
        assert code == 3 and out == ""
        assert err == f"error: number has more than {digit_limit} digits (line 1, column {column})\n"
    # the root y + 2^19999*x^2 parses, but its coefficient has 6,021 digits
    big = "y^2+2^20000*x^2*y-x^3"
    code, out, err = run(capsys, "roots", "--f", big)
    assert (code, out) == (1, "")
    assert err == f"error: cannot print a number of more than {digit_limit} digits\n"
    code, out, err = run(capsys, "roots", "--f", big, "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError",
                               "message": f"cannot print a number of more than {digit_limit} digits"}


def test_jnd_prints_all_of_its_result_or_nothing(capsys, digit_limit):
    # member 1 of <4, 6, v> is {2(v+1) \\ v+1}, one digit past the limit
    # when v has as many as it allows; member 0 still prints
    v = 6 * 10 ** (digit_limit - 1) + 1
    message = f"cannot print a number of more than {digit_limit} digits"
    code, out, err = run(capsys, "jnd", "--semigroup", f"4,6,{v}")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "jnd", "--semigroup", f"4,6,{v}", "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


def test_jnd_vertices_past_the_digit_limit_fail_the_text_only(capsys, digit_limit):
    # every side of member 0 of <8, 12, 26, v> fits, but its last vertex
    # sums them past the limit; the JSON form has no vertices
    gens = f"8,12,26,{10 ** digit_limit - 1}"
    code, out, err = run(capsys, "jnd", "--semigroup", gens, "--k", "0")
    assert (code, out) == (1, "")
    assert err == f"error: cannot print a number of more than {digit_limit} digits\n"
    code, out, err = run(capsys, "jnd", "--semigroup", gens, "--k", "0", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["diagrams"][0]["segments"][-1] == [10 ** digit_limit - 1, 6]


# (x^a)^b parses with two 2,200-digit numbers; the branch y^2 - x^(a*b)
# then has a generator of about 4,400 digits.  With a = b that exponent is
# even, and the Abhyankar-Moh run fails with a message that would quote it.
@pytest.mark.parametrize("a, b", [(10**2199 + 1, 3 * 10**2199 + 7), (10**2199, 10**2199)],
                         ids=["printed generator", "quoted intersection"])
def test_semigroup_numbers_past_the_digit_limit(capsys, digit_limit, a, b):
    f = f"y^2-(x^{a})^{b}"
    message = f"cannot print a number of more than {digit_limit} digits"
    code, out, err = run(capsys, "semigroup", "--f", f)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "semigroup", "--f", f, "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


def test_family_number_past_the_digit_limit(capsys, digit_limit, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(f'{{"semigroup": [2, {"3" * (digit_limit + 1)}], "diagrams": []}}')
    code, out, err = run(capsys, "recover", "--family", str(family))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {family} is not valid JSON: ") and "Traceback" not in err


def test_jnd_flag_conflicts(capsys):
    code, _, err = run(capsys, "jnd", "--semigroup", "4,6,13", "--f", F2)
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "jnd", "--semigroup", "4,6,13", "--verify")
    assert code == 1 and "--verify" in err


def test_jnd_svg(capsys, tmp_path):
    target = tmp_path / "diagram.svg"
    code, out, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "0", "--svg", str(target))
    assert code == 0
    assert f"wrote {target}" in out
    text = target.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    code, _, err = run(capsys, "jnd", "--semigroup", "4,6,13", "--svg", str(target))
    assert code == 1 and "single --k" in err


def test_jnd_svg_size_does_not_grow_with_the_generators(capsys, tmp_path):
    # a grid line per unit made <2, 200001> a 57 MB file written in 1.4 s;
    # the grid stops at 100 units a side
    small, huge = tmp_path / "small.svg", tmp_path / "huge.svg"
    assert run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "0", "--svg", str(small))[0] == 0
    # its vertices reach (21, 0) and (0, 5): grid lines at x = 0..22, y = 0..6
    assert small.read_text().count('stroke="#ddd"') == 23 + 7
    start = time.perf_counter()
    code, _, _ = run(capsys, "jnd", "--semigroup", "2,2000000001", "--k", "0", "--svg", str(huge))
    assert code == 0 and time.perf_counter() - start < 1
    assert huge.stat().st_size < 10_000 and 'stroke="#ddd"' not in huge.read_text()


def test_jnd_svg_needs_one_k_before_any_verification(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "verify_decomposition", lambda *args: calls.append(args) or [])
    target = tmp_path / "d.svg"
    code, out, err = run(capsys, "jnd", "--f", F2, "--verify", "--svg", str(target))
    assert code == 1 and "single --k" in err and out == ""
    assert calls == [] and not target.exists()


def test_jnd_svg_unwritable(capsys, tmp_path):
    target = str(tmp_path / "missing" / "d.svg")
    code, out, err = run(capsys, "jnd", "--semigroup", "2,3", "--k", "0", "--svg", target)
    assert code == 1 and out == "" and err.startswith(f"error: cannot write {target}")
    code, _, err = run(capsys, "jnd", "--semigroup", "2,3", "--k", "0", "--svg", target, "--json")
    assert code == 1 and json.loads(err)["error"] == "ValidationError"
    assert "Traceback" not in err


def test_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "--semigroup", "4,6,13")
    assert code == 0
    assert out.splitlines() == ["k=0: 4, 13/3", "k=1: 2"]
    code, out, _ = run(capsys, "invariants", "--semigroup", "4,6,13", "--json")
    assert json.loads(out) == {
        "semigroup": [4, 6, 13],
        "invariants": [{"k": 0, "values": [4, "13/3"]}, {"k": 1, "values": [2]}],
    }


def test_invariants_build_one_family(capsys, monkeypatch):
    # every row reads its inclinations off one family, whatever the genus
    builds = []
    build = jacobian.jnd_family

    def counted(s):
        builds.append(s)
        return build(s)

    monkeypatch.setattr(jacobian, "jnd_family", counted)
    monkeypatch.setattr(cli, "jnd_family", counted)
    code, out, _ = run(capsys, "invariants", "--semigroup", "32,48,132,538,1077")
    assert code == 0 and len(out.splitlines()) == 4
    assert len(builds) == 1


def test_integer_flags_take_ascii_digits_only(capsys):
    code, out, _ = run(capsys, "invariants", "--semigroup", " 4, 6 ,13 ", "--k", " 1 ")
    assert code == 0 and out.splitlines() == ["k=1: 2"]
    bad = ("\u0664,\u0666,\u0661\u0663", " 4, 6 ,1_3", "4,6,+13", "4,,13", "4,6," + "1" * 5000)
    for semigroup in bad:
        code, out, err = run(capsys, "jnd", "--semigroup", semigroup)
        assert code == 1 and out == "" and "cannot read semigroup" in err
        assert "Traceback" not in err
    for k in ("\u0661", "1_0", "-1", "+1", "", "1" * 5000):
        code, out, err = run(capsys, "invariants", "--semigroup", "4,6,13", "--k", k)
        assert code == 1 and out == "" and "--k must be an integer" in err
        assert "Traceback" not in err


def test_recover_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "all", "--json")
    payload = tmp_path / "family.json"
    payload.write_text(out)
    code, out, _ = run(capsys, "recover", "--family", str(payload))
    assert code == 0
    assert out.strip() == "4,6,13"
    code, out, _ = run(capsys, "recover", "--family", str(payload), "--explain")
    assert "multiplicity 4" in out
    code, out, _ = run(capsys, "recover", "--family", str(payload), "--json")
    assert json.loads(out) == {"semigroup": [4, 6, 13]}


def test_recover_detects_wrong_claim(capsys, tmp_path):
    data = {
        "semigroup": [4, 6, 35],
        "diagrams": [
            {"k": 0, "segments": [[8, 2], [13, 3]]},
            {"k": 1, "segments": [[28, 14]]},
        ],
    }
    payload = tmp_path / "family.json"
    payload.write_text(json.dumps(data))
    code, _, err = run(capsys, "recover", "--family", str(payload))
    assert code == 2
    assert "recover" in err


def test_recover_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "recover", "--family", str(tmp_path / "nope.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "recover", "--family", str(bad))
    assert code == 1 and "not valid JSON" in err


def test_recover_quotes_a_bad_side_as_given(capsys, tmp_path):
    payload = tmp_path / "family.json"
    payload.write_text('{"diagrams":[{"k":0,"segments":[["-1/2",3]]}]}')
    code, out, err = run(capsys, "recover", "--family", str(payload))
    assert (code, out, err) == (1, "", "error: segment length must be positive, got '-1/2'\n")


def test_recover_reads_reducible_fractions(capsys, tmp_path):
    payload = tmp_path / "family.json"
    payload.write_text('{"diagrams":[{"k":0,"segments":[["16/2","4/2"],["26/2","6/2"]]},'
                       '{"k":1,"segments":[["56/2","28/2"]]}]}')
    code, out, err = run(capsys, "recover", "--family", str(payload))
    assert (code, out, err) == (0, "4,6,13\n", "")


def test_recover_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "family.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "recover", "--family", str(bad))
    assert code == 1 and err.startswith(f"error: cannot read {bad}")
    code, _, err = run(capsys, "recover", "--family", str(bad), "--json")
    assert code == 1 and json.loads(err)["error"] == "ValidationError"
    assert "Traceback" not in err


def test_usage_errors_keep_the_output_mode(capsys):
    message = "the following arguments are required: --f"
    code, out, err = run(capsys, "semigroup", "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}
    assert run(capsys, "semigroup") == (1, "", f"error: {message}\n")


def test_demo_noninjectivity(capsys):
    code, out, _ = run(capsys, "demo-noninjectivity")
    assert code == 0
    assert "{72\\36}" in out and "{76\\38}" in out
    for gens in ("<4, 14, 31>", "<4, 6, 35>", "<4, 6, 37>", "<6, 10, 31>"):
        assert gens in out
    assert "member 0 alone separates them" in out


def test_exit_codes(capsys):
    code, _, err = run(capsys, "semigroup", "--f", "2x")
    assert code == 3 and "line 1, column 2" in err
    for node in ("y^2-x^2", "y*(y-x)", "y^2-x^2-x^3"):
        code, _, err = run(capsys, "semigroup", "--f", node)
        assert code == 1 and "not an irreducible branch" in err and "swap" not in err
    for command in ("semigroup", "roots"):
        code, out, err = run(capsys, command, "--f", "1")
        assert (code, out) == (1, "")
        assert err == "error: semigroup computation needs a polynomial of y-degree at least 1\n"
    code, _, err = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "7")
    assert code == 1 and "out of range" in err
    code, _, err = run(capsys, "jnd", "--semigroup", "4,5,13")
    assert code == 1
    code, _, err = run(capsys, "bogus-subcommand")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1


def test_a_root_that_is_not_a_branch_is_named(capsys):
    # (y^3-x^5)^2 + x^9 meets y with order 9, so the root of degree 2 is next;
    # it is y^2, and the remainder x^9 + x^10 of f by y^2 values 18 with x
    # weighing 6/3, a multiple of 3 that leaves the gcd chain at 3
    code, out, err = run(capsys, "semigroup", "--f", "(y^3-x^5)^2+x^9")
    assert (code, out) == (1, "")
    assert err == ("error: not an irreducible branch: intersection with an approximate root "
                   "does not refine the gcd chain (level 3, intersection 18)\n")
    code, _, err = run(capsys, "roots", "--f", "(y^3-x^5)^2+x^9", "--json")
    assert code == 1 and json.loads(err)["error"] == "ValidationError"


def test_a_product_of_coprime_degrees_is_not_a_branch(capsys):
    # I(y, f) = 3 + 4 = 7 is prime to 5, but x^4*y^2 lies below the Newton
    # edge from y^5 to x^7
    code, out, err = run(capsys, "semigroup", "--f", "(y^2-x^3)*(y^3-x^4)")
    assert (code, out) == (1, "")
    assert err == ("error: not an irreducible branch: its expansion in the approximate root "
                   "of degree 1 is not one Newton edge\n")


def test_two_branches_of_one_degree_fail_the_first_level(capsys):
    # I(y, f) = 4 + 5 = 9 is prime to 6, but x^4*y^3 lies below the Newton
    # edge from y^6 to x^9
    code, out, err = run(capsys, "semigroup", "--f", "(y^3-x^4)*(y^3-x^5)")
    assert (code, out) == (1, "")
    assert err == ("error: not an irreducible branch: its expansion in the approximate root "
                   "of degree 1 is not one Newton edge\n")


def test_json_error_envelope(capsys):
    code, _, err = run(capsys, "semigroup", "--f", "2x", "--json")
    assert code == 3
    envelope = json.loads(err)
    assert envelope["error"] == "PolyParseError"
    assert "column 2" in envelope["message"]


def test_batch_runs_in_order(capsys, tmp_path):
    family = tmp_path / "family.json"
    code, out, _ = run(capsys, "jnd", "--semigroup", "4,6,13", "--k", "all", "--json")
    family.write_text(out)
    script = tmp_path / "tasks.txt"
    script.write_text(
        "# comment and blank lines are skipped\n"
        "\n"
        "semigroup --f (y^2-x^3)^2-x^5*y\n"
        f"recover --family {family}\n"
        "invariants --semigroup 6,8,27\n"
    )
    code, out, _ = run(capsys, "--batch", str(script))
    assert code == 0
    lines = out.splitlines()
    order = [i for i, line in enumerate(lines) if line.startswith("# ")]
    assert len(order) == 3
    assert "semigroup" in lines[order[0]]
    assert "recover" in lines[order[1]]
    assert "invariants" in lines[order[2]]
    assert "4,6,13" in lines[order[1] + 1]


def test_batch_reports_first_failure_but_continues(capsys, tmp_path):
    script = tmp_path / "tasks.txt"
    script.write_text("semigroup --f 2x\nsemigroup --f y\n")
    code, out, err = run(capsys, "--batch", str(script))
    assert code == 3
    assert "semigroup:" in out  # the second task still ran
    script.write_text(f"--batch {script}\n")
    code, _, err = run(capsys, "--batch", str(script))
    assert code == 1 and "nested" in err


def test_batch_refuses_a_subcommand_before_any_line(capsys, tmp_path):
    script = tmp_path / "tasks.txt"
    script.write_text("semigroup --f y^2-x^3\n")
    message = "provide exactly one of a subcommand or --batch"
    assert run(capsys, "--batch", str(script), "roots", "--f", "y^3-x^4") == (
        1, "", f"error: {message}\n")
    code, out, err = run(capsys, "--batch", str(script), "roots", "--f", "y^3-x^4", "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}
    assert run(capsys) == (1, "", f"error: {message}\n")


def test_batch_reports_unbalanced_quote_and_continues(capsys, tmp_path):
    script = tmp_path / "tasks.txt"
    script.write_text('semigroup --f "y^2-x^3\nsemigroup --f y^2-x^3\n')
    code, out, err = run(capsys, "--batch", str(script))
    assert code == 1
    assert err.startswith("error: line 1: No closing quotation")
    assert "Traceback" not in err
    assert "<2, 3>" in out  # the second line still ran


def test_batch_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "--batch", str(tmp_path / "none.txt"))
    assert code == 1


def test_batch_file_not_utf8(capsys, tmp_path):
    script = tmp_path / "tasks.txt"
    script.write_bytes(b"\xff\xfesemigroup --f y\n")
    code, out, err = run(capsys, "--batch", str(script))
    assert code == 1 and out == "" and err.startswith("error: cannot read batch file")
    assert "Traceback" not in err
