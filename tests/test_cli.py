import contextlib
import io
import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcover import claims, enumeration
from latcover.catalog import MAX_CATALOG_CHARS, serialize
from latcover.cli import EX_USAGE, main
from latcover.forms import MAX_BOX_RADIUS, MAX_DEGREE
from latcover.mat2 import MAX_NUMBER_LENGTH

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus"])
    assert exc.value.code == EX_USAGE


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EX_USAGE


def test_verify_modular_single_modulus(capsys):
    code, out, _ = run(capsys, "verify-modular", "--modulus", "5")
    assert code == 0
    assert "PASS pair-classes mod 5" in out


@pytest.mark.parametrize("modulus, names", [
    (3, ["pair-classes", "first-coefficient-vanishing"]),
    (4, ["pair-classes"]),
    (5, ["pair-classes"]),
    (9, [
        "lifted-classes-(0,1,0,1)",
        "lifted-classes-(1,1,1,1)",
        "lifted-classes-(1,2,1,2)",
        "quadratic-forms",
    ]),
])
def test_verify_modular_report_names(capsys, modulus, names):
    code, out, _ = run(capsys, "verify-modular", "--modulus", str(modulus))
    assert code == 0
    assert [line for line in out.splitlines() if not line.startswith(" ")] == [
        f"PASS {name} mod {modulus}" for name in names
    ]
    code, out, _ = run(
        capsys, "--format", "json", "verify-modular", "--modulus", str(modulus)
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [(r["name"], r["modulus"]) for r in reports] == [
        (name, modulus) for name in names
    ]


def test_verify_modular_json_deterministic(capsys):
    code, out1, _ = run(capsys, "--format", "json", "verify-modular", "--modulus", "3")
    assert code == 0
    code, out2, _ = run(capsys, "--format", "json", "verify-modular", "--modulus", "3")
    assert code == 0
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', s)
    assert strip(out1) == strip(out2)
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["command"] == "verify-modular"


def test_enumerate_and_verify_catalog(capsys, tmp_path):
    out_file = tmp_path / "catalog.txt"
    code, out, _ = run(
        capsys, "enumerate", "--raw-count", "--out", str(out_file)
    )
    assert code == 0
    assert "6131" in out
    assert "54" in out
    assert out_file.exists()

    code, out, _ = run(capsys, "verify-catalog", "--in", str(out_file))
    assert code == 0
    assert "FAIL" not in out


def test_enumerate_has_no_slots_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--slots", "6"])
    assert exc.value.code == EX_USAGE


def test_verify_catalog_rejects_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("len=3 | zzz\n")
    code, _, err = run(capsys, "verify-catalog", "--in", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("line", [
    # ``int`` reads these as index 20, as "1,0;0,2" and as length 3.
    "len=3 | 2,0;0,1 | 1,0;0,2 | 1,0;1,2_0",
    "len=3 | 2,0;0,1 | \u0661,0;0,2 | 1,0;1,2",
    "len=0_3 | 2,0;0,1 | 1,0;0,2 | 1,0;1,2",
])
def test_verify_catalog_rejects_non_ascii_integers(capsys, tmp_path, line):
    bad = tmp_path / "bad.cat"
    bad.write_text(line + "\n", encoding="utf-8")
    code, _, err = run(capsys, "verify-catalog", "--in", str(bad))
    assert code == 2
    assert err.startswith("error: line 1: malformed catalog line")
    assert "does not cover" not in err


def test_verify_catalog_rejects_huge_index(capsys, tmp_path):
    # A lattice of index 10^12 would make the covering test scan 2 * 10^12
    # points; it is rejected as a data error instead.
    huge = tmp_path / "huge.cat"
    huge.write_text("len=4 | 2,0;0,1 | 1,0;0,2 | 1,0;1,2 | 1000000000000,0;0,1\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-catalog", "--in", str(huge))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert err.startswith("error: line 1: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [7, 11])
def test_verify_catalog_rejects_long_entries(capsys, tmp_path, n):
    # Entries longer than six lattices are rejected before the pairwise
    # incomparability check, whose matching grows factorially with the
    # entry length.
    unit = "1,0;0,1"
    long_cat = tmp_path / "long.cat"
    long_cat.write_text(
        f"len={n}" + f" | {unit}" * n + "\n"
        + f"len={n}" + f" | {unit}" * (n - 1) + " | 2,0;0,1\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-catalog", "--in", str(long_cat))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: ")


def test_verify_catalog_rejects_too_many_entries(capsys, tmp_path, catalog):
    # The incomparability check compares every pair of entries, so a
    # catalog past the entry cap is a data error, raised while parsing.
    big = tmp_path / "big.cat"
    big.write_text(serialize(catalog) * 60)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-catalog", "--in", str(big))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == "error: line 1001: more than 1000 catalog entries\n"


def test_verify_catalog_rejects_overlong_file(capsys, tmp_path, catalog):
    # The file is read up to one character past the cap, so a long input
    # cannot exhaust memory; past the cap even the real catalog, padded
    # with blank lines, is a data error.
    text = serialize(catalog)
    big = tmp_path / "big.cat"
    big.write_text(text + "\n" * (MAX_CATALOG_CHARS + 1 - len(text)))
    code, out, err = run(capsys, "verify-catalog", "--in", str(big))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog text longer than {MAX_CATALOG_CHARS} characters\n"


def test_form_check(capsys):
    code, out, _ = run(
        capsys, "form", "check", "--coeffs", "0,1,1,0",
        "--conj", "1,0;0,1", "--variant", "d3",
    )
    assert code == 0
    assert "extraordinary: True" in out


def test_form_check_accepts_fractions_and_decimals(capsys):
    code, out, _ = run(capsys, "form", "check", "--coeffs", "0,0.5,1/2,0")
    assert code == 0
    assert out.splitlines() == ["form: 1/2*X^2*Y + 1/2*X*Y^2", "extraordinary: True"]


@pytest.mark.parametrize("argv", [
    ("form", "check", "--coeffs", "1e999999999,0,0,1"),
    ("form", "compare", "--f", "1e200000,0,0,1", "--g", "0,1,1,0", "--n", "10", "--m", "60"),
    ("form", "compare", "--f", "0,1,1,0", "--g", "0,1,1,0x10"),
    ("form", "check", "--coeffs", "0,1,1,0", "--conj", "1e9,0;0,1"),
    ("form", "check", "--coeffs", "0,1_000,1,0"),
    ("form", "check", "--coeffs", "0,1,1," + "1" * (MAX_NUMBER_LENGTH + 1)),
])
def test_form_number_outside_grammar_exits_2(capsys, argv):
    # Fraction alone would read 1e999999999 as a 10^9-digit integer.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_leading_minus_needs_equals_sign(capsys):
    # argparse takes "-1,0,0,1" for an option unless it is attached with "=".
    with pytest.raises(SystemExit) as exc:
        main(["form", "check", "--coeffs", "-1,0,0,1"])
    assert exc.value.code == EX_USAGE
    capsys.readouterr()
    code, _, err = run(capsys, "form", "check", "--coeffs=-1,0,0,1")
    assert code == 2 and "not an automorphism" in err  # parsed, then refused
    code, out, _ = run(
        capsys, "form", "compare", "--f=-1,0,0,1", "--g=-1,0,0,1", "--n", "2"
    )
    assert code == 0 and out.splitlines()[-1] == "PASS"


def test_form_check_negative(capsys):
    code, out, _ = run(
        capsys, "form", "check", "--coeffs", "0,1,3,0",
        "--conj", "1/3,0;0,1", "--variant", "d3",
    )
    assert code == 0
    assert "extraordinary: False" in out


def test_form_compare(capsys):
    code, out, _ = run(
        capsys, "form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0",
        "--n", "6", "--m", "36",
    )
    assert code == 0
    assert "PASS" in out


def test_form_compare_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "form", "compare",
        "--f", "0,1,1,0", "--g", "0,4,2,0", "--n", "4", "--m", "24",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["unmatched_f"] == [] and payload["unmatched_g"] == []


@pytest.mark.parametrize("box", [("--n", "-1"), ("--m", "-3")])
def test_form_compare_negative_box_exits_2(capsys, box):
    code, out, err = run(
        capsys, "form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0",
        "--n", "2", "--m", "12", *box,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("form", "check", "--coeffs", "0,1,1,0", "--conj", "0,0;0,0"),
    ("form", "check", "--coeffs", "1/0,1"),
])
def test_form_check_zero_division_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _use_fixtures(monkeypatch, catalog, reduced_bases):
    """Serve the session's catalog and bases instead of computing them."""
    monkeypatch.setattr(
        "latcover.catalog.generate_catalog", lambda search=None: catalog
    )
    monkeypatch.setattr("latcover.groebner.certificate_bases", lambda: reduced_bases)


def test_verify_all_text_and_json(capsys, monkeypatch, catalog, reduced_bases):
    _use_fixtures(monkeypatch, catalog, reduced_bases)
    code, text, _ = run(capsys, "verify-all")
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify-all"
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert {
        "catalog/counts-per-length",
        "catalog/entries-incomparable",
        "modular/pair-classes-mod-3",
        "modular/lifted-classes-(0,1,0,1)-mod-9",
        "modular/quadratic-forms-mod-9",
        "groebner/R-R2",
        "groebner/S-RS-R2S",
        "form/F0",
        "form/sextic-1-0",
        "form/XY(X+3Y)",
        "form/value-sets-F0-vs-companion",
    } <= set(names)
    assert len(names) == len(set(names)) == 10 + 8 + 20 + 4
    assert text.splitlines() == [f"PASS {n}" for n in names] + ["all checks passed"]
    assert [n.split("/", 1)[0] for n in names] == [
        group for (group, _), k in zip(claims.GROUPS, (10, 8, 20, 4)) for _ in range(k)
    ]
    code, out, _ = run(capsys, "--format", "json", "verify-catalog")
    assert code == 0
    assert [n for n in names if n.startswith("catalog/")] == [
        "catalog/" + c["name"] for c in json.loads(out)["checks"]
    ]


def test_verify_all_reports_a_failed_claim(capsys, monkeypatch, catalog, reduced_bases):
    # XY(X+3Y) is the reference form expected not to be extraordinary.
    _use_fixtures(monkeypatch, catalog, reduced_bases)
    monkeypatch.setattr("latcover.forms.extraordinary_by_C3", lambda *args: True)
    code, text, _ = run(capsys, "verify-all")
    assert code == 1
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == ["FAIL form/XY(X+3Y)"]
    assert lines[-1] == "1 failure(s): form/XY(X+3Y)"
    code, out, _ = run(capsys, "--format", "json", "verify-all")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_enumerate_raw_count_searches_once(capsys, monkeypatch):
    # Wrap raw_solutions wherever a latcover module holds it.
    calls = []
    inner = enumeration.raw_solutions

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("latcover") and getattr(module, "raw_solutions", None) is inner:
            monkeypatch.setattr(module, "raw_solutions", counted)
    code, out, _ = run(capsys, "--format", "json", "enumerate", "--raw-count")
    assert code == 0
    assert json.loads(out)["raw_count"] == 6131
    assert len(calls) == 1


def test_verify_modular_mod9_names_representatives(capsys):
    code, out, _ = run(capsys, "verify-modular", "--modulus", "9")
    assert code == 0
    assert "PASS lifted-classes-(1,2,1,2) mod 9" in out.splitlines()


def _readme_cli_lines():
    """The ``latcover ...`` lines of the README's CLI code block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("latcover ")]


def test_readme_cli_examples_run(
    capsys, monkeypatch, tmp_path, catalog, reduced_bases
):
    _use_fixtures(monkeypatch, catalog, reduced_bases)
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 7
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)


def test_form_compare_huge_box_exits_2(capsys):
    # A box of radius 10^9 would hold about 4 * 10^18 points; it is
    # rejected before any value is computed.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0",
        "--m", "1000000000",
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_form_compare_names_the_defaulted_m(capsys):
    # --n 40 alone asks for m = 240, a number the user never typed.
    code, out, err = run(
        capsys, "form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0", "--n", "40"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: box sizes must lie in 0..200, got 40 and 240 (m defaulted to 6*n)\n"
    )
    code, _, err = run(
        capsys, "form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0",
        "--n", "40", "--m", "240",
    )
    assert code == 2
    assert err == "error: box sizes must lie in 0..200, got 40 and 240\n"


@pytest.mark.parametrize("argv", [
    ("form", "check", "--coeffs"),
    ("form", "compare", "--n", "10", "--m", "60", "--g", "0,1,1,0", "--f"),
])
def test_form_above_degree_cap_exits_2(capsys, argv):
    # Composition costs about degree^3 operations: without the cap a
    # form of degree 120 takes seconds and one of degree 1000 minutes.
    ones = ",".join(["1"] * (MAX_DEGREE + 2))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, ones)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "degree" in err


_number = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([MAX_BOX_RADIUS + 1, 10**9, -10**9]),
).map(str)
_token = st.one_of(
    _number,
    st.text(alphabet="0123456789,;/-+. ex", max_size=8),
    st.sampled_from(["--f", "--g", "--n", "--m", "--coeffs", "--conj",
                     "--variant", "--modulus", "d3", "d6", "--help", "-"]),
)
_rational = st.one_of(_number, st.builds("{}/{}".format, _number, _number))
_coeffs = st.one_of(
    st.lists(_number, min_size=1, max_size=MAX_DEGREE + 3),
    st.lists(_rational, min_size=1, max_size=MAX_DEGREE + 3),
).map(",".join)
_matrix = st.lists(_rational, min_size=4, max_size=4).map(
    lambda e: f"{e[0]},{e[1]};{e[2]},{e[3]}"
)


def _arg(flag, value):
    return value.map(lambda v: [flag, v])


def _opt(flag, value):
    return st.one_of(st.just([]), _arg(flag, value))


def _join(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_command = st.one_of(
    _join(st.just(["form", "check"]), _arg("--coeffs", _coeffs),
          _opt("--conj", _matrix), _opt("--variant", st.sampled_from(["d3", "d6"]))),
    _join(st.just(["form", "compare"]), _arg("--f", _coeffs), _arg("--g", _coeffs),
          _opt("--n", _number), _opt("--m", _number)),
    _join(st.just(["verify-modular"]),
          _opt("--modulus", st.sampled_from(["3", "4", "5", "9"]))),
)
_argv = _join(_opt("--format", st.sampled_from(["text", "json"])), _command)
#: Random tokens, each put in at a random place, in half of the examples.
_noise = st.one_of(
    st.just([]), st.lists(st.tuples(st.integers(0, 12), _token), min_size=1, max_size=2)
)


def _insert(argv, noise):
    for at, token in noise:
        argv.insert(at, token)
    return argv


@given(st.builds(_insert, _argv, _noise))
@settings(max_examples=100, deadline=None)
def test_cli_contract_on_fuzzed_argv(argv):
    # Exit 0 or 1 for a verdict, 2 for bad data, 64 for bad usage, and
    # never a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, EX_USAGE), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
