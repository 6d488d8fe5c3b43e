"""Every CLI command's output, byte for byte, against the files in
``tests/golden``.

Each case runs one command through ``cli.main`` in text and in JSON.
The JSON timestamp is blanked, and ``enumerate --out`` writes to the
fixed name ``catalog.txt`` in a temporary directory, so no output
depends on the clock or on the path.  A change that alters an output
updates its golden file in the same diff; ``tools/regen_golden.py``
rewrites them all from :data:`CASES`.  The test itself writes none.
"""

import contextlib
import difflib
import io
import os
import re
from pathlib import Path

import pytest

from latcover import catalog as catalog_mod
from latcover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The file ``enumerate --out`` writes and ``verify-catalog --in`` reads.
CATALOG_FILE = "catalog.txt"

#: name, arguments after ``--format``, exit status.  Each case runs in
#: both formats, after ``enumerate --out`` has written its catalog.
CASES = (
    ("verify-all", ("verify-all",), 0),
    ("verify-catalog", ("verify-catalog",), 0),
    ("verify-catalog-in", ("verify-catalog", "--in", CATALOG_FILE), 0),
    ("verify-modular", ("verify-modular",), 0),
    ("verify-modular-3", ("verify-modular", "--modulus", "3"), 0),
    ("verify-groebner", ("verify-groebner",), 0),
    ("enumerate-raw-count", ("enumerate", "--raw-count"), 0),
    ("form-check", ("form", "check", "--coeffs", "0,1,1,0", "--conj", "1,0;0,1",
                    "--variant", "d3"), 0),
    ("form-compare", ("form", "compare", "--f", "0,1,1,0", "--g", "0,4,2,0",
                      "--n", "6", "--m", "36"), 0),
    ("form-compare-mismatch", ("form", "compare", "--f", "0,1,1,0", "--g", "0,1,3,0",
                               "--n", "3", "--m", "6"), 1),
)

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def outputs(workdir: Path) -> dict[str, str]:
    """Every golden file's name and content, as the CLI produces them
    now, run in ``workdir``, where ``enumerate --out`` writes its catalog."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        found = {"enumerate-out.txt": _run(["enumerate", "--out", CATALOG_FILE], 0)}
        found[CATALOG_FILE] = Path(CATALOG_FILE).read_text()
        for name, args, status in CASES:
            for fmt, suffix in (("text", "txt"), ("json", "json")):
                found[f"{name}.{suffix}"] = _run(["--format", fmt, *args], status)
    finally:
        os.chdir(cwd)
    return found


def _run(argv: list[str], status: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == status, (argv, code)
    return _TIMESTAMP.sub('"timestamp": ""', out.getvalue())


@pytest.fixture(scope="module")
def produced(tmp_path_factory, catalog, reduced_bases):
    """The outputs, with the session's catalog and bases served to every
    command that would compute them; ``enumerate`` still searches, since
    its raw count comes from the search it passes in."""
    generate = catalog_mod.generate_catalog
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "latcover.catalog.generate_catalog",
            lambda search=None: catalog if search is None else generate(search),
        )
        mp.setattr("latcover.groebner.certificate_bases", lambda: reduced_bases)
        return outputs(tmp_path_factory.mktemp("golden"))


def test_golden_files_are_exactly_the_outputs(produced):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(produced)


@pytest.mark.parametrize("name", sorted(
    [f"{name}.{suffix}" for name, _, _ in CASES for suffix in ("txt", "json")]
    + ["enumerate-out.txt", CATALOG_FILE]
))
def test_output_matches_golden(produced, name):
    want = (GOLDEN / name).read_text()
    got = produced[name]
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"golden/{name}", "output",
        )
        pytest.fail("".join(diff), pytrace=False)
