"""Rewrite ``tests/golden`` from the CLI's current outputs.

Runs the commands of ``tests/test_golden.py`` with the real catalog
search and Groebner bases, and replaces every golden file.  Run it from
the repository root after a change that is meant to alter an output,
and name the change in CHANGES.md:

    PYTHONPATH=src python tools/regen_golden.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import GOLDEN, outputs  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        found = outputs(Path(workdir))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for name, text in sorted(found.items()):
        (GOLDEN / name).write_text(text)
    print(f"wrote {len(found)} files to {GOLDEN}")


if __name__ == "__main__":
    main()
