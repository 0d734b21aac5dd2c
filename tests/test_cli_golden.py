"""Golden CLI corpus: stdout and exit codes must stay byte-identical.

``tests/golden/cli.json`` holds, for each command, the argv, the exit code
and the exact stdout recorded before the scalar kernel gained its fast
paths.  The corpus covers every verify suite (plus a failing mutation run),
``act`` with rational coefficients, ``witness --direction down`` at s = 8
(divided q-factorials, so non-unit denominators), all three crystal formats
and one usage error.
"""

import json
from pathlib import Path

import pytest

from qweyl.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_byte_identical(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]

