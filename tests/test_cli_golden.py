"""Golden CLI corpus: stdout and exit codes must stay byte-identical.

``tests/golden/cli.json`` holds, for each command, the argv, the exit code
and the exact stdout recorded before the scalar kernel gained its fast
paths.  The corpus covers every verify suite (plus a failing mutation run),
``act`` with rational coefficients, ``witness --direction down`` at s = 8
(divided q-factorials, so non-unit denominators), all three crystal formats
and one usage error.  Four larger crystal graphs (I:r=0 at s = 9, I:r=2 at
s = 5, III:r=2 at s = 4, A1AFF at s = 6) were added before the Kashiwara
operators moved to Laurent polynomials, and recorded on the code before it.

``tests/golden/reports.json`` holds two failing ``verify --mutate xi-fold``
runs with their exit code, stdout and full ``--json`` report, recorded
before relation checks cleared denominators and action tables memoised.
The report comparison skips only the ``"mutation"`` key, which was added
to the report after the recording.

Before the coideal presentation and its alias ladder were derived from the
Satake diagram, both files gained cases recorded on the code before it:
``verify --suite iqg --max-degree 2`` on I:r=2, II:r=1, IV:r=1, V:r=1 and
VI:r=2, plain in ``cli.json`` and with ``--mutate xi-fold`` in
``reports.json`` (the residuals depend on which alias each B/H maps to);
``witness`` up and down on IV:r=1 and V:r=1; ``act`` with the t-aliases of
II:r=1 and VI:r=1.

Before ``crystal_graph`` walked each i-string once, three long-string
crystal cases were added, recorded on the code before it: I:r=0 at s = 16
(dot), A1AFF at s = 12 (json) and III:r=1 at s = 8 (tikz).

Before ``ScalarQ`` skipped the gcd for one-term numerators and the relation
compiler dropped its products by 1, ``reports.json`` gained three failing
``verify --suite iqg --max-degree 2 --mutate varsigma1`` runs (I:r=1,
IV:r=2, A1AFF), recorded on the code before it.  Their residuals have
multi-term denominators and long numerators, so they pin the canonical form.

After ``verify_relations`` took each verdict from the compiled form, so that
``--max-degree`` only bounds the residual search, ``reports.json`` gained two
failing runs recorded on that code: A1AFF at ``--max-degree 1`` with
``--mutate varsigma1`` and I:r=0 at ``--max-degree 0`` with ``--mutate
xi-fold``.  Both reported 0 failures before; their failing relations have no
residual at that degree, so they record ``null`` for the residual monomial
and coefficient.

Before the relation builders took their coefficients from per-call
constants and the compiler took both sides of a relation, ``reports.json``
gained three failing ``verify --suite all --max-degree 2`` runs, recorded on
the code before it by calling ``main`` with ``--json``: ``--mutate
varsigma1`` on II:r=2 and V:r=2, and ``--mutate xi-fold`` on IV:r=2.
"""

import json
from pathlib import Path

import pytest

from qweyl.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "cli.json").read_text())
REPORTS = json.loads((GOLDEN_DIR / "reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_byte_identical(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize("case", REPORTS, ids=lambda c: " ".join(c["argv"]))
def test_verify_json_report_is_identical(capsys, tmp_path, case):
    path = tmp_path / "report.json"
    code = main(list(case["argv"]) + ["--json", str(path)])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]
    report = json.loads(path.read_text())
    report.pop("mutation", None)
    assert report == case["report"]
