"""The suite's own configuration: a failing test is reported, not a crash.

Under ``pytest.ini``'s ``filterwarnings`` a failing ``hypothesis`` test must
be reported as a failure and the run must go on to the next test.
Hypothesis writes its failure patch with ``libcst``, whose import of
``mypy_extensions.TypedDict`` warns; promoted to an error, that warning used
to crash pytest's report hook with an INTERNALERROR and end the run.
"""

import configparser
import pathlib
import subprocess
import sys

PYTEST_INI = pathlib.Path(__file__).resolve().parent.parent / "pytest.ini"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    ini = configparser.ConfigParser()
    ini.read(PYTEST_INI)
    filters = ini["pytest"]["filterwarnings"].strip().splitlines()
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_two.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
