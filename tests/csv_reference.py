"""The texts the CSV writer must reproduce, and a cheap diff.

``savetxt_csv`` is the ``np.savetxt`` table earlier versions wrote, and
``percent_column`` is the ``%`` route the writer used before its vectorized
kernel (one ``%`` over a column's ``tolist()``).  Test modules import these;
pytest puts this directory on ``sys.path``.
"""

import io
import itertools

import numpy as np


def savetxt_csv(header: str, cols) -> str:
    """A header line, then ``np.savetxt(..., delimiter=",", fmt="%.17g")``
    of the stacked columns."""
    buf = io.StringIO()
    buf.write(header + "\n")
    np.savetxt(buf, np.column_stack(cols), delimiter=",", fmt="%.17g")
    return buf.getvalue()


def percent_column(col) -> list:
    """``"%.17g" % x`` for every entry of a 1-D float column, in one ``%``."""
    vals = np.asarray(col, dtype=np.float64).tolist()
    return (("%.17g\n" * len(vals)) % tuple(vals)).split("\n")[:-1]


def first_difference(a: str, b: str):
    """None if the texts are equal, else (line number, line of a, line of b).

    Asserting on this keeps a failure cheap: pytest's own diff of two
    multi-megabyte strings takes minutes.
    """
    lines = itertools.zip_longest(a.split("\n"), b.split("\n"))
    for i, (x, y) in enumerate(lines, 1):
        if x != y:
            return i, x, y
    return None
