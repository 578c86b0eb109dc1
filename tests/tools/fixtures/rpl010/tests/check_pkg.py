"""RPL010 fixture: a test importing every module (tests are not callers).

Not named ``test_*.py`` so the repository's pytest run never collects it.
"""

from repro.pkg import helper, orphan
from repro.pkg.suppressed import loaded_by_name


def check_all():
    assert helper() + orphan() + loaded_by_name() == 6
