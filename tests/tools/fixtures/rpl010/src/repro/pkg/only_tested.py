"""RPL010 fixture: reached only from tests/ (VIOLATION)."""


def orphan():
    return 2
