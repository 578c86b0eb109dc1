# reprolint: disable=RPL010 -- caller is scripts/run.py, which imports it by string
"""RPL010 fixture: a string-imported module, suppressed naming its caller."""


def loaded_by_name():
    return 3
