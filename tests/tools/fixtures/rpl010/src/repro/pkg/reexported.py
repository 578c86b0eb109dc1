"""RPL010 fixture: reached from a script through the package re-export."""


def helper():
    return 1
