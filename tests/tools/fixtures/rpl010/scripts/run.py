"""RPL010 fixture: the non-test caller."""

import importlib

from repro.pkg import helper


def main():
    module = importlib.import_module("repro.pkg.suppressed")
    return helper() + module.loaded_by_name()
