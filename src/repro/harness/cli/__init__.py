"""The ``python -m repro.harness`` subcommands, one module each.

:mod:`.options` declares the flags several subcommands share;
:mod:`.jobs` is ``dse``/``faults``/``rtl`` (clients of the service's job
contract), :mod:`.trace`, :mod:`.serve` and :mod:`.obs` the rest.
``repro.harness.__main__`` dispatches to them and owns the default
tables-and-figures run.
"""
