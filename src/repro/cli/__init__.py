"""Command-line entry points.

The ``repro`` command (:mod:`repro.cli.unified`) fronts every task as a
subcommand — ``repro route``, ``repro evaluate``, ``repro generate``,
``repro partition``, ``repro lint``, ``repro resume``, ``repro serve``,
``repro trace`` and ``repro perf`` — each implemented by one module of
this package.
"""
