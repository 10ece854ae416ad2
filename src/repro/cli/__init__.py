"""Command-line entry points.

The ``repro`` command (:mod:`repro.cli.unified`) fronts every task as a
subcommand — ``repro route``, ``repro evaluate``, ``repro generate``,
``repro lint``, ``repro resume``, ``repro serve``, ``repro trace`` and
``repro perf`` — each implemented by one module of this package.

The input readers below are shared by the subcommands that take a case
or a solution: every way an input can be bad is one :class:`InputError`,
which :func:`reports_input_errors` turns into one stderr line and exit
status 2.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, List, Optional, TypeVar

from repro.arch import MultiFpgaSystem
from repro.benchgen import GeneratedCase, load_case
from repro.io import parse_case_file, parse_solution_file, read_solution_json
from repro.io.contest_format import Case
from repro.netlist import Netlist
from repro.route import RoutingSolution

Main = Callable[[Optional[List[str]]], int]
T = TypeVar("T")


class InputError(Exception):
    """A bad command-line input (file, case name or option value)."""


def reports_input_errors(prog: str) -> Callable[[Main], Main]:
    """Decorate a subcommand's ``main``: an :class:`InputError` prints
    ``<prog>: <message>`` on stderr and returns exit status 2."""

    def decorate(main: Main) -> Main:
        @functools.wraps(main)
        def run(argv: Optional[List[str]] = None) -> int:
            try:
                return main(argv)
            except InputError as exc:
                print(f"{prog}: {exc}", file=sys.stderr)
                return 2

        return run

    return decorate


def read_case(path: str) -> Case:
    """``(system, netlist, delay_model)`` parsed from a text case file.

    Raises:
        InputError: when the file is missing, unreadable or malformed.
    """
    return _read("case", parse_case_file, path)


def read_solution(
    path: str, system: MultiFpgaSystem, netlist: Netlist, *, as_json: bool
) -> RoutingSolution:
    """The solution in a text or JSON (``as_json``) solution file.

    Raises:
        InputError: when the file is missing, unreadable or malformed.
    """
    read = read_solution_json if as_json else parse_solution_file
    return _read("solution", read, path, system, netlist)


def _read(what: str, read: Callable[..., T], path: str, *args: object) -> T:
    try:
        return read(path, *args)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {exc.filename}") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None
    except ValueError as exc:  # format errors, bad JSON, bad encoding
        raise InputError(f"invalid {what} file: {exc}") from None


def contest_case(name: str, scale: Optional[float]) -> GeneratedCase:
    """The contest case ``name``, generated at ``scale`` (``None``: the
    case's default scale).

    Raises:
        InputError: for an unknown case name or a scale outside (0, 1].
    """
    try:
        return load_case(name, scale=scale)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    except ValueError as exc:
        raise InputError(f"invalid --scale {scale}: {exc}") from None
