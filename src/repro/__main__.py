"""Command-line entry point: ``python -m repro <command> [options]``.

Two commands, one per engine:

* ``experiments`` drives the declarative experiment engine (see
  :mod:`repro.experiments.cli`).  Every figure from the paper and every
  extension bench is a spec there: ``--run NAME`` measures it and prints
  its table, ``--check``/``--smoke``/``--soak`` gate fresh runs against
  the committed records, ``--docs`` regenerates EXPERIMENTS.md.
* ``conformance`` runs the differential dual-stack conformance sweep (see
  :mod:`repro.testkit.cli`).

Anything else prints this usage and exits 2.
"""

from __future__ import annotations

import sys

USAGE = "usage: python -m repro {experiments|conformance} [options]"


def main(argv: list[str]) -> int:
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command == "experiments":
        from repro.experiments.cli import experiments_main

        return experiments_main(rest)
    if command == "conformance":
        from repro.testkit.cli import conformance_main

        return conformance_main(rest)
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
