"""perfbench: the repo's two-clock end-to-end benchmark.

Six pinned workloads, measured from outside through ``repro``'s public
APIs only.  One command prints every end-to-end metric by name and unit
and checks the outputs; a separate traced pass attributes wall time and
counts to each layer.  See ``perfbench/README.md``.

``python3 -m perfbench run --workload W --seed S --seconds N --trace 0|1``
is the contract entry point named in ``BENCHMARK.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def need_repro() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit 2 when the
    program under test is absent (a directory holding only the
    benchmark has nothing to measure)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
