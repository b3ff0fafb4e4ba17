"""One fresh-process set-up, timed from outside by run.py for ``setup_s``.

    python3 perfbench/probe.py --workload finite-mub --seed 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.bootstrap import prepare, set_up  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    prepare()
    set_up(args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
