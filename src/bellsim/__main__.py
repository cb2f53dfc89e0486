"""``python -m bellsim``: the command-line interface of ``bellsim.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
