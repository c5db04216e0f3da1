"""python -m primebias: the command line, as the primebias script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
