"""`python -m bigbatch`: the command-line front end of `bigbatch.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
