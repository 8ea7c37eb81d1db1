"""`python -m rankgauge`: the command-line front end of `rankgauge.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
