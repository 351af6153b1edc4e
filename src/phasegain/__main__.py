"""`python -m phasegain`: the command-line interface of `phasegain.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
