"""`python -m grasspencils` runs the command line of the `grasspencils`
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
