"""``python -m ghzpolytope``: the command-line interface, exiting with its status."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
