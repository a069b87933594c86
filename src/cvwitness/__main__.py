"""`python -m cvwitness`: the same command line as the `cvwitness` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
