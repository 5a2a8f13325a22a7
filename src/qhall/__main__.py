"""`python -m qhall`: the qhall command line, runnable from a source
checkout without installing the package.  Importing this module runs
nothing."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
