"""``python -m spechtgb``: the same command line as the ``spechtgb`` script."""

import sys

from .verify import main

if __name__ == "__main__":
    sys.exit(main())
