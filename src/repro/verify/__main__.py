"""``python -m repro.verify`` entry point: the one analyzer command."""

import sys

from repro.verify.cli import main

if __name__ == "__main__":
    sys.exit(main())
