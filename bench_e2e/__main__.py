"""``python -m bench_e2e``."""

import sys

from bench_e2e.run import main

if __name__ == "__main__":
    sys.exit(main())
