"""``python -m udnet``: the udnet command-line interface."""

import sys

from .cli import main

sys.exit(main())
