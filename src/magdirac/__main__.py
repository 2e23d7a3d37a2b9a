"""``python -m magdirac``: the command-line interface of ``magdirac.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
