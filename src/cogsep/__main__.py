"""``python -m cogsep``: the same command-line runner as the ``cogsep`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
