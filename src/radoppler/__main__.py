"""``python -m radoppler``: the command-line pipeline (see radoppler.cli)."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
