"""`python -m cfcheck`: the same command line as `cfcheck`."""

from .cli import entry

if __name__ == "__main__":
    entry()
