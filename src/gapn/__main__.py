"""`python -m gapn ...` runs the gapn command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
