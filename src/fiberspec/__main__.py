"""`python -m fiberspec`: the CLI's process entry, the same `cli.run` that
the `fiberspec` script of pyproject.toml names."""

from .cli import run

if __name__ == "__main__":
    run()
