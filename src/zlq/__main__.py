"""``python -m zlq``: the ``zlq`` command line."""

from .cli import console_main

console_main()
