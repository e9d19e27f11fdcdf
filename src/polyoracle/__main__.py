"""``python -m polyoracle``: the command line, as the ``polyoracle`` script runs it."""
from .cli import main

main()
