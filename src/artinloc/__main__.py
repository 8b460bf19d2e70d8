"""``python -m artinloc ...`` runs the command-line interface."""

from .cli import main

main()
