"""``python -m choiceless_lab``: the same entry as the ``choiceless-lab`` script."""

from .cli import main

main()
