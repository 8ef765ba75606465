"""``python -m landreg``: the regcli command line."""

from .cli import main

if __name__ == "__main__":
    main()
