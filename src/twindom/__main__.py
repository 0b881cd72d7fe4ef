"""``python -m twindom``: the ``twindom`` command."""

from .cli import main

if __name__ == "__main__":
    main()
