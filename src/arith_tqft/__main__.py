"""`python -m arith_tqft` runs the `arith-tqft` command."""

from .cli import main

if __name__ == "__main__":
    main()
