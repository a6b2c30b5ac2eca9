"""``python -m repro`` and ``et-repro`` entry point — see :mod:`repro.cli`."""

import sys


def main() -> int:
    """Pin BLAS to one thread (before NumPy loads), then run the CLI."""
    from repro.threads import pin_blas_threads

    pin_blas_threads()
    from repro.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
