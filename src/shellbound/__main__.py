import gc
import sys

from .cli import main


def run() -> int:
    """The CLI's process entry, for `python -m shellbound` and the
    `shellbound` script: main's exit code, with every object moved out of
    the collector's reach before the interpreter tears down.

    Teardown would otherwise run a cyclic collection over every object the
    request made (about 20 ms with numpy loaded) only to free memory the
    process is about to return.  Nothing is lost by skipping it: the
    interpreter still flushes stdout and stderr, and no file the CLI opens
    outlives its `with` block.  Tests call main and are not affected."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
