"""Set-up probe: a fresh interpreter imports spinff and loads the configs.

Usage: python3 setup_probe.py <src-dir> <t0> <config-ref>...

``t0`` is the parent's ``time.monotonic()`` taken just before it started
this interpreter (the clock is system-wide).  Prints the seconds from
then until every config is loaded, the point where a command would make
its first layer call.
"""

import sys
import time


def main(argv):
    src, t0, refs = argv[0], float(argv[1]), argv[2:]
    sys.path.insert(0, src)
    import spinff.cli  # noqa: F401  (the console entry point's import)
    from spinff.config import load_config, load_preset

    for ref in refs:
        if ref.startswith("preset:"):
            load_preset(ref.split(":", 1)[1])
        else:
            load_config(ref)
    print(repr(time.monotonic() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
