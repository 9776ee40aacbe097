"""Run ``critevo.cli`` as a cold process with the tracer installed.

Usage: python3 -m perfbench.tracecli SPANS.npz <critevo cli arguments>

The spans go to SPANS.npz, which the calling workload process merges into
its own record, so the cold CLI calls of a traced run are traced too.
"""

import sys

from perfbench.trace import Tracer


def main(argv: list[str]) -> int:
    spans, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed():
        import critevo.cli
        rc = critevo.cli.main(cli_args)
    tracer.save(spans)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
