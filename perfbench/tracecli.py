"""`etv` command line under the tracer, for the traced run of cli-batch.

Usage: PERFBENCH_TRACE=<file> python3 perfbench/tracecli.py <etv arguments>

Wraps the library exactly as a traced benchmark process does, runs
`etv.cli.main` on the arguments, writes the tracer's totals to the file
named by PERFBENCH_TRACE and exits with the command's exit code.
"""

import json
import os
import sys

import common
import tracer as tracing


def main():
    common.import_etv()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.verify(tracer)
    from etv import cli
    tracer.enabled = True
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        with open(os.environ["PERFBENCH_TRACE"], "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
