"""Run the socave CLI once, in this process, with the traced functions wrapped.

Usage: python3 probe_traced.py OUT.npz [--suite-tridiag-n N] -- CLI_ARGS...

socave must be importable (PYTHONPATH). Writes the spans to OUT.npz and
the counters and timings to OUT.json. --suite-tridiag-n shrinks the
suite's n = 1000 tridiagonal experiment, for the reduced-size smoke test.
"""

import time

t_import = time.perf_counter()
import socave.cli  # noqa: E402  (timed: this is cli.import_s)

import_s = time.perf_counter() - t_import

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import socave.experiments  # noqa: E402  (cmd_suite imports it lazily; load it to wrap it)

from layers import TARGETS  # noqa: E402
from spans import Tracer, install  # noqa: E402


def shrink_suite_tridiag(n: int) -> None:
    original = socave.experiments.run_tridiag_experiment

    def run(**kwargs):
        if kwargs.get("n") == 1000:
            kwargs["n"] = n
        return original(**kwargs)

    socave.experiments.run_tridiag_experiment = run


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    out, opts, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    if opts[:1] == ["--suite-tridiag-n"]:
        shrink_suite_tridiag(int(opts[1]))
    tracer = Tracer()
    install(tracer, "socave", TARGETS)
    main_start = tracer.clock()
    code = socave.cli.main(cli_args)
    main_end = tracer.clock()
    np.savez(out, name_ids=np.frombuffer(tracer.name_ids, dtype=np.int32),
             starts=np.frombuffer(tracer.starts), ends=np.frombuffer(tracer.ends),
             parents=np.frombuffer(tracer.parents, dtype=np.int32))
    meta = {"exit_code": code, "dump_s": tracer.clock() - main_end,
            "names": tracer.names, "counters": tracer.counters, "import_s": import_s,
            "main_start": main_start, "main_end": main_end}
    with open(out[:-len(".npz")] + ".json", "w") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
