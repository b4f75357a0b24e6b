"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 probe_setup.py -- CLI_ARGS...

Set-up is what the CLI does before its first integration. The probe
imports socave.cli, replaces `integrate` with a stub that stops the run,
and calls socave.cli.main with the workload's arguments: set-up is the
time from the start of the import to the stub's first call. For `solve`
that covers the problem build or load, the start points and the
solvability certificate; for `suite` the import of socave.experiments
and the build of the first (n = 100) tridiagonal problem. socave must be
importable (PYTHONPATH). Prints {"setup_s": seconds} as JSON.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import socave.cli  # noqa: E402
import socave.integrator  # noqa: E402


class FirstIntegration(Exception):
    """Raised by the stub at the first call of integrate."""


def stop_at_first_integration(*args, **kwargs):
    raise FirstIntegration(time.perf_counter())


def install_stub() -> None:
    """Bind the stub wherever `integrate` is bound in a loaded socave module;
    modules imported later (socave.experiments) take it from
    socave.integrator."""
    original = socave.integrator.integrate
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "socave" or name.startswith("socave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, stop_at_first_integration)


if __name__ == "__main__":
    install_stub()
    try:
        socave.cli.main(sys.argv[sys.argv.index("--") + 1:])
    except FirstIntegration as stop:
        print('{"setup_s": %r}' % (stop.args[0] - t0))
        sys.exit(0)
    print("error: the CLI ended without integrating", file=sys.stderr)
    sys.exit(1)
