"""One untraced invocation of a workload through the CLI entry point."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from workloads import argv


def invoke(cli, workload, config_path, out_dir):
    """Run the workload's commands in-process through ``cli.main``.

    Returns ``(check_text, codes, wall_s, cpu_s)``: the text ``check``
    printed (None when the workload has no ``check``), the exit codes,
    and the host and process-CPU seconds from the first call into the
    CLI until the last command returned with its files written.
    """
    check_text = None
    codes = []
    start, start_cpu = time.perf_counter(), time.process_time()
    for command in workload.commands:
        buffer = io.StringIO()
        with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv(command, config_path, out_dir,
                                       workload.duration)))
        if command == "check":
            check_text = buffer.getvalue()
    return (check_text, codes, time.perf_counter() - start,
            time.process_time() - start_cpu)
