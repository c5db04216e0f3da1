"""Run a command and fail when its peak resident set exceeds a limit.

    python tests/peak_rss.py LIMIT_MIB COMMAND [ARG ...]

The command's output passes through.  Its peak RSS, the largest of its
own process and of every child it waited for (os.wait4's ru_maxrss), is
printed to stderr in MiB.  The exit status is the command's when it
fails, else 1 when the peak exceeds LIMIT_MIB, else 0.  The command is
spawned from this small process, so the reading does not carry over the
peak of whatever started this one, as a fork from a large process (a
test runner, say) would at exec.
"""

import os
import sys


def main(argv: list[str]) -> int:
    limit = float(argv[1])
    pid = os.posix_spawnp(argv[2], argv[2:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"peak_rss_mib={peak:.1f} limit_mib={limit:g}", file=sys.stderr)
    code = os.waitstatus_to_exitcode(status)
    return code if code else int(peak > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
