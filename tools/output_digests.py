"""Print a SHA-256 digest of each primary output of the momentgate command.

    python tools/output_digests.py SRC_DIR

runs a fixed list of commands against the package in SRC_DIR (a checkout's
``src`` directory), each in a fresh interpreter inside one temporary
directory, and prints one ``sha256  command`` line per command, as
``sha256sum`` does.  The digest is of the command's standard output, or of
the file it writes with ``--out``.  The files that later commands read (a
sample, a synthesized series, three INI documents) are written into the
same directory under fixed relative names, so the headers that echo a path
read the same from any checkout.  Two checkouts produce byte-identical outputs exactly when

    diff <(python tools/output_digests.py A/src) \\
         <(python tools/output_digests.py B/src)

prints nothing.  A command that exits non-zero is reported on stderr and
makes the script exit 1 after printing every line.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

INI_DOCUMENTS = {
    "iid.ini": """\
[experiment]
models = logweibull:rho=2,slep:rho=1.5,lognormal
n = 400,2000
k_theta = 4,8
k_rho = 40
reps = 20
seed = 3
""",
    "corr.ini": """\
[experiment]
models = lognormal,logweibull:rho=3
n = 4096
k_theta = 10
k_rho = 60
reps = 10
seed = 5

[correlated]
cov = exp:tau=20,tab:1,0.5,0.25
match = hermite
assumed_tau = 10,20
s = 0,5
""",
    "lns.ini": """\
[experiment]
kind = lnS
models = slep:rho=3
n = 100,10000
q_over_qc = 0.25,0.5,1,2
reps = 20
seed = 7
""",
}

# (argv after ``momentgate``, file fed to stdin or None); the digest of a
# command with --out is of the file it writes, which later commands read
COMMANDS = [
    (["sample", "--model", "logweibull:rho=2", "--n", "10000", "--seed", "1",
      "--out", "sample.txt"], None),
    (["synth", "--model", "lognormal", "--cov", "exp:tau=10", "--n", "4096",
      "--match", "gaussian", "--seed", "2", "--out", "gaussian.txt"], None),
    (["synth", "--model", "slep:rho=1.5", "--cov", "tab:1,0.6,0.3", "--n",
      "4096", "--match", "hermite", "--seed", "4"], None),
    (["estimate", "--input", "sample.txt"], None),
    (["estimate", "--input", "sample.txt", "--format", "csv"], None),
    (["estimate", "--input", "-"], "sample.txt"),
    (["estimate", "--input", "-", "--format", "csv"], "sample.txt"),
    (["estimate", "--input", "sample.txt", "--log-input"], None),
    (["estimate", "--input", "gaussian.txt", "--corr", "--tau", "10"], None),
    (["estimate", "--input", "gaussian.txt", "--corr", "--tau", "10",
      "--format", "csv"], None),
    (["theory", "--model", "lognormal", "--n", "1000", "--q-grid", "0.5,1,3"],
     None),
    (["theory", "--model", "logweibull:rho=1.5", "--n", "1000", "--q-grid",
      "0.5,1,3", "--format", "json"], None),
    *((["mc", "--figure", str(figure), "--reps", "20", *fmt], None)
      for figure in (2, 3, 5, 6, 11, 12, 16)
      for fmt in ([], ["--format", "json"])),
    *((["mc", "--config", name, *fmt], None)
      for name in INI_DOCUMENTS for fmt in ([], ["--format", "json"])),
]

_MAIN = "import sys; from momentgate.cli import main; sys.exit(main())"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    failed = False
    with tempfile.TemporaryDirectory() as work:
        for name, text in INI_DOCUMENTS.items():
            Path(work, name).write_text(text)
        for args, stdin_file in COMMANDS:
            stdin = Path(work, stdin_file).read_bytes() if stdin_file else b""
            run = subprocess.run([sys.executable, "-c", _MAIN, *args], cwd=work,
                                 env=env, input=stdin, capture_output=True)
            command = "momentgate " + shlex.join(args)
            if stdin_file:
                command += f" < {stdin_file}"
            if run.returncode != 0:
                failed = True
                sys.stderr.write(f"{command}: exit {run.returncode}: "
                                 f"{run.stderr.decode(errors='replace')}")
            out = (Path(work, args[args.index("--out") + 1]).read_bytes()
                   if "--out" in args and run.returncode == 0 else run.stdout)
            print(f"{hashlib.sha256(out).hexdigest()}  {command}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
