"""Set-up time in a fresh interpreter: import qpcasim, prepare the input
through the program's own constructor, and complete the first call.

Usage: python3 setup_probe.py SPEC.json
SPEC holds "src" (the package's source directory) and either "argv" for an
in-process ``qpcasim run`` or "matrix" and "config" for ``run_qpca``.  The
input is read before the clock starts, so the benchmark's own input
generation stays out.  Prints {"setup_s": ...} as its last line.
"""

import contextlib
import io
import json
import sys
import time

spec = json.loads(open(sys.argv[1]).read())
sys.path.insert(0, spec["src"])

start = time.perf_counter()
if "argv" in spec:
    from qpcasim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    if code != 0:
        sys.exit(f"qpcasim run exited {code}")
else:
    from qpcasim import HermitianInput, QpcaConfig, run_qpca

    run_qpca(HermitianInput.from_matrix(spec["matrix"]), QpcaConfig(**spec["config"]))
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed}))
