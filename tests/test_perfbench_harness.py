"""The repo benchmark harness (``perfbench/``) still loads the library.

The harness imports library modules and wraps public entry points by
name, so a library change can break it without breaking any library
test.  This runs the harness's import and set-up path in a subprocess
— the span wrappers it installs patch library modules, so they must
stay out of the test process.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

sys.path.insert(0, "perfbench")
import benchlib

benchlib.import_repro()
import plan_server, spans, wl_campaign, wl_service, wl_stream  # noqa: E401

spans.install(spans.Tracer(), server=True)
print(json.dumps(benchlib.envelope("campaign", 1, 3, True)))
"""


def test_harness_imports_wraps_and_fingerprints():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout.strip().splitlines()[-1])
    assert envelope["workload"] == "campaign"
    assert "kernels" in envelope
