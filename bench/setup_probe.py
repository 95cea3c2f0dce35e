"""Time one fresh-process set-up: import kirchlab, then load_config of
every plan text read as a JSON list from stdin. Prints the seconds.

Usage: python3 setup_probe.py <kirchlab source directory> < plans.json
"""

import json
import sys
import time

texts = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kirchlab  # noqa: E402

for text in texts:
    kirchlab.load_config(text)
print(repr(time.perf_counter() - start))
