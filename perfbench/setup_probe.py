"""Set-up cost of a cold interpreter: import ``hamop.cli``, build ``catalog()``.

Prints one JSON line with both times in seconds, raw and scaled to the
reference host speed (see ``speed``).  ``run.py`` starts this script several
times per run with ``src`` on ``PYTHONPATH``.  The probe's own imports
(``json``, ``speed``) come before the timed part.
"""

import json
import time

import speed

with speed.SpeedProbe() as probe:
    t0 = time.perf_counter()
    import hamop.cli  # noqa: E402

    t1 = time.perf_counter()
    hamop.cli.catalog()
    t2 = time.perf_counter()
    scale = probe.scale()
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1, "scale": scale}))
