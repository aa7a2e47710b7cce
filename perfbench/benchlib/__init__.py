"""Support code of the perfbench runner (``perfbench/run.py``).

* :mod:`.stats` — percentiles, open-loop timing and failure accounting;
* :mod:`.calibrate` — the reference kernel that scales times to the
  machine's reference speed;
* :mod:`.layers` — timing wrappers installed around each layer's public
  functions for the traced run;
* :mod:`.metrics` — every reported metric and the table of which
  per-layer metric should move which end-to-end metric where;
* :mod:`.provenance` — the machine and code stamp of every record;
* :mod:`.common` — the repetition record and the workload interface;
* :mod:`.packet`, :mod:`.fluid`, :mod:`.sweep`, :mod:`.service` — the
  four workloads.
"""
