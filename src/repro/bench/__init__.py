"""Environment fingerprint for benchmark results; see :mod:`repro.bench.harness`."""
