"""The reproduction's pinned experiments; see :mod:`repro.bench.suites`."""
