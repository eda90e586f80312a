"""Benchmark harness for mvtcheck.

``gen`` builds seeded inputs, ``oracle`` judges outputs without importing
mvtcheck, ``tracer`` records per-layer spans by wrapping names at their
import sites, and ``measure`` runs a workload and reports its metrics.
"""
