"""Benchmark of the orbiflip verifier: seeded workloads, timings and traces."""
