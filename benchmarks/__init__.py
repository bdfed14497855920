"""Paper-reproduction benchmarks (a package so ``bench_*.py`` can import
``.paper_reference``)."""
