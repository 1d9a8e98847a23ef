"""Command-line tools: simulate, correct, cluster, assemble.

The unified entry point is ``python -m repro`` (or the ``repro``
console script)::

    python -m repro simulate out/ --genome-length 20000
    python -m repro correct out/reads.fastq out/corrected.fastq \
        --truth out/truth.fastq --workers 4 --report run.json
    python -m repro cluster sample.fastq clusters/ --progress
    python -m repro assemble out/corrected.fastq out/contigs.fasta

Every tool shares the telemetry flag group from
:mod:`repro.tools.common` (``--report`` / ``--progress`` /
``--profile``).
"""
