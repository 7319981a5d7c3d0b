"""Timeline length that the benchmark's ``phy.vector_share`` metric counts.

``benchmarks/suite/spans.py`` (``instrument``) imports
:data:`VECTOR_CUTOFF` and reports the share of receptions whose
interference timeline has at least that many entries.  Reception itself
has one implementation, :class:`repro.phy.reception.SinrThresholdReception`.
"""

#: Interference-timeline length counted by ``phy.vector_share``.
VECTOR_CUTOFF = 12
