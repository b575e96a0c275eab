"""The data structure the SVDD build runs.

Pass 2 of the 3-pass construction (paper Figure 5) keeps, per candidate
cutoff ``k``, the ``|error|`` scores of the ``gamma_k`` worst cells seen
so far in a :class:`TopKBuffer`, whose :class:`Cut` pass 3 collects at.

Product.  Section 4.2's from-scratch structures — the open-addressing
hash table, the Bloom filter in front of it and the bounded heap that
is ``TopKBuffer``'s reference — are ``repro.lab.hashtable``,
``repro.lab.bloom`` and ``repro.lab.heap``.
"""

from repro.structures.topk import Cut, TopKBuffer

__all__ = ["Cut", "TopKBuffer"]
