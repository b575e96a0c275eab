"""The paper lab: everything the reproduction keeps *around* the method
and that ``repro serve`` and the query path never load.

What is product and what is lab is decided by this directory alone: no
module outside ``repro.lab`` imports one inside it
(``tests/integration/test_api_quality.py`` walks every file; the one
allowed edge is ``repro scatter`` reaching :mod:`repro.lab.viz` from
inside its handler).  A lab name is imported from its module here;
nothing re-exports it.

Section 5 competitors and Section 6 / appendix artifacts:

- :mod:`repro.lab.methods` — DCT, DFT, wavelets, clustering, lossless
  and the extensions, behind one budget-parameterized interface;
- :mod:`repro.lab.sampling` — the uniform-sampling baseline (5.2);
- :mod:`repro.lab.workload`, :mod:`repro.lab.calendar` — Fig. 9's
  random query workload and calendar-phrased column selections;
- :mod:`repro.lab.cube` — DataCube collapse and N-mode PCA (6.1);
- :mod:`repro.lab.viz` — SVD-space scatter plots (Appendix A);
- :mod:`repro.lab.documents`, :mod:`repro.lab.similarity` — the
  introduction's IR setting and distance-preserving search.

References and ablations for the method itself:

- :mod:`repro.lab.naive_svdd` — Fig. 4, the construction Fig. 5
  replaces;
- :mod:`repro.lab.bloom`, :mod:`repro.lab.hashtable`,
  :mod:`repro.lab.heap` — Section 4.2's hash table, Bloom filter and
  bounded heap (the product runs the sorted ``DeltaIndex`` and
  counts pass 2 in ``repro.core.histogram``);
- :mod:`repro.lab.eigen`, :mod:`repro.lab.tridiagonal` — the
  eigensolver interface and from-scratch solvers beside LAPACK (the
  product calls ``numpy.linalg.eigh`` directly);
- :mod:`repro.lab.robust` — robust SVD (future work b);
- :mod:`repro.lab.costmodel` — the introduction's storage economics as
  a table;
- :mod:`repro.lab.warehouse` — a catalog of named models for the
  examples.
"""
