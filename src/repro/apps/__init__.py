"""``repro.apps`` -- applications built on the load-balancing abstraction.

Every application here is *declared once* -- work definition, cost
model, vectorized result, SIMT kernel body, oracle -- and registered
with the :mod:`repro.engine` registry, which owns all execution.
Switching the load balancer or the execution engine is a one-identifier
change, the paper's core usability claim.  SpMV is the evaluation
benchmark; SpMM/SpGEMM, BFS/SSSP, PageRank, triangle counting, MTTKRP
and the degree histogram reproduce the paper's Section 5.3 application
space.

Each built-in app lives in the module named after it
(``repro.apps.spmv`` declares ``spmv``, ``repro.apps.histogram``
declares ``histogram``); importing the module registers the app.  This
package imports none of them: :func:`repro.engine.get_app` imports the
one module it is asked for, and :func:`repro.engine.available_apps`
imports them all.  Import an app's function from its module
(``from repro.apps.spmv import spmv``) or from :mod:`repro`.
"""

__all__: list[str] = []
