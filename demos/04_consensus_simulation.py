"""
Accelerated consensus on a graph, with and without link drops
=============================================================

Nodes average their state with their neighbors through the graph
Laplacian. The memory-accelerated update converges much faster than the
memoryless one when the graph is poorly connected -- but the same
momentum that accelerates it can destabilize the run when links drop
randomly, while the plain memoryless iteration shrugs drops off.

Writes trace_memoryless.csv and trace_accelerated.csv.
"""

import numpy as np

from memaccel import (
    Gains,
    IterationProblem,
    consensus_metrics,
    empirical_rate,
    laplacian,
    memory_fragility_example,
    nonzero_spectral_interval,
    simulate,
    symmetric_eigenvalues,
    trace_to_csv,
    tune_memoryless,
    tune_theorem3,
)

# Two triangles joined by one weak link: a classic slow-mixing topology.
graph, tuned_gains, drop_schedule, x0 = memory_fragility_example()
L = laplacian(graph)
eigs = symmetric_eigenvalues(L)
iv = nonzero_spectral_interval(eigs)
print(f"graph: {graph.n} nodes, {len(graph.edges)} edges")
print(f"nonzero Laplacian eigenvalues span [{iv.lo:.4f}, {iv.hi:.4f}]")

prob = IterationProblem(L.entries, np.zeros(graph.n), x0)
alpha0, mu = tune_memoryless(iv)
t = tune_theorem3(iv)

tr_plain = simulate(prob, Gains(M=1, alpha=alpha0), T=200)
tr_fast = simulate(prob, t.gains, T=200)
for name, tr in (("trace_memoryless.csv", tr_plain),
                 ("trace_accelerated.csv", tr_fast)):
    with open(name, "w") as fh:
        fh.write(trace_to_csv(tr))
print("wrote trace_memoryless.csv, trace_accelerated.csv")

print(f"\npredicted factors: memoryless {mu:.4f}, accelerated {t.nu_star:.4f}")
print(f"measured decay:    memoryless {empirical_rate(tr_plain, burn_in=40):.4f},"
      f" accelerated {empirical_rate(tr_fast, burn_in=40):.4f}")

# Now replay both under a random link-drop schedule.
tr_plain_d = simulate(prob, Gains(M=1, alpha=alpha0), T=400, drops=drop_schedule)
tr_fast_d = simulate(prob, t.gains, T=400, drops=drop_schedule)
print("\nunder 50% random link drops:")
print(f"  memoryless:  diverged = {tr_plain_d.diverged}, "
      f"final spread = {consensus_metrics(tr_plain_d.states[-1])[0]:.2e}")
print(f"  accelerated: diverged = {tr_fast_d.diverged} "
      f"(momentum tuned for the fixed graph destabilizes the varying one)")
