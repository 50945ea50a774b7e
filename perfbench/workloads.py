"""Workload inputs shared by the benchmark and its expected-results script."""

#: ``talft campaign`` defaults (30 sampled steps, 10 sites, 3 values,
#: ``--seed 1``) with a step cap that lets gzip and go finish.
KERNEL_CAMPAIGN = dict(max_injection_steps=30, max_sites_per_step=10,
                       max_values_per_site=3, seed=1, max_steps=1_000_000)

#: The kernels ``bench_fault_coverage`` and the ROADMAP baseline sweep.
SWEEP_KERNELS = ("vpr", "gcc", "jpeg")

#: Exhaustive SEU campaign: every site, every representative value, at 100
#: evenly sampled steps.
SWEEP_CAMPAIGN = dict(max_injection_steps=100)
